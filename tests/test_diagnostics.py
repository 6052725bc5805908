import math

import numpy as np
import pytest

from nlch.diagnostics import (
    DiagnosticsRecord,
    TrajectoryDistance,
    distance,
    energy,
    lyapunov,
    theorem_probe_max_principle,
    theorem_probe_separation,
    write_diagnostics_csv,
    write_distances_csv,
)
from nlch.errors import ComparisonError
from nlch.grid import Field, GridSpec, norm_h
from nlch.kernel import KernelSpec, build
from nlch.model import ModelParams, State, Trajectory
from nlch.potential import polynomial_potential


def make_state(grid, phi, mu=0.0, sigma=0.5):
    return State(
        phi=phi if isinstance(phi, Field) else Field.constant(grid, phi),
        mu=Field.constant(grid, mu),
        sigma=sigma if isinstance(sigma, Field) else Field.constant(grid, sigma),
    )


def frozen_trajectory(grid, fields_phi, fields_sigma, dt=0.1):
    traj = Trajectory(params=ModelParams(dt=dt, T=dt * (len(fields_phi) - 1)))
    for k, (p, s) in enumerate(zip(fields_phi, fields_sigma)):
        traj.times.append(k * dt)
        traj.phis.append(p)
        traj.mus.append(Field.constant(grid, 0.0))
        traj.sigmas.append(s)
    return traj


def test_energy_examples(grid64, bundle64, poly):
    st = make_state(grid64, 1.0)
    assert energy(st, bundle64, poly) == pytest.approx(0.0, abs=1e-12)
    st0 = make_state(grid64, 0.0)
    assert energy(st0, bundle64, poly) == pytest.approx(0.25 * grid64.measure, rel=1e-12)


def test_energy_brute_force():
    grid = GridSpec(1, (1.0,), (32,))
    spec = KernelSpec("gaussian", width=0.3, normalization=1.4)
    b = build(spec, grid)
    poly = polynomial_potential(0.5)
    rng = np.random.default_rng(0)
    v = rng.uniform(-0.9, 0.9, 32)
    st = make_state(grid, Field(grid, v))

    x = grid.axis_coordinates(0)
    K = spec.profile(np.abs(np.subtract.outer(x, x)))
    dbl = 0.25 * np.sum(K * np.subtract.outer(v, v) ** 2) * grid.cell_volume**2
    f_int = np.sum(0.25 * (v**2 - 1.0) ** 2) * grid.cell_volume
    assert energy(st, b, poly) == pytest.approx(dbl + f_int, abs=1e-9)


def test_energy_infinite_outside_barrier(grid64, bundle64):
    from nlch.potential import double_obstacle_potential

    dob = double_obstacle_potential(0.3)
    st = make_state(grid64, 2.0)
    assert energy(st, bundle64, dob) == math.inf


def test_distance_self_and_shift(grid64, bundle64, poly):
    x = grid64.axis_coordinates(0)
    phis = [Field(grid64, 0.1 * np.cos(np.pi * x)) for _ in range(4)]
    sigs = [Field.constant(grid64, 0.5) for _ in range(4)]
    t1 = frozen_trajectory(grid64, phis, sigs)
    d0 = distance(t1, t1)
    for name, val in d0._asdict().items():
        assert val == 0.0, name

    shifted = [Field(grid64, p.values + 0.25) for p in phis]
    t2 = frozen_trajectory(grid64, shifted, sigs)
    d = distance(t1, t2)
    assert d.linf_h_phi == pytest.approx(0.25 * np.sqrt(grid64.measure), rel=1e-12)
    assert d.linf_h_sigma == 0.0
    # the V* norm of a constant equals the constant's H norm
    assert d.linf_vstar_phi == pytest.approx(0.25 * np.sqrt(grid64.measure), rel=1e-8)

    # swapping the trajectories negates every difference, which no norm sees,
    # bit for bit: the dual norm of eps*dmu + dphi included
    t3 = frozen_trajectory(grid64, shifted, [Field(grid64, 0.5 + 0.1 * x) for _ in range(4)])
    t3.mus[:] = [Field(grid64, 0.2 * k * np.sin(np.pi * x)) for k in range(4)]
    assert repr(distance(t1, t3, eps=0.3)) == repr(distance(t3, t1, eps=0.3))


def test_distance_alignment_errors(grid64):
    phis = [Field.constant(grid64, 0.0)] * 3
    sigs = [Field.constant(grid64, 0.5)] * 3
    t1 = frozen_trajectory(grid64, phis, sigs, dt=0.1)
    t2 = frozen_trajectory(grid64, phis[:2], sigs[:2], dt=0.1)
    with pytest.raises(ComparisonError):
        distance(t1, t2)
    t3 = frozen_trajectory(grid64, phis, sigs, dt=0.2)
    with pytest.raises(ComparisonError):
        distance(t1, t3)


def test_max_principle_probe(grid64):
    sigs = [Field.constant(grid64, 0.5)] * 3
    phis = [Field.constant(grid64, 0.0)] * 3
    ok, info = theorem_probe_max_principle(frozen_trajectory(grid64, phis, sigs))
    assert ok and info["first_violation"] is None

    bad = [Field.constant(grid64, 0.5), Field.constant(grid64, 1.1), Field.constant(grid64, 0.5)]
    ok, info = theorem_probe_max_principle(frozen_trajectory(grid64, phis, bad))
    assert not ok
    t_bad, idx, val = info["first_violation"]
    assert t_bad == pytest.approx(0.1)
    assert val == pytest.approx(1.1)


def test_separation_probe(grid64):
    sigs = [Field.constant(grid64, 0.5)] * 2
    ok, r_star = theorem_probe_separation(
        frozen_trajectory(grid64, [Field.constant(grid64, 0.0)] * 2, sigs), ell=1.0
    )
    assert ok and r_star == 0.0

    close = [Field.constant(grid64, 0.0), Field.constant(grid64, 1.0 - 1e-8)]
    ok, r_star = theorem_probe_separation(frozen_trajectory(grid64, close, sigs), ell=1.0)
    assert not ok and r_star == pytest.approx(1.0 - 1e-8)

    # separated from the barrier, but by less than the margin 1e-3
    inside = [Field.constant(grid64, 0.0), Field.constant(grid64, 1.0 - 1e-4)]
    ok, r_star = theorem_probe_separation(frozen_trajectory(grid64, inside, sigs), ell=1.0)
    assert not ok and r_star == pytest.approx(1.0 - 1e-4)

    edge = [Field.constant(grid64, 0.0), Field.constant(grid64, -(1.0 - 1e-3))]
    ok, r_star = theorem_probe_separation(frozen_trajectory(grid64, edge, sigs), ell=1.0)
    assert ok and r_star == 1.0 - 1e-3


def test_csv_writers(tmp_path, grid64):
    recs = [
        DiagnosticsRecord(t=0.0, mass_balance_residual=0.0, lyapunov=1.0, sigma_min=0.0,
                          sigma_max=1.0, phi_supnorm=0.5, energy_nonlocal=0.1, newton_iters=0),
        DiagnosticsRecord(t=0.1, mass_balance_residual=1e-15, lyapunov=0.9, sigma_min=0.0,
                          sigma_max=1.0, phi_supnorm=0.5, energy_nonlocal=0.1, newton_iters=2),
    ]
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mass_balance_residual,lyapunov")
    assert len(lines) == 3

    d = TrajectoryDistance(*(float(k) for k in range(8)))
    write_distances_csv(tmp_path / "distances.csv", [("a_vs_b", d)])
    text = (tmp_path / "distances.csv").read_text().splitlines()
    assert text[0].startswith("pair,linf_h_phi")
    assert text[1].startswith("a_vs_b,")


def test_lyapunov_matches_parts(grid64, bundle64, poly):
    from nlch.kernel import nonlocal_energy_density
    from nlch.potential import f_lambda_eval

    params = ModelParams(eps=0.2, tau=0.1, dt=1e-3, lam=1e-3)
    x = grid64.axis_coordinates(0)
    st = make_state(grid64, Field(grid64, 0.3 * np.cos(np.pi * x)), mu=0.7, sigma=0.4)
    expected = (
        0.5 * params.eps * norm_h(st.mu) ** 2
        + nonlocal_energy_density(bundle64, st.phi)
        + float(np.sum(f_lambda_eval(poly, params.lam_eff, st.phi.values))) * grid64.cell_volume
        + 0.5 * norm_h(st.sigma) ** 2
    )
    assert lyapunov(st, params, bundle64, poly) == pytest.approx(expected, rel=1e-14)
