import math

import numpy as np
import pytest

from nlch.diagnostics import (
    DiagnosticsRecord,
    TrajectoryDistance,
    distance,
    energy,
    LYAPUNOV_TOL,
    MASS_BALANCE_TOL,
    MAX_PRINCIPLE_TOL,
    SEPARATION_MARGIN,
    lyapunov,
    lyapunov_decay,
    mass_balance,
    max_principle,
    separation,
    write_diagnostics_csv,
    write_distances_csv,
)
from nlch.errors import ComparisonError, InapplicabilityError
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


# a record whose every field is 0; records() replaces the columns a case sets
ZERO = DiagnosticsRecord._make([0.0] * len(DiagnosticsRecord._fields))


def records(**columns):
    """One record per row of the given columns; every other field is 0."""
    return [ZERO._replace(**dict(zip(columns, row))) for row in zip(*columns.values())]


def test_max_principle_verdict():
    assert max_principle(records(sigma_min=[0.5] * 3, sigma_max=[0.5] * 3)) == (True, (0.5, 0.5))
    ok, (lo, hi) = max_principle(records(sigma_min=[0.5, 0.2, 0.5], sigma_max=[0.5, 1.1, 0.5]))
    assert not ok and (lo, hi) == (0.2, 1.1)
    assert not max_principle(records(sigma_min=[0.5, -0.1], sigma_max=[0.5, 0.5]))[0]


def test_max_principle_verdict_at_its_tolerance():
    lo, hi = -MAX_PRINCIPLE_TOL, 1.0 + MAX_PRINCIPLE_TOL
    assert max_principle(records(sigma_min=[0.5, lo], sigma_max=[hi, 0.5])) == (True, (lo, hi))
    below, above = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    assert not max_principle(records(sigma_min=[below], sigma_max=[0.5]))[0]
    assert not max_principle(records(sigma_min=[0.5], sigma_max=[above]))[0]


def test_separation_verdict():
    assert separation(records(phi_supnorm=[0.0, 0.0]), ell=1.0) == (True, 0.0)
    assert separation(records(phi_supnorm=[0.0, 1.0 - 1e-8]), ell=1.0) == (False, 1.0 - 1e-8)
    # separated from the barrier, but by less than the margin 1e-3
    assert separation(records(phi_supnorm=[0.0, 1.0 - 1e-4]), ell=1.0) == (False, 1.0 - 1e-4)
    assert separation(records(phi_supnorm=[0.3, 0.1]), ell=0.5) == (True, 0.3)


@pytest.mark.parametrize("ell", [1.0, 0.5])
def test_separation_verdict_at_its_margin(ell):
    edge = ell - SEPARATION_MARGIN
    assert separation(records(phi_supnorm=[0.0, edge]), ell) == (True, edge)
    past = np.nextafter(edge, np.inf)
    assert separation(records(phi_supnorm=[0.0, past]), ell) == (False, past)


def test_mass_balance_verdict_at_its_tolerance():
    assert mass_balance(records(mass_balance_residual=[0.0, 1e-17])) == (True, 1e-17)
    at = records(mass_balance_residual=[MASS_BALANCE_TOL, 0.0])
    assert mass_balance(at) == (True, MASS_BALANCE_TOL)
    past = np.nextafter(MASS_BALANCE_TOL, np.inf)
    assert mass_balance(records(mass_balance_residual=[0.0, past])) == (False, past)


def test_lyapunov_verdict_at_its_tolerance():
    assert lyapunov_decay(records(lyapunov=[3.0, 2.0, 1.0])) == (True, -1.0 / 3.0)
    # a rise of about 3e-10 is judged over |L(0)|, also when L(0) < 0
    assert not lyapunov_decay(records(lyapunov=[-2.0, -3.0, -3.0 + 3e-10]))[0]
    assert lyapunov_decay(records(lyapunov=[-4.0, -5.0, -5.0 + 3e-10]))[0]
    # L = 1, 0, TOL rises by exactly TOL from 0, where the difference is exact
    assert lyapunov_decay(records(lyapunov=[1.0, 0.0, LYAPUNOV_TOL])) == (True, LYAPUNOV_TOL)
    past = np.nextafter(LYAPUNOV_TOL, np.inf)
    assert lyapunov_decay(records(lyapunov=[1.0, 0.0, past])) == (False, past)


@pytest.mark.parametrize("verdict", [
    mass_balance, max_principle, lyapunov_decay, lambda recs: separation(recs, ell=1.0)])
def test_a_run_without_records_has_no_verdict(verdict):
    # a run made with record_diagnostics=False never passes by default
    with pytest.raises(InapplicabilityError, match="record_diagnostics=True"):
        verdict([])


def test_lyapunov_verdict_needs_a_step_and_a_nonzero_start():
    with pytest.raises(InapplicabilityError, match="at least 2"):
        lyapunov_decay(records(lyapunov=[1.0]))
    with pytest.raises(InapplicabilityError, match=r"\|L\(0\)\|"):
        lyapunov_decay(records(lyapunov=[0.0, -1.0]))


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
