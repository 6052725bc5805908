"""Acceptance criteria at their stated tolerances, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines; the suite is also the reference for the admissible
benchmark configurations (kernel width 3.0, normalization 2.05 keeps
eps up to 0.1 below the admission threshold 0.9 * eps0 ~ 0.131).
"""

import numpy as np
import pytest

from nlch.asymptotics import (
    RATIO_FACTOR,
    SLOPE_MARGIN,
    TAU_DRIFT_FACTOR,
    StabilityPlan,
    SweepPlan,
    stability_passed,
    stability_probe,
    sweep,
)
from nlch.diagnostics import (
    LYAPUNOV_TOL,
    MASS_BALANCE_TOL,
    SEPARATION_MARGIN,
    lyapunov_decay,
    mass_balance,
    max_principle,
    separation,
)
from nlch.galerkin import ORACLE_GAP_TOL, compare
from nlch.grid import Field, GridSpec, norm_h
from nlch.kernel import KernelSpec, build, convolve, convolve_direct
from nlch.model import InitialData, ModelParams, run
from nlch.potential import (
    double_obstacle_potential,
    f_eval,
    logarithmic_potential,
    moreau,
    polynomial_potential,
    resolvent,
    yosida,
)


def report(name: str, passed: bool, detail: str):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench():
    grid = GridSpec(1, (1.0,), (256,))
    bundle = build(KernelSpec("gaussian", width=3.0, normalization=2.05), grid)
    poly = polynomial_potential(0.5)
    x = grid.axis_coordinates(0)
    init = InitialData(
        Field(grid, 0.2 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)),
        Field(grid, 0.1 * np.cos(np.pi * x)),
        Field(grid, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    return grid, bundle, poly, init


def coupled(**kw):
    base = dict(eps=0.05, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2, eta=0.0,
                sigma_s=0.8, dt=1e-3, T=0.1, lam=1e-3)
    base.update(kw)
    return ModelParams(**base)


def test_ac1_mass_source_balance(bench):
    grid, bundle, poly, init = bench
    # each residual is already relative to the mean scale
    verdicts = [mass_balance(run(init, coupled(eps=eps, tau=tau, T=0.05), bundle, poly).records)
                for eps, tau in ((0.05, 0.1), (0.0, 0.1), (0.05, 0.0), (0.0, 0.0))]
    worst = max(measured for _, measured in verdicts)
    report("AC-1 mass-source balance", all(passed for passed, _ in verdicts),
           f"worst per-step residual {worst:.2e} <= {MASS_BALANCE_TOL:g} over all four regimes")


def test_ac2_maximum_principle(bench):
    grid, bundle, poly, _ = bench
    rng = np.random.default_rng(7)
    x = grid.axis_coordinates(0)
    init = InitialData(
        Field(grid, 0.3 * np.cos(np.pi * x)),
        Field.constant(grid, 0.0),
        Field(grid, rng.uniform(0.0, 1.0, grid.size)),
    )
    params = coupled(eta=0.0, T=1.0, dt=1e-3)
    passed, (lo, hi) = max_principle(run(init, params, bundle, poly).records)
    report("AC-2 maximum principle", passed, f"sigma in [{lo:.3e}, {hi:.10f}] over 1000 steps")


def test_ac3_continuous_dependence(bench):
    grid, bundle, poly, init = bench
    probes = [stability_probe(StabilityPlan(init, coupled(tau=tau, T=0.25), bundle, poly,
                                            deltas=[1e-2, 1e-3]))
              for tau in (0.1, 0.01)]
    mean_ratios = [np.mean([r.ratio for r in rows]) for rows in probes]
    tau_drift = max(mean_ratios) / min(mean_ratios)
    report("AC-3 continuous dependence", stability_passed(probes),
           f"delta-ratios within factor {RATIO_FACTOR:g}; "
           f"across tau drift {tau_drift:.3f} <= {TAU_DRIFT_FACTOR:g}")


def test_ac4_separation(bench):
    grid, bundle, _, _ = bench
    logpot = logarithmic_potential(0.3, 0.6)
    x = grid.axis_coordinates(0)
    init = InitialData(
        Field(grid, 0.8 * np.cos(np.pi * x)),
        Field.constant(grid, 0.0),
        Field(grid, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    assert np.max(np.abs(init.phi0.values)) <= 0.8  # starts at the separation radius r0
    params = coupled(eps=0.05, tau=0.05, chi=0.5, eta=0.05, T=0.5, dt=1e-3)
    passed, r_star = separation(run(init, params, bundle, logpot).records, ell=1.0)
    report("AC-4 separation", passed, f"sup_t ||phi||_inf = {r_star:.6f} < 1 with margin "
           f"{1.0 - r_star:.3e} >= {SEPARATION_MARGIN:g}")


SWEEP_VALUES = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def _sweep_report(name, rep):
    # a slope implies at least 3 points above the floor: fit_rate raises below 3
    slope = "none" if rep.slope is None else f"{rep.slope:.4f}"
    detail = (f"slope {slope} >= {rep.theoretical_slope - SLOPE_MARGIN:.2f}, "
              f"monotone {rep.monotone_ok}, {sum(rep.used_in_fit)}/{len(rep.totals)} "
              f"points above the dt floor {rep.floor:.2e}")
    report(name, rep.passed, detail)


def test_ac5a_eps_rate(bench):
    grid, bundle, poly, init = bench
    base = coupled(tau=0.1, dt=5e-4, T=0.25)
    plan = SweepPlan(mode="eps", values=SWEEP_VALUES, base_params=base, init=init,
                     bundle=bundle, spec=poly)
    _sweep_report("AC-5a eps-rate (theory 1/4)", sweep(plan))


def test_ac5b_tau_rate(bench):
    grid, bundle, poly, init = bench
    base = coupled(eps=0.05, dt=5e-4, T=0.25)
    plan = SweepPlan(mode="tau", values=SWEEP_VALUES, base_params=base, init=init,
                     bundle=bundle, spec=poly)
    _sweep_report("AC-5b tau-rate (theory 1/2)", sweep(plan))


def test_ac5c_joint_rate(bench):
    grid, bundle, poly, init = bench
    base = coupled(dt=5e-4, T=0.25)
    plan = SweepPlan(mode="joint", values=SWEEP_VALUES, base_params=base, init=init,
                     bundle=bundle, spec=poly)
    # eps_k = tau_k^2 makes eps^(1/4) + tau^(1/2) = 2 tau^(1/2)
    _sweep_report("AC-5c joint rate (theory 1/2 vs tau)", sweep(plan))


def test_ac6_lyapunov_decay(bench):
    grid, bundle, poly, _ = bench
    x = grid.axis_coordinates(0)
    verdicts = []
    for spec in (poly, logarithmic_potential(0.3, 0.6)):
        init = InitialData(
            Field(grid, 0.5 * np.cos(np.pi * x)),
            Field.constant(grid, 0.0),
            Field(grid, 0.5 + 0.3 * np.cos(2 * np.pi * x)),
        )
        params = ModelParams(eps=0.05, tau=0.1, dt=1e-3, T=0.2, lam=1e-3)  # source-free
        traj = run(init, params, bundle, spec)
        assert len(traj.records) == 201
        verdicts.append(lyapunov_decay(traj.records))
    worst_rel = max(measured for _, measured in verdicts)
    report("AC-6 Lyapunov decay", all(passed for passed, _ in verdicts),
           f"max per-step increment / |L(0)| = {worst_rel:.2e} <= {LYAPUNOV_TOL:g} over 200 "
           "steps, both potentials")


def _oracle_gap(cells, modes, dt):
    grid = GridSpec(1, (1.0,), (cells,))
    bundle = build(KernelSpec("gaussian", width=3.0, normalization=2.05), grid)
    poly = polynomial_potential(0.5)
    x = grid.axis_coordinates(0)
    init = InitialData(
        Field(grid, 0.2 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)),
        Field.constant(grid, 0.0),
        Field(grid, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=dt, T=0.5, lam=1e-3)
    traj = run(init, params, bundle, poly, record_diagnostics=False)
    return compare(traj, bundle, poly, modes)[2]


def test_ac7_oracle_equivalence():
    rel = _oracle_gap(cells=256, modes=32, dt=2.5e-4)
    rel_fine = _oracle_gap(cells=512, modes=64, dt=1.25e-4)
    ok = rel <= ORACLE_GAP_TOL and rel_fine < rel
    report("AC-7 oracle equivalence", ok,
           f"relative L2(0,T;H) gap {rel:.3e} <= {ORACLE_GAP_TOL:g}, "
           f"refined gap {rel_fine:.3e} shrinks")


def test_ac8_convolution_exactness():
    rng = np.random.default_rng(1)
    worst_fast = 0.0
    for dim, cells in ((1, (16,)), (1, (32,)), (1, (64,)), (2, (16, 16)), (2, (32, 32))):
        grid = GridSpec(dim, (1.0,) * dim, cells)
        bundle = build(KernelSpec("gaussian", width=0.25, normalization=2.0), grid)
        v = Field(grid, rng.standard_normal(grid.size))
        gap = np.max(np.abs(convolve(bundle, v).values - convolve_direct(bundle, v).values))
        worst_fast = max(worst_fast, float(gap))

    # domain restriction against a literal double sum
    grid = GridSpec(1, (1.0,), (32,))
    spec = KernelSpec("gaussian", width=0.3, normalization=1.5)
    bundle = build(spec, grid)
    v = rng.standard_normal(32)
    x = grid.axis_coordinates(0)
    brute = np.array([
        np.sum(spec.profile(np.abs(x[i] - x)) * v) * grid.cell_volume for i in range(32)
    ])
    gap_brute = float(np.max(np.abs(convolve(bundle, Field(grid, v)).values - brute)))
    ok = worst_fast <= 1e-12 and gap_brute <= 1e-12
    report("AC-8 convolution exactness", ok,
           f"fast vs direct {worst_fast:.2e}, vs brute double sum {gap_brute:.2e}")


def test_ac9_yosida_correctness():
    rng = np.random.default_rng(2)
    families = [
        ("polynomial", polynomial_potential(0.5), 10.0),
        ("logarithmic", logarithmic_potential(0.3, 0.6), None),
        ("double-obstacle", double_obstacle_potential(0.25), 5.0),
    ]
    worst_residual = 0.0
    lipschitz_ok = True
    moreau_ok = True
    for name, spec, box in families:
        for lam in (1.0, 0.1, 0.01):
            hi = box if box is not None else min(2.0, 1.0 + 12.0 * lam * spec.params["theta"] / 2.0)
            r = rng.uniform(-hi, hi, 1000)
            s = rng.uniform(-hi, hi, 1000)
            yr, ys = yosida(spec, lam, r), yosida(spec, lam, s)
            lipschitz_ok = lipschitz_ok and bool(
                np.all(np.abs(yr - ys) <= np.abs(r - s) / lam * (1 + 1e-9) + 1e-12)
            )
            if not spec.is_obstacle:
                res = resolvent(spec, lam, r)
                residual = np.max(np.abs(res + lam * np.asarray(spec.f1_prime(res)) - r)
                                  / (1.0 + np.abs(r)))
                worst_residual = max(worst_residual, float(residual))
            else:
                res = resolvent(spec, lam, r)
                worst_residual = max(worst_residual, float(np.max(
                    np.abs(res - np.clip(r, -1.0, 1.0)))))
        for rr in np.linspace(-0.95, 0.95, 5) if spec.has_barrier else np.linspace(-2, 2, 5):
            m = moreau(spec, 0.05, float(rr))
            moreau_ok = moreau_ok and m <= float(np.asarray(spec.f1(float(rr)))) + 1e-9
    ok = worst_residual <= 1e-12 and lipschitz_ok and moreau_ok
    report("AC-9 Yosida correctness", ok,
           f"resolvent residual {worst_residual:.2e} <= 1e-12, "
           f"1/lam-Lipschitz on 1000 pairs x 3 families, moreau <= F1")
