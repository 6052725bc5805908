import math
from pathlib import Path

import numpy as np
import pytest

import nlch.asymptotics
import nlch.model
from nlch.asymptotics import (
    LIMITS,
    SLOPE_MARGIN,
    TAU_DRIFT_FACTOR,
    ErrorReport,
    StabilityPlan,
    StabilityRow,
    SweepPlan,
    fit_rate,
    ratios_consistent,
    stability_passed,
    stability_probe,
    sweep,
    tau_drift_ok,
    write_rates_csv,
)
from nlch.config import build_problem, load_config
from nlch.diagnostics import distance
from nlch.errors import AssumptionError, ConfigError, FitError, StepError
from nlch.grid import Field, norm_h, norm_vstar
from nlch.model import InitialData, ModelParams, run, run_rows
from nlch.potential import logarithmic_potential

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_problem(grid64, bundle64):
    x = grid64.axis_coordinates(0)
    init = InitialData(
        Field(grid64, 0.2 * np.cos(np.pi * x)),
        Field(grid64, 0.1 * np.cos(np.pi * x)),
        Field(grid64, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    base = ModelParams(eps=0.05, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2, eta=0.0,
                       sigma_s=0.8, dt=1e-3, T=0.05, lam=1e-3)
    return init, base


def test_fit_rate_exact_powers():
    v = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    slope, intercept, resid = fit_rate(v, 2.0 * v)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(2.0), abs=1e-12)
    assert resid <= 1e-13

    slope, _, _ = fit_rate(v, 0.7 * v**0.25)
    assert slope == pytest.approx(0.25, abs=1e-12)


def test_fit_rate_noisy_recovery():
    # log-linear model with gaussian noise: the slope estimate must land
    # within 3 standard errors of the truth
    rng = np.random.default_rng(42)
    v = np.logspace(-4, -1, 12)
    sigma = 0.05
    noise = rng.normal(0.0, sigma, v.size)
    errs = 0.5 * v**0.3 * np.exp(noise)
    slope, _, _ = fit_rate(v, errs)
    x = np.log(v)
    se = sigma / np.sqrt(np.sum((x - x.mean()) ** 2))
    assert abs(slope - 0.3) <= 3.0 * se


def test_error_report_takes_appends_and_flag_updates():
    report = ErrorReport(mode="tau", parameter_values=[], distances=[], totals=[],
                         theoretical_slope=0.5, floor=1e-6)
    assert (report.slope, report.used_in_fit, report.notes) == (None, (), ())
    assert (report.monotone_ok, report.incomplete) == (True, False)
    report.parameter_values.append(1e-2)
    report.totals.append(3e-3)
    updated = report._replace(used_in_fit=[True], notes=["note"], slope=0.5, intercept=-1.0,
                              fit_residual=0.0, monotone_ok=False, incomplete=True)
    assert (updated.parameter_values, updated.totals, updated.used_in_fit, updated.notes) == (
        [1e-2], [3e-3], [True], ["note"])
    assert (updated.slope, updated.monotone_ok, updated.incomplete) == (0.5, False, True)
    # the defaults are immutable, so no two reports share a list
    assert (report.used_in_fit, report.notes, report.slope) == ((), (), None)
    other = ErrorReport("eps", [], [], [], 0.25, 0.0)
    assert (other.used_in_fit, other.notes) == ((), ())


@pytest.mark.parametrize("theory", [0.25, 0.5])
def test_error_report_verdict_at_the_slope_margin(theory):
    def report(**kw):
        return ErrorReport("tau", [], [], [], theory, 0.0, **kw)

    target = theory - SLOPE_MARGIN
    assert report(slope=target).passed
    assert report(slope=target).rate_ok
    below = np.nextafter(target, -np.inf)
    assert not report(slope=below).rate_ok and not report(slope=below).passed
    assert not report(slope=target, incomplete=True).passed
    assert not report(slope=target, monotone_ok=False).passed
    assert not report().rate_ok and not report().passed


def test_stability_verdict_at_the_drift_factor():
    def probe(ratio):
        return [StabilityRow(1e-2, ratio, 1.0), StabilityRow(1e-3, ratio, 1.0)]

    at = [probe(1.0), probe(TAU_DRIFT_FACTOR)]
    assert tau_drift_ok(at) and stability_passed(at)
    above = [probe(1.0), probe(np.nextafter(TAU_DRIFT_FACTOR, np.inf))]
    assert not tau_drift_ok(above) and not stability_passed(above)
    # one tau alone has no drift; a probe whose delta-ratios disagree fails the verdict
    assert stability_passed([probe(1.0)])
    inconsistent = [StabilityRow(1e-2, 1.0, 1.0), StabilityRow(1e-3, 4.0, 1.0)]
    assert tau_drift_ok([inconsistent]) and not stability_passed([inconsistent])


@pytest.mark.parametrize("n", range(3, 9))
def test_fit_rate_matches_lstsq(n):
    # the centered-sums line against numpy's least-squares solve of the design
    rng = np.random.default_rng(n)
    for _ in range(20):
        v = np.sort(10.0 ** rng.uniform(-4.0, -1.0, n))
        errs = 10.0 ** rng.uniform(-6.0, 0.0, n)
        x, y = np.log(v), np.log(errs)
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = np.sqrt(np.mean((design @ coef - y) ** 2))
        got = fit_rate(v, errs)
        for g, w in zip(got, (coef[0], coef[1], resid)):
            assert abs(g - w) <= 1e-12 * abs(w)


def test_fit_rate_guards():
    with pytest.raises(FitError):
        fit_rate([1e-1, 1e-2], [1.0, 0.1])
    with pytest.warns(UserWarning):
        with pytest.raises(FitError):
            fit_rate([1e-1, 1e-2, 1e-3], [1.0, 0.0, 0.0])
    with pytest.raises(FitError, match="distinct"):
        fit_rate([1e-2, 1e-2, 1e-2], [1.0, 0.5, 0.2])
    # a nonpositive error is dropped with the warning, and the rest are fitted
    v = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    with pytest.warns(UserWarning, match="excluding nonpositive errors"):
        slope, intercept, resid = fit_rate(v, [0.5, -1.0, 0.5e-2, 0.5e-3])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(5.0), abs=1e-12)
    assert resid <= 1e-13


def test_plan_validation(grid64, bundle64, poly):
    init, base = small_problem(grid64, bundle64)
    with pytest.raises(ConfigError):
        SweepPlan(mode="eps", values=(1e-2, 1e-1), base_params=base, init=init,
                  bundle=bundle64, spec=poly)
    with pytest.raises(ConfigError, match=r"must be >= 1e-8"):
        SweepPlan(mode="eps", values=(1e-2, 1e-9), base_params=base, init=init,
                  bundle=bundle64, spec=poly)
    with pytest.raises(ConfigError, match="sweep needs at least one value"):
        SweepPlan(mode="eps", values=(), base_params=base, init=init,
                  bundle=bundle64, spec=poly)
    with pytest.raises(ConfigError):
        SweepPlan(mode="bogus", values=(1e-2,), base_params=base, init=init,
                  bundle=bundle64, spec=poly)

    # construction admits the plan
    with pytest.raises(AssumptionError, match="eta"):
        SweepPlan(mode="eps", values=(1e-2, 3e-3, 1e-3), base_params=base.with_params(eta=0.1),
                  init=init, bundle=bundle64, spec=poly)

    logpot = logarithmic_potential(0.3, 0.6)
    with pytest.raises(AssumptionError, match="pol_growth"):
        SweepPlan(mode="eps", values=(1e-2, 3e-3, 1e-3), base_params=base,
                  init=init, bundle=bundle64, spec=logpot)

    with pytest.raises(AssumptionError, match="ip_chi"):
        SweepPlan(mode="tau", values=(1e-2, 3e-3, 1e-3), base_params=base.with_params(chi=10.0),
                  init=init, bundle=bundle64, spec=poly)

    with pytest.raises(AssumptionError, match="eps > 0"):
        SweepPlan(mode="tau", values=(1e-2, 3e-3, 1e-3), base_params=base.with_params(eps=0.0),
                  init=init, bundle=bundle64, spec=poly)


def test_identical_systems_have_zero_distance(grid64, bundle64, poly):
    # the degenerate member (parameter already at its limit value) is the
    # reference itself: every distance component vanishes
    init, base = small_problem(grid64, bundle64)
    limit = base.with_params(eps=0.0)
    t1 = run(init, limit, bundle64, poly, record_diagnostics=False)
    t2 = run(init, limit, bundle64, poly, record_diagnostics=False)
    d = distance(t1, t2)
    assert all(v == 0.0 for v in d._asdict().values())


def test_small_eps_sweep(grid64, bundle64, poly, tmp_path):
    init, base = small_problem(grid64, bundle64)
    plan = SweepPlan(mode="eps", values=(3e-2, 1e-2, 3e-3, 1e-3), base_params=base,
                     init=init, bundle=bundle64, spec=poly)
    rep = sweep(plan)
    assert not rep.incomplete
    assert rep.monotone_ok
    assert rep.slope is not None and rep.slope > 0.15
    assert rep.theoretical_slope == 0.25
    assert len(rep.distances) == 4
    write_rates_csv(tmp_path / "rates.csv", rep)
    text = (tmp_path / "rates.csv").read_text()
    assert "fitted_slope" in text and "parameter," in text


def test_sweep_continues_after_a_member_fails(grid64, bundle64, poly, monkeypatch):
    original = nlch.model._step_arrays
    steps = []

    def failing(*args):
        # args[5] holds the rows' _Lockstep; the eps = 1e-2 row fails its step
        # 21, in the batch and in its one-row retry
        rows = args[5].params
        if any(p.eps == 1e-2 for p in rows):
            if len(rows) > 1:
                steps.append(1)
            if len(steps) == 21:
                raise StepError("injected failure", phase="Newton")
        return original(*args)

    monkeypatch.setattr(nlch.model, "_step_arrays", failing)
    init, base = small_problem(grid64, bundle64)
    plan = SweepPlan(mode="eps", values=(3e-2, 1e-2, 3e-3, 1e-3), base_params=base,
                     init=init, bundle=bundle64, spec=poly)
    rep = sweep(plan)
    assert rep.incomplete
    assert rep.parameter_values == [3e-2, 3e-3, 1e-3]
    assert len(rep.distances) == len(rep.totals) == 3
    assert rep.slope is not None and rep.slope > 0.15
    assert any("eps = 0.01 failed at step 21: injected failure" in n for n in rep.notes)


def test_small_joint_sweep(grid64, bundle64, poly):
    init, base = small_problem(grid64, bundle64)
    plan = SweepPlan(mode="joint", values=(1e-1, 3e-2, 1e-2), base_params=base,
                     init=init, bundle=bundle64, spec=poly)
    rep = sweep(plan)
    assert not rep.incomplete
    # coupling eps = tau^2 satisfies the joint-scaling bound with ratio 1
    assert rep.slope is not None and rep.slope > 0.3


@pytest.fixture
def run_calls(monkeypatch):
    calls = []
    original = nlch.asymptotics.run

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nlch.asymptotics, "run", counted)
    return calls


def test_monitor_cap_enforced(grid64, bundle64, poly, run_calls):
    init, base = small_problem(grid64, bundle64)
    with pytest.raises(AssumptionError, match="init-boundedness"):
        SweepPlan(mode="eps", values=(1e-2, 3e-3, 1e-3), base_params=base,
                  init=init, bundle=bundle64, spec=poly, m0_cap=1e-9)
    assert run_calls == []  # raised before the reference runs


def test_member_admission_precedes_every_run(grid64, bundle64, poly, run_calls):
    # the limit system is admissible; the first member is above the eps threshold
    init, base = small_problem(grid64, bundle64)
    with pytest.raises(AssumptionError, match="eps < eps0"):
        SweepPlan(mode="eps", values=(0.5, 1e-2, 1e-3), base_params=base,
                  init=init, bundle=bundle64, spec=poly)
    assert run_calls == []


def test_stability_probe(grid64, bundle64, poly):
    init, base = small_problem(grid64, bundle64)
    rows = stability_probe(StabilityPlan(init, base.with_params(T=0.05), bundle64, poly,
                                         deltas=[0.0, 1e-2, 1e-3]))
    assert len(rows) == 2  # delta = 0 skipped
    assert all(r.lhs > 0 and r.rhs > 0 for r in rows)
    assert ratios_consistent(rows)

    with pytest.raises(AssumptionError, match="eta"):
        StabilityPlan(init, base.with_params(eta=0.1), bundle64, poly, deltas=[1e-2])
    # every perturbed run is admitted: sigma0 + 0.5 bump leaves [0, 1] (ip_infty)
    with pytest.raises(AssumptionError, match="ip_infty"):
        StabilityPlan(init, base, bundle64, poly, deltas=[1e-2, 0.5])


def test_ratios_consistent_edges():
    assert ratios_consistent([])
    rows = [StabilityRow(delta=1e-2, lhs=1.0, rhs=1.0),
            StabilityRow(delta=1e-3, lhs=4.0, rhs=1.0)]
    assert not ratios_consistent(rows)


GOLDEN = ["grid.cells=64", "sweep.t=0.01", "sweep.dt=5e-4", "stability.t=0.02"]


def _golden():
    cfg = load_config(str(CONFIGS / "rate-study.cfg"), GOLDEN)
    return cfg, build_problem(cfg)


def _assert_same_snapshots(got, want):
    assert got.times == want.times
    for name in ("phis", "mus", "sigmas"):
        for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("mode", sorted(LIMITS))
def test_lockstep_sweep_rows_equal_their_own_runs(mode):
    # the golden sweep settings: each lockstep row is bitwise its own run,
    # and the sweep's distances and floor are those of the separate runs
    cfg, problem = _golden()
    plan = SweepPlan(mode=mode, values=cfg["sweep.values"],
                     base_params=problem.params.with_params(T=cfg["sweep.t"], dt=cfg["sweep.dt"]),
                     init=problem.init, bundle=problem.bundle, spec=problem.spec)
    params = [plan.limit_params()] + [p for _, p, _ in plan.members]
    inits = [plan.init] + [init for _, _, init in plan.members]
    rows = run_rows(inits, params, plan.bundle, plan.spec, validate=False,
                    record_diagnostics=False)
    alone = [run(init, p, plan.bundle, plan.spec, validate=False, record_diagnostics=False)
             for init, p in zip(inits, params)]
    for got, want in zip(rows, alone, strict=True):
        _assert_same_snapshots(got, want)

    rep = sweep(plan)
    components = set(plan.limit.weights)
    assert rep.parameter_values == list(plan.values)
    for d, traj, p in zip(rep.distances, alone[1:], params[1:], strict=True):
        assert repr(d) == repr(distance(traj, alone[0], eps=p.eps, components=components))
    half = params[0].with_params(dt=params[0].dt / 2.0)
    ref_half = run(plan.init, half, plan.bundle, plan.spec, snapshot_stride=2,
                   record_diagnostics=False)
    floor = distance(alone[0], ref_half, eps=half.eps, components=components)
    assert rep.floor == floor.total(plan.limit.weights)


def test_lockstep_stability_probe_equals_separate_runs():
    cfg, problem = _golden()
    grid = problem.grid
    bump = np.cos(np.pi * grid.meshgrid()[0] / grid.extent[0])
    for tau in cfg["stability.taus"]:
        params = problem.params.with_params(T=cfg["stability.t"], tau=tau)
        rows = stability_probe(StabilityPlan(problem.init, params, problem.bundle,
                                             problem.spec, cfg["stability.deltas"]))
        base = run(problem.init, params, problem.bundle, problem.spec,
                   record_diagnostics=False)
        weights = {"linf_vstar_combo": 1.0, "l2_h_mu": 1.0, "linf_h_phi": np.sqrt(tau),
                   "l2_h_phi": 1.0, "linf_h_sigma": 1.0, "l2_v_sigma": 1.0}
        for row, delta in zip(rows, cfg["stability.deltas"], strict=True):
            init = problem.init
            pert = InitialData(*(Field(grid, f.values + delta * bump)
                                 for f in (init.phi0, init.mu0, init.sigma0)))
            traj = run(pert, params, problem.bundle, problem.spec, record_diagnostics=False)
            d = distance(traj, base, eps=params.eps, components=set(weights))
            assert row.lhs == d.total(weights)
            # the right-hand side: norms of the initial data's difference
            dphi, dmu, dsig = (Field(grid, a.values - b.values, check=False) for a, b in (
                (pert.phi0, init.phi0), (pert.mu0, init.mu0), (pert.sigma0, init.sigma0)))
            combo = Field(grid, params.eps * dmu.values + dphi.values, check=False)
            assert row.rhs == (norm_vstar(combo) + math.sqrt(params.tau) * norm_h(dphi)
                               + norm_h(dsig))
