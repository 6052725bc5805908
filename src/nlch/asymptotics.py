"""Relaxation-limit sweeps and the continuous-dependence probe.

A sweep runs the solver for a decreasing sequence of relaxation values,
compares each run against the corresponding limit system (the reference,
integrated with the parameter set to zero on the same grid and step),
and fits a log-log rate against the theoretical one (1/4 in eps, 1/2 in
tau). Members start from data smoothed by the elliptic recipes and the
reference from the raw data, so a member's total is its relaxation error
plus the t = 0 data difference that the smoothing introduces.
"""

import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .audit import derive_constants  # noqa: F401  a traced call site
from .diagnostics import RowDistances, TrajectoryDistance, check_alignment
from .diagnostics import distance  # noqa: F401  a traced call site
from .errors import AssumptionError, ConfigError, FitError, StepError
from .grid import Field, norm_h, norm_v, write_table
from .grid import norm_vstar  # noqa: F401  a traced call site
from .kernel import KernelBundle
from .model import InitialData, ModelParams, admit_run, make_smoothed_ic, run, run_rows
from .potential import PotentialSpec, f_eval


def _f_prime_norm(spec: PotentialSpec, phi: Field) -> float:
    # only reached for the polynomial well, which the eps = 0 limit admits
    vals = np.asarray(spec.f1_prime(phi.values)) + np.asarray(spec.f2_prime(phi.values))
    return norm_h(Field(phi.grid, vals, check=False))


def _f_mass(spec: PotentialSpec, phi: Field) -> float:
    vals = f_eval(spec, phi.values)
    return float(np.sum(vals)) * phi.grid.cell_volume


def _eps_monitors(p: ModelParams, spec: PotentialSpec, init: InitialData) -> dict:
    e = p.eps
    return {
        "eps^1/2 |mu0|_H + |F(phi0)|_L1": (
            math.sqrt(e) * norm_h(init.mu0) + _f_mass(spec, init.phi0)
        ),
        "eps^1/4 (|mu0|_V + |sigma0|_V + |F'(phi0)|_H)": e ** 0.25 * (
            norm_v(init.mu0) + norm_v(init.sigma0) + _f_prime_norm(spec, init.phi0)
        ),
    }


def _tau_monitors(p: ModelParams, spec: PotentialSpec, init: InitialData) -> dict:
    return {
        "tau^1/2 |phi0|_V + |F(phi0)|_L1": (
            math.sqrt(p.tau) * norm_v(init.phi0) + _f_mass(spec, init.phi0)
        ),
    }


def _joint_monitors(p: ModelParams, spec: PotentialSpec, init: InitialData) -> dict:
    e, tau = p.eps, p.tau
    return {
        "tau^1/2 |phi0|_V + eps^1/2 |mu0|_H + |F(phi0)|_L1": (
            math.sqrt(tau) * norm_v(init.phi0)
            + math.sqrt(e) * norm_h(init.mu0)
            + _f_mass(spec, init.phi0)
        ),
        "eps^1/4/tau^1/2 (|mu0|_H + |F'(phi0)|_H) + eps^1/4 (|mu0|_V + |sigma0|_V)": (
            e ** 0.25 / math.sqrt(tau) * (norm_h(init.mu0) + _f_prime_norm(spec, init.phi0))
            + e ** 0.25 * (norm_v(init.mu0) + norm_v(init.sigma0))
        ),
    }


class Limit(NamedTuple):
    """One relaxation limit of the paper and the sweep that measures it.

    ``zeroed`` names the parameters the limit system sets to zero;
    ``member`` gives a member's parameter values at a swept value v, and
    ``smoothing`` the scale of the elliptic smoothing of its initial data
    (mu0 only when ``smooth_mu0``); a relaxation parameter the limit does
    not zero is held fixed and must stay positive. ``monitors`` returns
    the boundedness monitors of a member's data, ``weights`` selects the
    norms of the error estimate, ``theory_slope`` is its rate.
    """

    zeroed: tuple[str, ...]
    member: Callable[[float], dict]
    smoothing: Callable[[float], float]
    smooth_mu0: bool
    monitors: Callable[[ModelParams, PotentialSpec, InitialData], dict]
    weights: dict
    theory_slope: float


# eps -> 0 at fixed tau, tau -> 0 at fixed eps, and both along eps = tau^2
LIMITS = {
    "eps": Limit(
        zeroed=("eps",), member=lambda v: {"eps": v}, smoothing=math.sqrt,
        smooth_mu0=False, monitors=_eps_monitors,
        weights={"linf_h_phi": 1.0, "l2_v_mu": 1.0, "linf_h_sigma": 1.0, "l2_v_sigma": 1.0},
        theory_slope=0.25,
    ),
    "tau": Limit(
        zeroed=("tau",), member=lambda v: {"tau": v}, smoothing=lambda v: v,
        smooth_mu0=True, monitors=_tau_monitors,
        weights={"linf_vstar_combo": 1.0, "l2_h_phi": 1.0, "l2_h_mu": 1.0,
                 "linf_h_sigma": 1.0, "l2_v_sigma": 1.0},
        theory_slope=0.5,
    ),
    "joint": Limit(
        zeroed=("eps", "tau"), member=lambda v: {"tau": v, "eps": v * v},
        smoothing=lambda v: v, smooth_mu0=False, monitors=_joint_monitors,
        weights={"linf_vstar_phi": 1.0, "l2_h_phi": 1.0, "linf_h_sigma": 1.0,
                 "l2_v_sigma": 1.0},
        theory_slope=0.5,
    ),
}


def sweep_values(values) -> tuple[float, ...]:
    """The swept values as floats; a ConfigError unless they are non-empty,
    each at least 1e-8, and strictly decreasing."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ConfigError("sweep needs at least one value")
    if any(v < 1e-8 for v in vals):
        raise ConfigError("sweep values must be >= 1e-8")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("sweep values must be strictly decreasing")
    return vals


class SweepPlan:
    """One relaxation-limit experiment, admitted on construction.

    mode names an entry of LIMITS. The values sequence lists the swept
    parameter (eps for mode 'eps', tau otherwise), strictly decreasing
    and at least 1e-8; it is stored as a tuple of floats. Construction
    raises AssumptionError unless the relaxation parameter the limit
    holds fixed is > 0, and the limit system and every member, with its
    boundedness monitors, pass the gate table; ``members`` holds each
    member's (value, params, smoothed initial data).
    """

    __slots__ = ("mode", "values", "base_params", "init", "bundle", "spec", "members")

    def __init__(self, mode: str, values, base_params: ModelParams, init: InitialData,
                 bundle: KernelBundle, spec: PotentialSpec, m0_cap: float = 100.0):
        if mode not in LIMITS:
            raise ConfigError(f"sweep mode must be one of {', '.join(LIMITS)}; got {mode!r}")
        self.mode, self.values = mode, sweep_values(values)
        self.base_params, self.init, self.bundle, self.spec = base_params, init, bundle, spec
        lim, self.members = self.limit, []
        for fixed in ("eps", "tau"):
            value = getattr(base_params, fixed)
            if fixed not in lim.zeroed and not value > 0:
                raise AssumptionError(f"{fixed} > 0", f"{mode} sweep needs fixed {fixed} > 0",
                                      value=value)
        admit_run(init, self.limit_params(), bundle, spec)
        for value in self.values:
            s = lim.smoothing(value)
            member_init = InitialData(
                phi0=make_smoothed_ic(init.phi0, s),
                mu0=make_smoothed_ic(init.mu0, s) if lim.smooth_mu0 else init.mu0,
                sigma0=make_smoothed_ic(init.sigma0, s),
            )
            params = base_params.with_params(**lim.member(value))
            for name, q in lim.monitors(params, spec, member_init).items():
                if not q <= m0_cap:
                    raise AssumptionError("init-boundedness", f"monitored quantity {name} = "
                                          f"{q:.6g} exceeds M0 = {m0_cap}", value=q)
            admit_run(member_init, params, bundle, spec)
            self.members.append((value, params, member_init))

    @property
    def limit(self) -> Limit:
        return LIMITS[self.mode]

    def limit_params(self) -> ModelParams:
        return self.base_params.with_params(**dict.fromkeys(self.limit.zeroed, 0.0))


# a sweep's fitted slope passes down to this far below the theoretical one
SLOPE_MARGIN = 0.05
# the dt-refinement floor runs the reference at dt / FLOOR_REFINEMENT, storing
# every FLOOR_REFINEMENT-th state so its snapshots line up with the members'
FLOOR_REFINEMENT = 2
# a member whose error is within this factor of the dt-refinement floor is left out of the fit
FLOOR_FACTOR = 3.0
# the errors of a monotone sweep may rise once, by at most this factor
MONOTONE_SLACK = 1.05


class ErrorReport(NamedTuple):
    """Per-sweep distances, the fitted convergence rate and the verdict."""

    mode: str
    parameter_values: list[float]
    distances: list[TrajectoryDistance]
    totals: list[float]
    theoretical_slope: float
    floor: float
    slope: float | None = None
    intercept: float | None = None
    fit_residual: float | None = None
    used_in_fit: Sequence[bool] = ()
    monotone_ok: bool = True
    incomplete: bool = False
    notes: Sequence[str] = ()

    @property
    def rate_ok(self) -> bool:
        """A fitted slope of at least theoretical_slope - SLOPE_MARGIN."""
        return self.slope is not None and self.slope >= self.theoretical_slope - SLOPE_MARGIN

    @property
    def passed(self) -> bool:
        """The sweep verdict: complete, monotone and rate_ok."""
        return not self.incomplete and self.monotone_ok and self.rate_ok


def fit_rate(values, errors) -> tuple[float, float, float]:
    """Least-squares slope of log(error) against log(value).

    The line is the closed form from centered sums: slope =
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2 and intercept =
    mean y - slope mean x. Zero errors are excluded with a warning;
    fewer than 3 usable points, or usable values that are all equal,
    raise FitError. Returns (slope, intercept, RMS residual).
    """
    vals = np.asarray(values, dtype=float)
    errs = np.asarray(errors, dtype=float)
    usable = errs > 0
    if np.any(~usable):
        warnings.warn("fit_rate: excluding nonpositive errors", stacklevel=2)
    if int(usable.sum()) < 3:
        raise FitError(f"rate fit needs >= 3 positive points, got {int(usable.sum())}")
    x = np.log(vals[usable])
    y = np.log(errs[usable])
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    spread = np.dot(dx, dx)
    if not spread > 0.0:
        raise FitError("rate fit needs at least 2 distinct values")
    slope = float(np.dot(dx, y - y_mean) / spread)
    intercept = float(y_mean - slope * x_mean)
    resid = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    return slope, intercept, resid


def sweep(plan: SweepPlan) -> ErrorReport:
    """Run the admitted sweep and fit the observed convergence rate.

    The limit reference and the members step in lockstep, and each member's
    distance to the reference is taken snapshot by snapshot, so no
    member trajectory is kept. A member whose run fails is left out
    with a note naming it, the other members still run, and the report
    is flagged incomplete.
    """
    weights = plan.limit.weights

    # every run below was admitted with the plan, except the dt-refinement floor
    ref_params = plan.limit_params()
    half = ref_params.with_params(dt=ref_params.dt / FLOOR_REFINEMENT)
    ref_half = run(plan.init, half, plan.bundle, plan.spec, snapshot_stride=FLOOR_REFINEMENT,
                   record_diagnostics=False)
    params = [ref_params] + [p for _, p, _ in plan.members]
    floor_row = len(params)
    tracker = RowDistances(plan.bundle.grid, set(weights), [p.eps for p in params + [half]])

    def observe(t, runs, *rows):
        # the stored floor snapshot joins the lockstep rows as one more row;
        # a misaligned floor fails check_alignment once the run is over
        k = len(tracker.times)
        if runs[0] == 0 and k < len(ref_half.times):
            stored = (ref_half.phis[k], ref_half.mus[k], ref_half.sigmas[k])
            rows = [np.concatenate([r, f.values[None]]) for r, f in zip(rows, stored)]
            runs = runs + [floor_row]
        tracker(t, runs, *rows)

    results = run_rows([plan.init] + [init for _, _, init in plan.members], params, plan.bundle,
                       plan.spec, validate=False, record_diagnostics=False, observe=observe)
    if isinstance(results[0], StepError):
        raise results[0]
    check_alignment(tracker.times, ref_half.times, min(results[0].params.dt, ref_half.params.dt))
    floor = tracker.distance(floor_row).total(weights)

    values, distances, notes = [], [], []
    for run_index, (value, _, _) in enumerate(plan.members, start=1):
        err = results[run_index]
        if isinstance(err, StepError):
            notes.append(f"member {plan.mode} = {value:g} failed at step {err.step}: {err}")
            continue
        values.append(value)
        distances.append(tracker.distance(run_index))
    incomplete = len(values) < len(plan.members)
    totals = [d.total(weights) for d in distances]
    used_in_fit = [not tot <= FLOOR_FACTOR * floor for tot in totals]
    notes += [f"value {v:.3g} is within {FLOOR_FACTOR:g}x of the dt-refinement floor "
              f"{floor:.3e}; excluded from the fit"
              for v, use in zip(values, used_in_fit) if not use]

    # Non-increasing along the decreasing parameter sequence, tolerating
    # one inversion of at most MONOTONE_SLACK (discretization floor noise).
    inversions = 0
    for a, b in zip(totals, totals[1:]):
        if b > a:
            inversions += 1 if b <= MONOTONE_SLACK * a else 2

    fit = (None, None, None)
    try:
        fit = fit_rate([v for v, use in zip(values, used_in_fit) if use],
                       [t for t, use in zip(totals, used_in_fit) if use])
    except FitError as err:
        incomplete = True
        notes.append(str(err))
    return ErrorReport(plan.mode, values, distances, totals, plan.limit.theory_slope, floor,
                       *fit, used_in_fit, inversions <= 1, incomplete, notes)


def write_rates_csv(path, report: ErrorReport):
    rows = [(v, *d, tot, use) for v, d, tot, use in zip(
        report.parameter_values, report.distances, report.totals, report.used_in_fit)]
    fit = [] if report.slope is None else [
        ("fitted_slope", report.slope), ("intercept", report.intercept),
        ("fit_residual", report.fit_residual)]
    footer = [("mode", report.mode), ("theoretical_slope", report.theoretical_slope), *fit,
              ("dt_floor", report.floor), ("monotone_ok", report.monotone_ok),
              ("incomplete", report.incomplete)]
    write_table(path, ["parameter", *TrajectoryDistance._fields, "total", "used_in_fit"], rows,
                footer)


class StabilityRow(NamedTuple):
    delta: float
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.nan


class StabilityPlan:
    """The continuous-dependence probe at one parameter set, admitted on construction.

    Perturbs all three initial fields by delta times a fixed smooth bump
    for every nonzero delta of ``deltas``. Construction raises
    AssumptionError unless eta = 0, which the stability estimate needs,
    and the base run and every perturbed run pass the gate table.
    """

    __slots__ = ("params", "bundle", "spec", "deltas", "inits")

    def __init__(self, init: InitialData, params: ModelParams, bundle: KernelBundle,
                 spec: PotentialSpec, deltas):
        if params.eta != 0.0:
            raise AssumptionError("eta = 0", "the stability estimate needs eta = 0",
                                  value=params.eta)
        grid = bundle.grid
        bump = np.cos(np.pi * grid.meshgrid()[0] / grid.extent[0])
        self.deltas = [float(delta) for delta in deltas if delta != 0.0]
        self.inits = [init] + [InitialData(*(Field(grid, f.values + delta * bump) for f in init))
                               for delta in self.deltas]
        for row in self.inits:
            admit_run(row, params, bundle, spec)
        self.params, self.bundle, self.spec = params, bundle, spec


def stability_probe(plan: StabilityPlan) -> list[StabilityRow]:
    """Continuous-dependence ratios of the plan's perturbed runs.

    Runs the base and the perturbed trajectories and reports the ratio
    of the stability estimate's left side to its right side for every
    nonzero delta. The right side, ||eps dmu0 + dphi0||_* + sqrt(tau)
    ||dphi0||_H + ||dsig0||_H, is read from the first snapshot's norms.
    """
    params = plan.params
    # left-hand side of the continuous-dependence estimate
    weights = {"linf_vstar_combo": 1.0, "l2_h_mu": 1.0, "linf_h_phi": math.sqrt(params.tau),
               "l2_h_phi": 1.0, "linf_h_sigma": 1.0, "l2_v_sigma": 1.0}

    # the base run and the perturbed runs step in lockstep, and only their
    # distances to the base run are kept
    tracker = RowDistances(plan.bundle.grid, set(weights), [params.eps] * len(plan.inits))
    results = run_rows(plan.inits, [params] * len(plan.inits), plan.bundle, plan.spec,
                       validate=False, record_diagnostics=False, observe=tracker)
    for result in results:
        if isinstance(result, StepError):
            raise result
    rows = []
    for run_index, delta in enumerate(plan.deltas, start=1):
        d0 = tracker.first(run_index)
        rhs = (d0["linf_vstar_combo"] + math.sqrt(params.tau) * d0["linf_h_phi"]
               + d0["linf_h_sigma"])
        rows.append(StabilityRow(delta, tracker.distance(run_index).total(weights), rhs))
    return rows


# the per-delta stability ratios of one tau agree within this factor
RATIO_FACTOR = 3.0
# the mean stability ratios of the probed taus agree within this factor
TAU_DRIFT_FACTOR = 2.0


def ratios_consistent(rows: list[StabilityRow]) -> bool:
    """True when all pairwise ratios of the per-delta ratios lie within RATIO_FACTOR."""
    ratios = [r.ratio for r in rows if math.isfinite(r.ratio)]
    return len(ratios) < 2 or max(ratios) <= RATIO_FACTOR * min(ratios)


def tau_drift_ok(probes: list[list[StabilityRow]]) -> bool:
    """True when the probes' mean ratios, one probe per tau, lie within TAU_DRIFT_FACTOR."""
    means = [np.mean([r.ratio for r in rows]) for rows in probes]
    return len(means) < 2 or max(means) <= TAU_DRIFT_FACTOR * min(means)


def stability_passed(probes: list[list[StabilityRow]]) -> bool:
    """The stability verdict: every probe's ratios_consistent, and tau_drift_ok."""
    return all(ratios_consistent(rows) for rows in probes) and tau_drift_ok(probes)
