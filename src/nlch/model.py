"""Time integration of the two-parameter non-local tumor-growth system.

One step advances (phi, mu, sigma) by a first-order IMEX scheme:

  (i)  the phi/mu block solves the coupled relations
         eps (mu+ - mu)/dt + (phi+ - phi)/dt - lap mu+ = (P sigma - A) h(phi)
         mu+ = tau (phi+ - phi)/dt + a phi+ + Y_lam(phi+) + F2'(phi) - J*phi - chi sigma
       by Newton iteration with the diagonal Yosida derivative; diffusion,
       the local non-local coefficient a, and the Yosida term are implicit,
       while the convolution, F2', h, and the couplings are explicit;
  (ii) the nutrient is updated by one linear implicit solve that reads the
       new phi+ through h(phi+) and the transport term eta lap phi+;
  (iii) the recorded selection xi+ is the Yosida value at phi+.

The degenerate regimes eps = 0 and/or tau = 0 use the same Newton system,
whose implicit diagonal tau/dt + a + Y' stays positive as long as the
kernel keeps inf a > 0 (or tau > 0 provides the viscosity).

Runs that differ only in eps and tau step in lockstep as the rows of one
batch (run_rows); every row's arithmetic is that of its run alone, and a
single run (run) is the one-row batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import diagnostics
from .audit import (RUN_GATES, DerivedConstants, GateInput, admit, derive_constants, ip_infty,
                    ip_init)
from .errors import AssumptionError, ConfigError, SolverError, StepError
from .grid import Field, solve_helmholtz, solve_shifted_diffusion, _lap_array
from .kernel import KernelBundle
from .potential import PotentialSpec, f2_prime, yosida_with_derivative

# Newton acceptance tolerance, relative to 1 + ||eps mu + phi + dt g||_H, and iteration cap
NEWTON_TOL = 1e-10
NEWTON_CAP = 50


def h_default(r):
    """Proliferation profile clamp((1+r)/2, 0, 1): bounded, 1/2-Lipschitz."""
    # np.clip without its Python-level wrapper
    return np.minimum(np.maximum((1.0 + np.asarray(r, dtype=float)) / 2.0, 0.0), 1.0)


def h_one(r):
    """Constant proliferation profile."""
    return np.ones_like(np.asarray(r, dtype=float))


def h_tanh(r):
    """Smooth proliferation profile (1 + tanh r)/2."""
    return 0.5 * (1.0 + np.tanh(np.asarray(r, dtype=float)))


H_FAMILIES = {"default": h_default, "one": h_one, "tanh": h_tanh}


@dataclass
class ModelParams:
    """Physical and numerical parameters of one run."""

    eps: float = 0.0
    tau: float = 0.0
    P: float = 0.0
    A: float = 0.0
    B: float = 0.0
    C: float = 0.0
    chi: float = 0.0
    eta: float = 0.0
    sigma_s: float = 0.0
    h: Callable = h_default
    lam: float = 1e-3
    dt: float = 1e-3
    T: float = 1.0

    def __post_init__(self):
        """Reject numerical settings no run can use; the model's hypotheses
        are the rows of the gate table in nlch.audit."""
        for name in ("eps", "tau", "P", "A", "B", "C", "chi", "eta", "sigma_s", "lam", "dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name, rule, ok in (("dt", "> 0", self.dt > 0), ("T", ">= 0", self.T >= 0),
                               ("lam", "> 0", self.lam > 0)):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def lam_eff(self) -> float:
        """Per-step Yosida parameter: the user value capped by dt."""
        return min(self.lam, self.dt)

    def with_params(self, **kw) -> "ModelParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class State:
    """The fields diagnostics.energy and diagnostics.lyapunov read."""

    phi: Field
    mu: Field
    sigma: Field


@dataclass(frozen=True)
class InitialData:
    phi0: Field
    mu0: Field
    sigma0: Field


def validate_params(params: ModelParams, bundle: KernelBundle, spec: PotentialSpec,
                    constants: DerivedConstants | None = None) -> DerivedConstants:
    """Admit a run through the gate table of nlch.audit.

    Raises AssumptionError for the first failing row that reads the
    parameters. Returns the derived constants for reuse.
    """
    if constants is None:
        try:
            constants = derive_constants(bundle, spec)
        except AssumptionError as err:
            constants = err  # the A5 dominance row reports it in table order
    g = GateInput(params, bundle, spec, constants)
    admit(gate(g) for gate in RUN_GATES)
    return constants


def admit_run(init: InitialData, params: ModelParams, bundle: KernelBundle,
              spec: PotentialSpec, constants: DerivedConstants | None = None):
    """Admit the parameters, then the initial data (ip_init, ip_infty)."""
    validate_params(params, bundle, spec, constants)
    admit(gate(GateInput(params, spec=spec, init=init)) for gate in (ip_init, ip_infty))


@dataclass
class StepStats:
    """One row's step: its Newton iterations, final residual and mass defect."""

    newton_iters: int
    residual: float
    mass_defect: float


@dataclass
class StepOutcome:
    """One lockstep step: each row's StepStats, and the StepError of each failed row.

    ``stats`` holds None for a failed row; ``errors`` is keyed by row.
    """

    stats: list
    errors: dict

    @property
    def newton_iters(self) -> int:
        """Newton iterations summed over the rows that completed the step."""
        return sum(s.newton_iters for s in self.stats if s is not None)


def _batch(arrays) -> np.ndarray:
    """A lockstep batch: one run keeps its flat samples, several are stacked as rows.

    Numpy's elementwise calls cost less on flat arrays than on (1, n)
    ones, so one run stays flat; code that reads a row goes through _rows.
    """
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _rows(x: np.ndarray):
    """The rows of a batch: a flat array is its one row."""
    return (x,) if x.ndim == 1 else x


def _column(values):
    """A per-row parameter: one float when the rows share it, else an (M, 1) column."""
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values, dtype=float)[:, None]


class _Lockstep(NamedTuple):
    """The rows of a lockstep batch: their ModelParams and eps and tau columns.

    Built once per set of rows that step together (see _lockstep).
    """

    params: list
    eps: float | np.ndarray
    tau: float | np.ndarray


def _lockstep(params: Sequence[ModelParams]) -> _Lockstep:
    return _Lockstep(list(params), _column([p.eps for p in params]),
                     _column([p.tau for p in params]))


def _row_error(message, history, phase, cause=None) -> StepError:
    err = StepError(message, residual_history=history, phase=phase)
    err.__cause__ = cause
    return err


def _solve_rows(grid, diag, dt, rhs, phase, histories, failed):
    """Every row's shifted diffusion solve in one call, else row by row.

    A batch that fails, or returns a non-finite value, is solved again
    row by row, so that only the rows that fail on their own fail: each
    gets a StepError in ``failed``, keyed by its row and carrying its
    residual history from ``histories``, and a zero solution. A row
    whose own solution is not finite keeps it, for the caller's checks.
    """
    try:
        x = solve_shifted_diffusion(grid, diag, dt, rhs)
        # a row that overflows spreads through the joins of the block system
        if rhs.ndim == 1 or np.isfinite(x).all():
            return x
    except SolverError:
        pass
    x = np.zeros_like(rhs)
    for j, (x_row, diag_row, rhs_row) in enumerate(zip(_rows(x), _rows(diag), _rows(rhs))):
        try:
            x_row[...] = solve_shifted_diffusion(grid, diag_row, dt, rhs_row)
        except SolverError as err:
            failed.setdefault(j, _row_error(f"{phase} linear solve failed: {err}",
                                            histories[j], phase, err))
    return x


def _yosida_rows(spec, lam, phi, histories, failed):
    """yosida_with_derivative of every row in one call, else row by row (as _solve_rows)."""
    try:
        return yosida_with_derivative(spec, lam, phi)
    except SolverError:
        pass
    out = tuple(np.zeros_like(phi) for _ in range(3))
    for j, phi_row in enumerate(_rows(phi)):
        try:
            for arr, row in zip(out, yosida_with_derivative(spec, lam, phi_row)):
                _rows(arr)[j][...] = row
        except SolverError as err:
            failed.setdefault(j, _row_error(f"resolvent failed: {err}", histories[j],
                                            "resolvent", err))
    return out


def _step_arrays(phi, mu, sig, conv_phi, yos, rows: _Lockstep, bundle: KernelBundle,
                 spec: PotentialSpec):
    """One IMEX step of M runs in lockstep, on a batch of one row per run.

    The batch is (M, n) arrays, flat for M = 1 (see _batch). ``rows``
    holds each row's ModelParams and the eps and tau columns; the rows
    share every setting but eps and tau. ``conv_phi`` is J*phi and ``yos`` the (value, derivative,
    resolvent) triple of yosida_with_derivative at phi; the triple of
    the new phi is returned in the same place, ready for the next step.
    Each row iterates its own Newton loop and keeps its place in the
    batch for the whole step: the loop runs on all M rows until each has
    stopped or failed, and only a row still going records a residual,
    updates its best iterate and can fail. The iterates of the other
    rows are computed but never read. A row that fails gets its StepError
    in the returned StepOutcome, and its rows of the returned arrays are
    no state of its run; the other rows complete the step. A failed row's
    iterates may be non-finite, which can send each later block solve of
    the step through the row-by-row fallback and make numpy warn; only a
    step that fails pays this. Every row's arithmetic is that of a step
    of its own: the batched Laplacian, solves and transforms are bitwise
    equal per row, and each residual norm is np.dot on its row.
    """
    p0, eps, tau = rows.params[0], rows.eps, rows.tau
    grid = bundle.grid
    dt = p0.dt
    lam = p0.lam_eff
    a = bundle.a_field.values
    cellvol = grid.cell_volume
    M = len(rows.params)

    h_old = p0.h(phi)
    g = (p0.P * sig - p0.A) * h_old
    w = np.asarray(f2_prime(spec, phi)) - conv_phi - p0.chi * sig

    mass_old = eps * mu + phi
    const1 = mass_old + dt * g
    accept_tol = [NEWTON_TOL * (1.0 + float(np.sqrt(np.dot(c, c) * cellvol)))
                  for c in _rows(const1)]
    histories = [[] for _ in range(M)]
    # each row's best iterate: (residual, phi, mu, y, dy, s) as whole batches, read at the row
    best = [None] * M
    tol_floor = [None] * M
    errors = {}
    going = [True] * M

    diag_lin = tau / dt + a
    p, m, (y, dy, s) = phi, mu, yos
    for it in range(NEWTON_CAP + 1):
        r1 = eps * m + p - dt * _lap_array(m, grid) - const1
        r2 = m - tau * (p - phi) / dt - a * p - y - w
        for i, (q1, q2) in enumerate(zip(_rows(r1), _rows(r2))):
            if not going[i]:
                continue
            history = histories[i]
            res = float(np.sqrt((np.dot(q1, q1) + np.dot(q2, q2)) * cellvol))
            history.append(res)
            if it == 0:
                best[i] = (res, p, m, y, dy, s)
                tol_floor[i] = 1e-14 * (1.0 + res)
            elif res < best[i][0]:
                best[i] = (res, p, m, y, dy, s)
            # stop at the floor, at the cap, or below the acceptance
            # tolerance once no longer contracting: the residual has hit
            # its floating-point floor
            if (res <= tol_floor[i] or it == NEWTON_CAP
                    or (it > 0 and res <= accept_tol[i] and res > 0.25 * history[-2])):
                going[i] = False
        if not any(going):
            break
        diag = diag_lin + dy
        if diag.min() <= 0.0:
            for i, low in enumerate(r.min() for r in _rows(diag)):
                if low <= 0.0 and going[i]:
                    going[i] = False
                    errors[i] = _row_error(
                        f"implicit diagonal lost positivity (min {low:.3e}); "
                        "the configuration lacks coercivity (tau = 0 with inf a <= 0)",
                        histories[i], "Newton")
            if not any(going):
                break
        failed = {}
        rhs = -(r1 + r2 / diag)
        dmu = _solve_rows(grid, eps + 1.0 / diag, dt, rhs, "Newton", histories, failed)
        dphi = (dmu + r2) / diag
        p = p + dphi
        m = m + dmu
        y, dy, s = _yosida_rows(spec, lam, p, histories, failed)
        for i, err in failed.items():
            if going[i]:
                going[i] = False
                errors[i] = err

    # each row that did not fail takes its best iterate
    for i, (res, pick, *_) in enumerate(best):
        if i in errors:
            continue
        history = histories[i]
        # a finite residual has finite phi, mu and Yosida value in every term
        if not math.isfinite(res):
            errors[i] = _row_error(f"Newton residual is not finite ({res})", history, "Newton")
        elif res > accept_tol[i]:
            errors[i] = _row_error(
                f"Newton failed to converge: residual {res:.3e} after {len(history) - 1} "
                "iterations", history, "convergence")
        elif spec.has_barrier:
            sup = float(np.max(np.abs(_rows(pick)[i])))
            if sup >= spec.ell:
                errors[i] = _row_error(
                    f"phi left the barrier interval: ||phi||_inf = {sup:.6g} >= ell = {spec.ell}",
                    history, "barrier")
    if all(b[1] is best[0][1] for b in best):
        phi_new, mu_new, *yos_new = best[0][1:]
    else:
        phi_new, mu_new, *yos_new = (
            np.stack([_rows(b[k])[i] for i, b in enumerate(best)]) for k in range(1, 6))

    source_sig = p0.B * p0.sigma_s
    if p0.eta != 0.0:
        source_sig = source_sig - p0.eta * _lap_array(phi_new, grid)
    rhs_sig = sig + dt * source_sig
    diag_sig = 1.0 + dt * (p0.B + p0.C * p0.h(phi_new))
    sig_new = _solve_rows(grid, diag_sig, dt, rhs_sig, "nutrient", histories, errors)
    if not np.isfinite(sig_new).all():
        for i, row in enumerate(_rows(sig_new)):
            if not np.isfinite(row).all():
                errors.setdefault(i, _row_error("nutrient solve returned non-finite values",
                                                histories[i], "nutrient"))

    stats = [None] * M
    for i, (new_mass, old_mass, source) in enumerate(zip(
            _rows(eps * mu_new + phi_new), _rows(mass_old), _rows(g))):
        if i not in errors:
            mass_defect = abs((new_mass.sum() - old_mass.sum() - dt * source.sum()) * cellvol
                              / grid.measure)
            stats[i] = StepStats(newton_iters=len(histories[i]) - 1, residual=best[i][0],
                                 mass_defect=mass_defect)
    return phi_new, mu_new, sig_new, tuple(yos_new), StepOutcome(stats, errors)


@dataclass
class Trajectory:
    """Recorded run: snapshots at the configured stride plus per-step records."""

    params: ModelParams
    times: list[float] = field(default_factory=list)
    phis: list[Field] = field(default_factory=list)
    mus: list[Field] = field(default_factory=list)
    sigmas: list[Field] = field(default_factory=list)
    records: list = field(default_factory=list)
    complete: bool = True


# the parameters that runs stepped in lockstep share: all but eps and tau
_SHARED = [f.name for f in fields(ModelParams) if f.name not in ("eps", "tau")]


def run_rows(inits: Sequence[InitialData], params: Sequence[ModelParams], bundle: KernelBundle,
             spec: PotentialSpec, snapshot_stride: int = 1, validate: bool = True,
             constants: DerivedConstants | None = None, record_diagnostics: bool = True,
             observe: Callable | None = None) -> list:
    """Integrate several runs in lockstep from t = 0 to T, one batch row each.

    The runs share every parameter but eps and tau. Returns, for each run,
    its Trajectory, or the StepError that stopped it, carrying the partial
    trajectory as .partial and the failed step's index and target time as
    .step and .t; the other runs go on. With ``observe`` the trajectories
    store no snapshots: at every snapshot time, observe(t, runs, phi, mu,
    sig) receives the indices of the runs still going and their (runs, n)
    rows.
    """
    if validate:
        for init, p in zip(inits, params):
            admit_run(init, p, bundle, spec, constants)
    shared = [[getattr(p, name) for name in _SHARED] for p in params]
    if any(other != shared[0] for other in shared[1:]):
        raise ConfigError("lockstep runs must share every parameter but eps and tau")
    p0 = params[0]
    n_steps = 0 if p0.T == 0 else max(1, int(round(p0.T / p0.dt)))
    if p0.T > 0:
        actual = p0.T / n_steps
        if abs(actual - p0.dt) > 1e-9 * p0.dt:
            params = [p.with_params(dt=actual) for p in params]
    dt = params[0].dt
    grid = bundle.grid

    # each state's J*phi and Yosida triple (value, derivative, resolvent)
    # are computed once, shared by its record and the step leaving it
    phi = _batch([init.phi0.values for init in inits])
    mu = _batch([init.mu0.values for init in inits])
    sig = _batch([init.sigma0.values for init in inits])
    yos = yosida_with_derivative(spec, p0.lam_eff, phi)
    conv = bundle.convolve_array(phi)
    trajs = [Trajectory(params=p) for p in params]
    results = list(trajs)
    runs, live = list(range(len(trajs))), _lockstep(params)
    stats = [StepStats(newton_iters=0, residual=0.0, mass_defect=0.0)] * len(runs)

    t = 0.0
    for k in range(n_steps + 1):
        if k > 0:
            phi, mu, sig, yos, outcome = _step_arrays(phi, mu, sig, conv, yos, live, bundle, spec)
            stats = outcome.stats
            if outcome.errors:
                for j, err in outcome.errors.items():
                    traj = trajs[runs[j]]
                    traj.complete = False
                    err.partial = traj
                    err.step, err.t = k, k * dt
                    results[runs[j]] = err
                keep = [j for j in range(len(runs)) if j not in outcome.errors]
                if not keep:
                    break
                phi, mu, sig, *yos = (v[keep] for v in (phi, mu, sig, *yos))
                runs, stats = [runs[j] for j in keep], [stats[j] for j in keep]
                live = _lockstep([params[i] for i in runs])
            t = k * dt
            conv = bundle.convolve_array(phi)
        rows = [_rows(v) for v in (phi, mu, sig)]
        if record_diagnostics:
            conv_rows, prox_rows = _rows(conv), _rows(yos[2])
            for j, i in enumerate(runs):
                trajs[i].records.append(diagnostics.make_record(
                    t, rows[0][j], rows[1][j], rows[2][j], params[i], bundle, spec,
                    mass_defect=stats[j].mass_defect, newton_iters=stats[j].newton_iters,
                    conv_phi=conv_rows[j], prox=prox_rows[j]))
        if k % snapshot_stride == 0 or k == n_steps:
            if observe is not None:
                observe(t, runs, *(v.reshape(len(runs), -1) for v in (phi, mu, sig)))
                continue
            for j, i in enumerate(runs):
                traj = trajs[i]
                traj.times.append(t)
                # _step_arrays fails a step whose residual or nutrient is
                # not finite, so snapshots skip the finiteness scan
                for fields_, row in zip((traj.phis, traj.mus, traj.sigmas), rows):
                    fields_.append(Field(grid, row[j], check=False))
    return results


def run(init: InitialData, params: ModelParams, bundle: KernelBundle,
        spec: PotentialSpec, snapshot_stride: int = 1, validate: bool = True,
        constants: DerivedConstants | None = None,
        record_diagnostics: bool = True) -> Trajectory:
    """Integrate from t = 0 to T, recording snapshots and diagnostics.

    The one-run case of run_rows. A failing step aborts with the partial
    trajectory attached to the raised StepError as .partial, and the
    failed step's index and target time as .step and .t.
    """
    (result,) = run_rows([init], [params], bundle, spec, snapshot_stride, validate,
                         constants, record_diagnostics)
    if isinstance(result, StepError):
        raise result
    return result


def make_smoothed_ic(target: Field, s: float) -> Field:
    """Elliptic smoothing v + s (I - lap) v = target; s = 0 returns the target."""
    if s < 0:
        raise ConfigError(f"smoothing scale must be nonnegative, got {s}")
    if s == 0.0:
        return target
    return solve_helmholtz(target, 1.0 + s, s)
