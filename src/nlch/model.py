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

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import diagnostics
from .audit import RUN_GATES, GateInput, admit, derive_constants, ip_infty, ip_init
from .errors import ConfigError, SolverError, StepError
from .grid import Field, solve_helmholtz, solve_shifted_diffusion, _lap_array
from .kernel import KernelBundle
from .potential import PotentialSpec, f2_prime, yosida_with_derivative

# Newton acceptance tolerance, relative to 1 + ||eps mu + phi + dt g||_H, and iteration cap
NEWTON_TOL = 1e-10
NEWTON_CAP = 50
# most states a run holds before make_record takes them as one block
RECORD_BLOCK = 8


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


def _h_default_prime(r):
    # 1/2 between the kinks at r = -1 and r = 1, and the outer one-sided
    # derivative 0 at them
    return np.where(np.abs(np.asarray(r, dtype=float)) < 1.0, 0.5, 0.0)


def _h_tanh_prime(r):
    t = np.tanh(np.asarray(r, dtype=float))
    return 0.5 * (1.0 - t * t)


class HProfile(NamedTuple):
    """A proliferation profile h, its derivative, the closure of its range
    and its Lipschitz constant (the sup of |h'|)."""

    h: Callable
    prime: Callable
    range: tuple[float, float]
    lipschitz: float


# every profile a run admits (A2), keyed by its model.h name
H_FAMILIES = {
    "default": HProfile(h_default, _h_default_prime, (0.0, 1.0), 0.5),
    "one": HProfile(h_one, lambda r: np.zeros_like(np.asarray(r, dtype=float)), (1.0, 1.0), 0.0),
    "tanh": HProfile(h_tanh, _h_tanh_prime, (0.0, 1.0), 0.5),
}


class ModelParams:
    """Physical and numerical parameters of one run.

    Every construction, with_params included, rejects numerical settings
    no run can use and an h outside H_FAMILIES; the model's hypotheses
    are the rows of the gate table in nlch.audit.
    """

    # the order of the fields, as the constructor takes them positionally
    __slots__ = ("eps", "tau", "P", "A", "B", "C", "chi", "eta", "sigma_s", "h", "lam", "dt",
                 "T")

    def __init__(self, eps: float = 0.0, tau: float = 0.0, P: float = 0.0, A: float = 0.0,
                 B: float = 0.0, C: float = 0.0, chi: float = 0.0, eta: float = 0.0,
                 sigma_s: float = 0.0, h: Callable = h_default, lam: float = 1e-3,
                 dt: float = 1e-3, T: float = 1.0):
        if all(profile.h is not h for profile in H_FAMILIES.values()):
            raise ConfigError(f"h must be a profile of H_FAMILIES ({', '.join(H_FAMILIES)}), "
                              f"got {h!r}")
        self.eps, self.tau, self.P, self.A, self.B, self.C = eps, tau, P, A, B, C
        self.chi, self.eta, self.sigma_s, self.h = chi, eta, sigma_s, h
        self.lam, self.dt, self.T = lam, dt, T
        for name in ("eps", "tau", "P", "A", "B", "C", "chi", "eta", "sigma_s", "lam", "dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name, rule, ok in (("dt", "> 0", dt > 0), ("T", ">= 0", T >= 0),
                               ("lam", "> 0", lam > 0)):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def h_profile(self) -> tuple[str, HProfile]:
        """The name of h and its entry in H_FAMILIES."""
        return next((name, p) for name, p in H_FAMILIES.items() if p.h is self.h)

    @property
    def lam_eff(self) -> float:
        """Per-step Yosida parameter: the user value capped by dt."""
        return min(self.lam, self.dt)

    def with_params(self, **kw) -> "ModelParams":
        """A copy with the fields of ``kw`` replaced, validated as a new one."""
        return ModelParams(**{name: getattr(self, name) for name in self.__slots__} | kw)


class State(NamedTuple):
    """The fields diagnostics.energy and diagnostics.lyapunov read."""

    phi: Field
    mu: Field
    sigma: Field


class InitialData(NamedTuple):
    phi0: Field
    mu0: Field
    sigma0: Field


def validate_params(params: ModelParams, bundle: KernelBundle, spec: PotentialSpec):
    """Admit a run through the gate table of nlch.audit, on constants derived here:
    raise AssumptionError for the first failing row that reads the parameters."""
    g = GateInput(params, bundle, spec, derive_constants(bundle, spec))
    admit(gate(g) for gate in RUN_GATES)


def admit_run(init: InitialData, params: ModelParams, bundle: KernelBundle, spec: PotentialSpec):
    """Admit the parameters, then the initial data (ip_init, ip_infty)."""
    validate_params(params, bundle, spec)
    admit(gate(GateInput(params, spec=spec, init=init)) for gate in (ip_init, ip_infty))


class StepStats(NamedTuple):
    """One row's step: its Newton iterations, final residual and mass defect."""

    newton_iters: int
    residual: float
    mass_defect: float


class StepOutcome(NamedTuple):
    """One lockstep step: each row's StepStats."""

    stats: list

    @property
    def newton_iters(self) -> int:
        """Newton iterations summed over the rows."""
        return sum(s.newton_iters for s in self.stats)


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


class _Derived(NamedTuple):
    """The arrays of a state that the step leaving it reads, formed once per state.

    Each is a batch like phi (see _batch): the step hands on the
    accepted Newton iterate's arrays, and _derive forms them for a fresh
    state by the same arithmetic, so a carried array is bitwise a fresh one.
    """

    h: np.ndarray  # h(phi)
    mass: np.ndarray  # the conserved mass eps*mu + phi
    mass_sum: np.ndarray  # each row's sum of mass, as a one-cell row
    lap_mu: np.ndarray  # lap(mu)
    a_phi: np.ndarray  # a*phi
    diag_lin: np.ndarray  # the run's tau/dt + a, one row per row of phi


def _row_sums(x: np.ndarray) -> np.ndarray:
    # bitwise each row's own sum
    return x.sum(axis=-1, keepdims=True)


def _derive(phi, mu, rows: _Lockstep, bundle: KernelBundle) -> _Derived:
    """The _Derived arrays of the state (phi, mu) of a fresh batch."""
    p0, a = rows.params[0], bundle.a_field.values
    mass = rows.eps * mu + phi
    # a tau shared by the rows gives one row of tau/dt + a; broadcast, it
    # has a row per run, as _step_rows slices it
    return _Derived(p0.h(phi), mass, _row_sums(mass), _lap_array(mu, bundle.grid), a * phi,
                    np.broadcast_to(rows.tau / p0.dt + a, phi.shape))


def _solve(grid, diag, dt, rhs, phase, history):
    """solve_shifted_diffusion, failing the step in ``phase`` if the solve
    fails; a non-finite input or solution is a SolverError there."""
    try:
        return solve_shifted_diffusion(grid, diag, dt, rhs)
    except SolverError as err:
        raise StepError(f"{phase} linear solve failed: {err}", history, phase) from err


def _step_arrays(phi, mu, sig, conv_phi, yos, rows: _Lockstep, bundle: KernelBundle,
                 spec: PotentialSpec, derived: _Derived):
    """One IMEX step of M runs in lockstep, on a batch of one row per run.

    The batch is (M, n) arrays, flat for M = 1 (see _batch). ``rows``
    holds each row's ModelParams and the eps and tau columns; the rows
    share every setting but eps and tau. ``conv_phi`` is J*phi, ``yos``
    the (value, derivative, resolvent) triple of yosida_with_derivative
    at phi and ``derived`` the state's _Derived arrays; the triple and
    the _Derived arrays of the new state are returned in the same
    places, ready for the next step.
    Each row iterates its own Newton loop and keeps its place in the
    batch for the whole step: the loop runs on all M rows until each has
    stopped, and only a row still going records a residual and updates
    its best iterate. The iterates of the other rows are computed but
    never read. The step completes every row or raises StepError: a
    solve, resolvent or positivity check fails on any row's iterate, read
    or not, or a row's best iterate is not an accepted state. The error
    carries the first row's residual history, which for one row is its
    run's; run_rows steps each row of a failed batch alone (see
    _step_rows). Every row's arithmetic is that of a step
    of its own: the batched Laplacian, solves and transforms are bitwise
    equal per row, and the residual norms are np.vecdot on the rows,
    which is bitwise np.dot on each row.
    """
    p0, eps, tau = rows.params[0], rows.eps, rows.tau
    grid = bundle.grid
    dt = p0.dt
    lam = p0.lam_eff
    a = bundle.a_field.values
    cellvol = grid.cell_volume
    M = len(rows.params)
    h_old, mass_old, mass_sum, lap_mu, a_phi, diag_lin = derived

    g = (p0.P * sig - p0.A) * h_old
    w = np.asarray(f2_prime(spec, phi)) - conv_phi - p0.chi * sig

    const1 = mass_old + dt * g
    # a residual norm that overflows is inf, a named StepError below, so
    # numpy's overflow warning is silenced, once per step, over the loop
    with np.errstate(over="ignore"):
        accept_tol = (NEWTON_TOL * (1.0 + np.sqrt(np.vecdot(const1, const1) * cellvol))
                      ).reshape(-1).tolist()
        histories = [[] for _ in range(M)]
        # each row's best iterate: (residual, phi, mu, y, dy, s, eps mu + phi, lap mu, a phi)
        # as whole batches, read at the row
        best = [None] * M
        tol_floor = [None] * M
        going = [True] * M

        p, m, (y, dy, s) = phi, mu, yos
        mass_it, lap_m, a_p = mass_old, lap_mu, a_phi
        for it in range(NEWTON_CAP + 1):
            r1 = mass_it - dt * lap_m - const1
            # at the state itself (it = 0), tau (p - phi)/dt is an exact zero
            r2 = (m if it == 0 else m - tau * (p - phi) / dt) - a_p - y - w
            residuals = np.sqrt((np.vecdot(r1, r1) + np.vecdot(r2, r2)) * cellvol)
            for i, res in enumerate(residuals.reshape(-1).tolist()):
                if not going[i]:
                    continue
                history = histories[i]
                history.append(res)
                if it == 0:
                    best[i] = (res, p, m, y, dy, s, mass_it, lap_m, a_p)
                    tol_floor[i] = 1e-14 * (1.0 + res)
                elif res < best[i][0]:
                    best[i] = (res, p, m, y, dy, s, mass_it, lap_m, a_p)
                # stop at the floor, at the cap, or below the acceptance
                # tolerance once no longer contracting: the residual has hit
                # its floating-point floor
                if (res <= tol_floor[i] or it == NEWTON_CAP
                        or (it > 0 and res <= accept_tol[i] and res > 0.25 * history[-2])):
                    going[i] = False
            if not any(going):
                break
            diag = diag_lin + dy
            low = diag.min()
            if low <= 0.0:
                raise StepError(f"implicit diagonal lost positivity (min {low:.3e}); the "
                                "configuration lacks coercivity (tau = 0 with inf a <= 0)",
                                histories[0], "Newton")
            rhs = -(r1 + r2 / diag)
            dmu = _solve(grid, eps + 1.0 / diag, dt, rhs, "Newton", histories[0])
            dphi = (dmu + r2) / diag
            p = p + dphi
            m = m + dmu
            try:
                y, dy, s = yosida_with_derivative(spec, lam, p)
            except SolverError as err:
                raise StepError(f"resolvent failed: {err}", histories[0], "resolvent") from err
            mass_it, lap_m, a_p = eps * m + p, _lap_array(m, grid), a * p

    # each row takes its best iterate
    for i, (res, pick, *_) in enumerate(best):
        history = histories[i]
        # a finite residual has finite phi, mu and Yosida value in every term
        if not math.isfinite(res):
            raise StepError(f"Newton residual is not finite ({res})", history, "Newton")
        if res > accept_tol[i]:
            raise StepError(f"Newton failed to converge: residual {res:.3e} after "
                            f"{len(history) - 1} iterations", history, "convergence")
        if spec.has_barrier:
            sup = float(np.max(np.abs(_rows(pick)[i])))
            if sup >= spec.ell:
                raise StepError(f"phi left the barrier interval: ||phi||_inf = {sup:.6g} "
                                f">= ell = {spec.ell}", history, "barrier")
    if all(b[1] is best[0][1] for b in best):
        picked = best[0][1:]
    else:
        picked = [np.stack([_rows(b[k])[i] for i, b in enumerate(best)])
                  for k in range(1, len(best[0]))]
    phi_new, mu_new, *yos_new, mass_new, lap_new, a_phi_new = picked

    source_sig = p0.B * p0.sigma_s
    if p0.eta != 0.0:
        source_sig = source_sig - p0.eta * _lap_array(phi_new, grid)
    rhs_sig = sig + dt * source_sig
    h_new = p0.h(phi_new)
    diag_sig = 1.0 + dt * (p0.B + p0.C * h_new)
    sig_new = _solve(grid, diag_sig, dt, rhs_sig, "nutrient", histories[0])

    mass_sum_new = _row_sums(mass_new)
    defects = np.abs((mass_sum_new - mass_sum - dt * _row_sums(g)) * cellvol / grid.measure)
    stats = [StepStats(newton_iters=len(history) - 1, residual=res, mass_defect=defect)
             for history, (res, *_), defect in zip(histories, best, defects.ravel().tolist())]
    return (phi_new, mu_new, sig_new, tuple(yos_new), StepOutcome(stats),
            _Derived(h_new, mass_new, mass_sum_new, lap_new, a_phi_new, diag_lin))


def _step_rows(state, rows: _Lockstep, bundle: KernelBundle, spec: PotentialSpec):
    """One step of a lockstep batch from ``state`` = (phi, mu, sig, conv_phi, yos, derived).

    Returns the step of the rows that complete it, as _step_arrays
    returns it, or None if none does, and the StepError of each row that
    fails, keyed by row. A batch of several rows whose step fails is
    stepped again from the same state one row at a time, so only the
    rows that fail on their own fail; each call goes through the module's
    _step_arrays, so a wrapper put in its place sees the retries too.
    """
    phi, mu, sig, conv_phi, yos, derived = state
    try:
        return _step_arrays(phi, mu, sig, conv_phi, yos, rows, bundle, spec, derived), {}
    except StepError as err:
        if len(rows.params) == 1:
            return None, {0: err}
    done, errors = [], {}
    for j, p in enumerate(rows.params):
        try:
            done.append(_step_arrays(*(_rows(v)[j] for v in (phi, mu, sig, conv_phi)),
                                     tuple(_rows(v)[j] for v in yos), _lockstep([p]),
                                     bundle, spec, _Derived._make(_rows(v)[j] for v in derived)))
        except StepError as err:
            errors[j] = err
    if not done:
        return None, errors
    phi, mu, sig = (_batch([d[k] for d in done]) for k in range(3))
    yos = tuple(_batch([d[3][k] for d in done]) for k in range(3))
    derived = _Derived._make(_batch([d[5][k] for d in done]) for k in range(len(derived)))
    return (phi, mu, sig, yos, StepOutcome([d[4].stats[0] for d in done]), derived), errors


class Trajectory:
    """Recorded run: snapshots at the configured stride plus per-step records.

    A list left out starts empty; run_rows appends to the lists.
    """

    __slots__ = ("params", "times", "phis", "mus", "sigmas", "records")

    def __init__(self, params: ModelParams, times: list[float] | None = None,
                 phis: list[Field] | None = None, mus: list[Field] | None = None,
                 sigmas: list[Field] | None = None, records: list | None = None):
        self.params = params
        self.times, self.phis, self.mus, self.sigmas, self.records = (
            [] if v is None else v for v in (times, phis, mus, sigmas, records))


# the parameters that runs stepped in lockstep share: all but eps and tau
_SHARED = [name for name in ModelParams.__slots__ if name not in ("eps", "tau")]


def run_rows(inits: Sequence[InitialData], params: Sequence[ModelParams], bundle: KernelBundle,
             spec: PotentialSpec, snapshot_stride: int = 1, validate: bool = True,
             record_diagnostics: bool = True, observe: Callable | None = None) -> list:
    """Integrate several runs in lockstep from t = 0 to T, one batch row each.

    The runs share every parameter but eps and tau. Returns, for each run,
    its Trajectory, or the StepError that stopped it, carrying the partial
    trajectory as .partial and the failed step's index and target time as
    .step and .t; the other runs go on. A step that fails for the batch
    is taken again by each run alone (see _step_rows), so a run fails
    only on a step that fails on its own. With ``observe`` the trajectories
    store no snapshots: at every snapshot time, observe(t, runs, phi, mu,
    sig) receives the indices of the runs still going and their (runs, n)
    rows. Each run's diagnostics records are made in blocks of at most
    RECORD_BLOCK states, cut at every snapshot and before a failed run's
    partial trajectory is returned.
    """
    if validate:
        for init, p in zip(inits, params):
            admit_run(init, p, bundle, spec)
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

    # each state's J*phi, Yosida triple (value, derivative, resolvent) and
    # _Derived arrays are computed once, shared by its record and the step leaving it
    phi = _batch([init.phi0.values for init in inits])
    mu = _batch([init.mu0.values for init in inits])
    sig = _batch([init.sigma0.values for init in inits])
    yos = yosida_with_derivative(spec, p0.lam_eff, phi)
    conv = bundle.convolve_array(phi)
    trajs = [Trajectory(params=p) for p in params]
    results = list(trajs)
    runs, live = list(range(len(trajs))), _lockstep(params)
    derived = _derive(phi, mu, live, bundle)
    stats = [StepStats(newton_iters=0, residual=0.0, mass_defect=0.0)] * len(runs)
    # each run's states not yet recorded: make_record takes them as one block
    pending = [[] for _ in trajs]

    def flush(i):
        if pending[i]:
            t_, phi_, mu_, sig_, conv_, prox_, stats_ = zip(*pending[i])
            trajs[i].records += diagnostics.make_record(
                t_, np.stack(phi_), np.stack(mu_), np.stack(sig_), params[i], bundle, spec,
                mass_defect=[s.mass_defect for s in stats_],
                newton_iters=[s.newton_iters for s in stats_],
                conv_phi=np.stack(conv_), prox=np.stack(prox_))
            pending[i].clear()

    t = 0.0
    for k in range(n_steps + 1):
        if k > 0:
            step, errors = _step_rows((phi, mu, sig, conv, yos, derived), live, bundle, spec)
            for j, err in errors.items():
                flush(runs[j])
                err.partial = trajs[runs[j]]
                err.step, err.t = k, k * dt
                results[runs[j]] = err
            if step is None:
                break
            phi, mu, sig, yos, outcome, derived = step
            stats = outcome.stats
            if errors:
                runs = [i for j, i in enumerate(runs) if j not in errors]
                live = _lockstep([params[i] for i in runs])
            t = k * dt
            conv = bundle.convolve_array(phi)
        rows = [_rows(v) for v in (phi, mu, sig)]
        snapshot = k % snapshot_stride == 0 or k == n_steps
        if record_diagnostics:
            conv_rows, prox_rows = _rows(conv), _rows(yos[2])
            for j, i in enumerate(runs):
                pending[i].append((t, rows[0][j], rows[1][j], rows[2][j], conv_rows[j],
                                   prox_rows[j], stats[j]))
            if snapshot or len(pending[runs[0]]) == RECORD_BLOCK:
                for i in runs:
                    flush(i)
        if snapshot:
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
        record_diagnostics: bool = True) -> Trajectory:
    """Integrate from t = 0 to T, recording snapshots and diagnostics.

    The one-run case of run_rows. A failing step aborts with the partial
    trajectory attached to the raised StepError as .partial, and the
    failed step's index and target time as .step and .t.
    """
    (result,) = run_rows([init], [params], bundle, spec, snapshot_stride, validate,
                         record_diagnostics)
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
