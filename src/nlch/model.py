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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import diagnostics
from .audit import (RUN_GATES, DerivedConstants, GateInput, admit, derive_constants, ip_infty,
                    ip_init)
from .errors import AssumptionError, ConfigError, SolverError, StepError
from .grid import Field, GridSpec, solve_helmholtz, solve_shifted_diffusion, _lap_array
from .kernel import KernelBundle
from .potential import PotentialSpec, f2_prime, yosida_with_derivative


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


class SigmaSchedule:
    """Piecewise-constant-in-time prescribed nutrient concentration."""

    def __init__(self, entries: Sequence[tuple[float, object]]):
        self.entries = sorted(entries, key=lambda e: e[0])
        if not self.entries:
            raise ConfigError("sigma_S schedule needs at least one entry")

    def at(self, t: float):
        current = self.entries[0][1]
        for start, value in self.entries:
            if t >= start:
                current = value
        return current


def _sigma_s_array(sigma_s, grid: GridSpec, t: float) -> np.ndarray:
    if isinstance(sigma_s, SigmaSchedule):
        sigma_s = sigma_s.at(t)
    if isinstance(sigma_s, Field):
        return sigma_s.values
    return np.full(grid.size, float(sigma_s))


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
    sigma_s: object = 0.0
    h: Callable = h_default
    lam: float = 1e-3
    dt: float = 1e-3
    T: float = 1.0
    newton_tol: float = 1e-10
    newton_cap: int = 50

    def __post_init__(self):
        """Reject numerical settings no run can use; the model's hypotheses
        are the rows of the gate table in nlch.audit."""
        for name in ("eps", "tau", "P", "A", "B", "C", "chi", "eta", "lam", "dt", "T",
                     "newton_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name, rule, ok in (("dt", "> 0", self.dt > 0), ("T", ">= 0", self.T >= 0),
                               ("lam", "> 0", self.lam > 0),
                               ("newton_tol", "> 0", self.newton_tol > 0),
                               ("newton_cap", ">= 1", self.newton_cap >= 1)):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    def sigma_s_range(self) -> tuple[float, float]:
        """Extremes of sigma_S over every value it takes on [0, T]."""
        s = self.sigma_s
        values = [s]
        if isinstance(s, SigmaSchedule):
            values = [s.at(0.0)] + [v for start, v in s.entries if 0.0 < start <= self.T]
        vals = np.concatenate([np.ravel(v.values if isinstance(v, Field) else v) for v in values])
        return float(vals.min()), float(vals.max())

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
    newton_iters: int
    residual: float
    mass_defect: float


def _step_arrays(t, phi, mu, sig, conv_phi, yos, params: ModelParams,
                 bundle: KernelBundle, spec: PotentialSpec):
    """One IMEX step on raw arrays; returns new arrays and step statistics.

    ``conv_phi`` is J*phi and ``yos`` the (value, derivative, resolvent)
    triple of yosida_with_derivative at phi; the triple of the new phi
    is returned in the same place, ready for the next step.
    """
    grid = bundle.grid
    dt = params.dt
    eps, tau = params.eps, params.tau
    lam = params.lam_eff
    a = bundle.a_field.values
    cellvol = grid.cell_volume

    h_old = params.h(phi)
    g = (params.P * sig - params.A) * h_old
    w = np.asarray(f2_prime(spec, phi)) - conv_phi - params.chi * sig

    phi_new = phi.copy()
    mu_new = mu.copy()
    mass_old = eps * mu + phi
    const1 = mass_old + dt * g
    accept_tol = params.newton_tol * (1.0 + float(np.sqrt(np.dot(const1, const1) * cellvol)))

    def residuals(p, m, y):
        r1 = eps * m + p - dt * _lap_array(m, grid) - const1
        r2 = m - tau * (p - phi) / dt - a * p - y - w
        return r1, r2

    history = []

    def solve(phase, diag, rhs):
        # a failed linear solve fails the step, so callers keep the partial run
        try:
            return solve_shifted_diffusion(grid, diag, dt, rhs)
        except SolverError as err:
            raise StepError(f"{phase} linear solve failed: {err}",
                            residual_history=history, phase=phase) from err

    y, dy, s = yos
    best = None
    tol_floor = None
    for it in range(params.newton_cap + 1):
        r1, r2 = residuals(phi_new, mu_new, y)
        res = float(np.sqrt((np.dot(r1, r1) + np.dot(r2, r2)) * cellvol))
        history.append(res)
        if best is None or res < best[0]:
            best = (res, phi_new, mu_new, (y, dy, s))
        if tol_floor is None:
            tol_floor = 1e-14 * (1.0 + res)
        if res <= tol_floor:
            break
        # below the acceptance tolerance and no longer contracting: the
        # residual has hit its floating-point floor
        if it > 0 and res <= accept_tol and res > 0.25 * history[-2]:
            break
        if it == params.newton_cap:
            break
        diag = tau / dt + a + dy
        if diag.min() <= 0.0:
            raise StepError(
                f"implicit diagonal lost positivity (min {diag.min():.3e}); "
                "the configuration lacks coercivity (tau = 0 with inf a <= 0)",
                residual_history=history, phase="Newton",
            )
        rhs = -(r1 + r2 / diag)
        dmu = solve("Newton", eps + 1.0 / diag, rhs)
        dphi = (dmu + r2) / diag
        phi_new = phi_new + dphi
        mu_new = mu_new + dmu
        try:
            y, dy, s = yosida_with_derivative(spec, lam, phi_new)
        except SolverError as err:
            raise StepError(f"resolvent failed: {err}", residual_history=history,
                            phase="resolvent") from err

    res, phi_new, mu_new, yos = best
    # a finite residual has finite phi, mu and Yosida value in every term
    if not math.isfinite(res):
        raise StepError(f"Newton residual is not finite ({res})",
                        residual_history=history, phase="Newton")
    if res > accept_tol:
        raise StepError(
            f"Newton failed to converge: residual {res:.3e} after {len(history) - 1} iterations",
            residual_history=history, phase="convergence",
        )
    if spec.has_barrier:
        sup = float(np.max(np.abs(phi_new)))
        if sup >= spec.ell:
            raise StepError(
                f"phi left the barrier interval: ||phi||_inf = {sup:.6g} >= ell = {spec.ell}",
                residual_history=history, phase="barrier",
            )

    sig_s = _sigma_s_array(params.sigma_s, grid, t + dt)
    rhs_sig = sig + dt * (params.B * sig_s - params.eta * _lap_array(phi_new, grid))
    diag_sig = 1.0 + dt * (params.B + params.C * params.h(phi_new))
    sig_new = solve("nutrient", diag_sig, rhs_sig)
    if not np.isfinite(sig_new).all():
        raise StepError("nutrient solve returned non-finite values",
                        residual_history=history, phase="nutrient")

    mass_defect = abs(
        ((eps * mu_new + phi_new).sum() - mass_old.sum() - dt * g.sum())
        * cellvol / grid.measure
    )
    stats = StepStats(newton_iters=len(history) - 1, residual=res, mass_defect=mass_defect)
    return phi_new, mu_new, sig_new, yos, stats


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


def run(init: InitialData, params: ModelParams, bundle: KernelBundle,
        spec: PotentialSpec, snapshot_stride: int = 1, validate: bool = True,
        constants: DerivedConstants | None = None,
        record_diagnostics: bool = True) -> Trajectory:
    """Integrate from t = 0 to T, recording snapshots and diagnostics.

    A failing step aborts with the partial trajectory attached to the
    raised StepError as .partial, and the failed step's index and target
    time as .step and .t.
    """
    if validate:
        admit_run(init, params, bundle, spec, constants)
    grid = bundle.grid
    n_steps = 0 if params.T == 0 else max(1, int(round(params.T / params.dt)))
    if params.T > 0:
        actual = params.T / n_steps
        if abs(actual - params.dt) > 1e-9 * params.dt:
            params = params.with_params(dt=actual)

    # each state's J*phi and Yosida triple (value, derivative, resolvent)
    # are computed once, shared by its record and the step leaving it
    phi, mu, sig = init.phi0.values, init.mu0.values, init.sigma0.values
    yos = yosida_with_derivative(spec, params.lam_eff, phi)
    conv = bundle.convolve_array(phi)
    traj = Trajectory(params=params)
    traj.times.append(0.0)
    traj.phis.append(init.phi0)
    traj.mus.append(init.mu0)
    traj.sigmas.append(init.sigma0)
    if record_diagnostics:
        traj.records.append(diagnostics.make_record(
            0.0, phi, mu, sig, params, bundle, spec, mass_defect=0.0, newton_iters=0,
            conv_phi=conv, prox=yos[2]))

    t = 0.0
    for k in range(1, n_steps + 1):
        try:
            phi, mu, sig, yos, stats = _step_arrays(t, phi, mu, sig, conv, yos,
                                                    params, bundle, spec)
        except StepError as err:
            traj.complete = False
            err.partial = traj
            err.step, err.t = k, k * params.dt
            raise
        t = k * params.dt
        conv = bundle.convolve_array(phi)
        if record_diagnostics:
            traj.records.append(diagnostics.make_record(
                t, phi, mu, sig, params, bundle, spec, mass_defect=stats.mass_defect,
                newton_iters=stats.newton_iters, conv_phi=conv, prox=yos[2]))
        if k % snapshot_stride == 0 or k == n_steps:
            # _step_arrays fails a step whose residual or nutrient is not
            # finite, so snapshots skip the finiteness scan
            traj.times.append(t)
            traj.phis.append(Field(grid, phi, check=False))
            traj.mus.append(Field(grid, mu, check=False))
            traj.sigmas.append(Field(grid, sig, check=False))
    return traj


def make_smoothed_ic(target: Field, s: float) -> Field:
    """Elliptic smoothing v + s (I - lap) v = target; s = 0 returns the target."""
    if s < 0:
        raise ConfigError(f"smoothing scale must be nonnegative, got {s}")
    if s == 0.0:
        return target
    return solve_helmholtz(target, 1.0 + s, s)
