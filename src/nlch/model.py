"""Time integration of the two-parameter non-local tumor-growth system.

One step advances (phi, mu, sigma) by a first-order IMEX scheme:

  (i)  the phi/mu block solves the coupled relations
         eps (mu+ - mu)/dt + (phi+ - phi)/dt - lap mu+ = (P sigma - A) h(phi)
         mu+ = tau (phi+ - phi)/dt + a phi+ + Y_lam(phi+) + F2'(phi) - J*phi - chi sigma
       by Newton iteration with the diagonal Yosida derivative; diffusion,
       the local non-local coefficient a, and the Yosida term are implicit,
       while the convolution, F2', h, and the couplings are explicit;
  (ii) the nutrient is updated by one linear implicit solve;
  (iii) the recorded selection xi+ is the Yosida value at phi+.

The degenerate regimes eps = 0 and/or tau = 0 use the same Newton system,
whose implicit diagonal tau/dt + a + Y' stays positive as long as the
kernel keeps inf a > 0 (or tau > 0 provides the viscosity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import diagnostics
from .errors import AssumptionError, ConfigError, SolverError, StepError
from .grid import (
    Field,
    GridSpec,
    estimate_inclusion_constant,
    estimate_poincare_constant,
    solve_helmholtz,
    solve_shifted_diffusion,
    _lap_array,
)
from .kernel import KernelBundle, EpsilonZero, epsilon_zero
from .potential import (
    PotentialSpec,
    check_dominance,
    check_growth,
    f2_prime,
    f_eval,
    yosida,
    yosida_with_derivative,
)

EPS0_SAFETY = 0.9


def h_default(r):
    """Proliferation profile clamp((1+r)/2, 0, 1): bounded, 1/2-Lipschitz."""
    return np.clip((1.0 + np.asarray(r, dtype=float)) / 2.0, 0.0, 1.0)


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
    ordering: str = "gauss-seidel"
    newton_tol: float = 1e-10
    newton_cap: int = 50

    @property
    def lam_eff(self) -> float:
        """Per-step Yosida parameter: the user value capped by dt."""
        return min(self.lam, self.dt)

    def with_params(self, **kw) -> "ModelParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class State:
    t: float
    phi: Field
    mu: Field
    sigma: Field
    xi: Field


@dataclass(frozen=True)
class InitialData:
    phi0: Field
    mu0: Field
    sigma0: Field

    def check(self, spec: PotentialSpec, require_sigma_range: bool = False,
              separation_r0: float | None = None):
        """Admissibility of the data: integrable F(phi0), optional range gates."""
        fvals = f_eval(spec, self.phi0.values)
        if not np.all(np.isfinite(fvals)):
            raise AssumptionError(
                "ip_init", "F(phi0) is not finite on all samples", value=float(np.max(fvals))
            )
        if require_sigma_range:
            lo, hi = float(self.sigma0.values.min()), float(self.sigma0.values.max())
            if lo < 0.0 or hi > 1.0:
                raise AssumptionError(
                    "ip_infty", f"sigma0 range [{lo:.3g}, {hi:.3g}] leaves [0, 1]", value=(lo, hi)
                )
        if separation_r0 is not None:
            sup = float(np.max(np.abs(self.phi0.values)))
            if sup > separation_r0:
                raise AssumptionError(
                    "ip_init_sep", f"||phi0||_inf = {sup:.6g} exceeds r0 = {separation_r0}", value=sup
                )


def initial_state(init: InitialData, params: ModelParams, spec: PotentialSpec) -> State:
    xi = Field(init.phi0.grid, yosida(spec, params.lam_eff, init.phi0.values))
    return State(t=0.0, phi=init.phi0, mu=init.mu0, sigma=init.sigma0, xi=xi)


@dataclass(frozen=True)
class DerivedConstants:
    """Geometry and kernel constants consumed by the admission gates."""

    c0: float
    k0: float
    c_omega: float
    eps0: EpsilonZero
    c_f: float | None = None


def derive_constants(bundle: KernelBundle, spec: PotentialSpec) -> DerivedConstants:
    c0 = check_dominance(spec, bundle.a_star)
    k0 = estimate_inclusion_constant(bundle.grid)
    c_omega = estimate_poincare_constant(bundle.grid)
    eps0 = epsilon_zero(bundle, c0, k0)
    c_f = None
    if spec.full_domain:
        c_f = check_growth(spec)
    return DerivedConstants(c0=c0, k0=k0, c_omega=c_omega, eps0=eps0, c_f=c_f)


def validate_params(params: ModelParams, bundle: KernelBundle, spec: PotentialSpec,
                    constants: DerivedConstants | None = None) -> DerivedConstants:
    """Enforce the structural assumptions and the parameter admission gates.

    Raises AssumptionError naming the first violated hypothesis. Returns
    the derived constants for reuse.
    """
    for name in ("P", "A", "B", "C", "chi", "eta"):
        if getattr(params, name) < 0:
            raise AssumptionError("A1", f"coefficient {name} must be nonnegative",
                                  value=getattr(params, name))
    if params.dt <= 0:
        raise ConfigError(f"dt must be positive, got {params.dt}")
    if params.T < 0:
        raise ConfigError(f"T must be nonnegative, got {params.T}")
    if params.lam <= 0:
        raise ConfigError(f"Yosida parameter must be positive, got {params.lam}")
    hs = params.h(np.linspace(-50.0, 50.0, 101))
    if np.any(hs < 0) or np.any(~np.isfinite(hs)) or np.max(hs) > 1e6:
        raise AssumptionError("A2", "h must be nonnegative, finite, and bounded")
    for t_probe in (0.0, params.T):
        ss = _sigma_s_array(params.sigma_s, bundle.grid, t_probe)
        if np.any(ss < 0.0) or np.any(ss > 1.0):
            raise AssumptionError(
                "A3", f"sigma_S must lie in [0, 1], range is [{ss.min():.3g}, {ss.max():.3g}]"
            )
    if constants is None:
        constants = derive_constants(bundle, spec)
    if params.eps < 0 or params.tau < 0:
        raise AssumptionError("A1", "relaxation parameters must be nonnegative")
    if params.eps > 0 and params.eps >= EPS0_SAFETY * constants.eps0.value:
        raise AssumptionError(
            "eps < eps0",
            f"eps = {params.eps:.6g} exceeds the admission threshold "
            f"{EPS0_SAFETY:.2f} * eps0 = {EPS0_SAFETY * constants.eps0.value:.6g}",
            value=(params.eps, constants.eps0.value),
        )
    if params.tau > 0 and params.tau >= 1.0:
        raise AssumptionError("tau < tau0", f"tau = {params.tau} must lie below tau0 = 1")
    if params.tau == 0.0 and params.eps > 0:
        check_ip_chi(params.chi, params.eta, bundle.c_a, constants.c0)
    if params.eps == 0.0:
        if params.eta != 0.0:
            raise AssumptionError(
                "eta = 0", "the eps = 0 limit requires no active transport", value=params.eta
            )
        if not spec.full_domain:
            raise AssumptionError(
                "pol_growth",
                f"the eps = 0 limit needs D(dF1) = R; {spec.family} has a barrier",
            )
        if params.tau == 0.0:
            check_ip_chi(params.chi, params.eta, bundle.c_a, constants.c0)
    return constants


def check_ip_chi(chi: float, eta: float, c_a: float, c0: float):
    """Compatibility condition for the vanishing-viscosity limit."""
    if not chi < np.sqrt(c_a):
        raise AssumptionError(
            "ip_chi", f"need chi < sqrt(c_a): chi = {chi}, sqrt(c_a) = {np.sqrt(c_a):.6g}",
            value=chi,
        )
    lhs = (chi + eta + 4.0 * c_a * chi) ** 2
    rhs = 8.0 * c_a * c0 + 4.0 * chi * eta
    if not lhs < rhs:
        raise AssumptionError(
            "ip_chi",
            f"need (chi+eta+4 c_a chi)^2 < 8 c_a C0 + 4 chi eta: {lhs:.6g} >= {rhs:.6g}",
            value=(lhs, rhs),
        )


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
    const1 = eps * mu + phi + dt * g
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
                            residual_history=history) from err

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
        if np.min(diag) <= 0.0:
            raise StepError(
                f"implicit diagonal lost positivity (min {np.min(diag):.3e}); "
                "the configuration lacks coercivity (tau = 0 with inf a <= 0)",
                residual_history=history,
            )
        rhs = -(r1 + r2 / diag)
        dmu = solve("Newton", eps + 1.0 / diag, rhs)
        dphi = (dmu + r2) / diag
        phi_new = phi_new + dphi
        mu_new = mu_new + dmu
        y, dy, s = yosida_with_derivative(spec, lam, phi_new)

    res, phi_new, mu_new, yos = best
    if res > accept_tol:
        raise StepError(
            f"Newton failed to converge: residual {res:.3e} after {len(history) - 1} iterations",
            residual_history=history,
        )
    if spec.has_barrier:
        sup = float(np.max(np.abs(phi_new)))
        if sup >= spec.ell:
            raise StepError(
                f"phi left the barrier interval: ||phi||_inf = {sup:.6g} >= ell = {spec.ell}",
                residual_history=history,
            )

    if params.ordering == "jacobi":
        h_sig, phi_eta = h_old, phi
    else:
        h_sig, phi_eta = params.h(phi_new), phi_new
    sig_s = _sigma_s_array(params.sigma_s, grid, t + dt)
    rhs_sig = sig + dt * (params.B * sig_s - params.eta * _lap_array(phi_eta, grid))
    diag_sig = 1.0 + dt * (params.B + params.C * h_sig)
    sig_new = solve("nutrient", diag_sig, rhs_sig)

    mass_defect = abs(
        (np.sum(eps * mu_new + phi_new) - np.sum(eps * mu + phi) - dt * np.sum(g))
        * cellvol / grid.measure
    )
    stats = StepStats(newton_iters=len(history) - 1, residual=res, mass_defect=mass_defect)
    return phi_new, mu_new, sig_new, yos, stats


def step(state: State, params: ModelParams, bundle: KernelBundle,
         spec: PotentialSpec) -> State:
    """Advance one time step; see the module docstring for the scheme."""
    phi = state.phi.values
    phi, mu, sig, yos, _ = _step_arrays(
        state.t, phi, state.mu.values, state.sigma.values, bundle.convolve_array(phi),
        yosida_with_derivative(spec, params.lam_eff, phi), params, bundle, spec,
    )
    grid = bundle.grid
    return State(
        t=state.t + params.dt,
        phi=Field(grid, phi),
        mu=Field(grid, mu),
        sigma=Field(grid, sig),
        xi=Field(grid, yos[0]),
    )


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
        spec: PotentialSpec, observers: Sequence[Callable] = (),
        snapshot_stride: int = 1, validate: bool = True,
        constants: DerivedConstants | None = None,
        record_diagnostics: bool = True) -> Trajectory:
    """Integrate from t = 0 to T, recording snapshots and diagnostics.

    Observers are called as observer(step_index, state, record) after
    every accepted step. A failing step aborts with the partial
    trajectory attached to the raised StepError as .partial.
    """
    if validate:
        constants = validate_params(params, bundle, spec, constants)
        init.check(spec)
    grid = bundle.grid
    n_steps = 0 if params.T == 0 else max(1, int(round(params.T / params.dt)))
    if params.T > 0:
        actual = params.T / n_steps
        if abs(actual - params.dt) > 1e-9 * params.dt:
            params = params.with_params(dt=actual)

    # each state's J*phi and Yosida triple (value, derivative, resolvent)
    # are computed once, shared by its record and the step leaving it
    yos = yosida_with_derivative(spec, params.lam_eff, init.phi0.values)
    state = State(t=0.0, phi=init.phi0, mu=init.mu0, sigma=init.sigma0,
                  xi=Field(grid, yos[0]))
    conv = bundle.convolve_array(state.phi.values)
    traj = Trajectory(params=params)
    traj.times.append(0.0)
    traj.phis.append(state.phi)
    traj.mus.append(state.mu)
    traj.sigmas.append(state.sigma)
    if record_diagnostics:
        rec0 = diagnostics.make_record(state, params, bundle, spec, mass_defect=0.0,
                                       newton_iters=0, conv_phi=conv, prox=yos[2])
        traj.records.append(rec0)

    phi, mu, sig = state.phi.values, state.mu.values, state.sigma.values
    t = 0.0
    for k in range(1, n_steps + 1):
        try:
            phi, mu, sig, yos, stats = _step_arrays(t, phi, mu, sig, conv, yos,
                                                    params, bundle, spec)
        except StepError as err:
            traj.complete = False
            err.partial = traj
            raise
        t = k * params.dt
        state = State(
            t=t,
            phi=Field(grid, phi),
            mu=Field(grid, mu),
            sigma=Field(grid, sig),
            xi=Field(grid, yos[0]),
        )
        conv = bundle.convolve_array(phi)
        rec = None
        if record_diagnostics:
            rec = diagnostics.make_record(state, params, bundle, spec,
                                          mass_defect=stats.mass_defect,
                                          newton_iters=stats.newton_iters,
                                          conv_phi=conv, prox=yos[2])
            traj.records.append(rec)
        if k % snapshot_stride == 0 or k == n_steps:
            traj.times.append(t)
            traj.phis.append(state.phi)
            traj.mus.append(state.mu)
            traj.sigmas.append(state.sigma)
        for obs in observers:
            obs(k, state, rec)
    return traj


def make_smoothed_ic(target: Field, s: float) -> Field:
    """Elliptic smoothing v + s (I - lap) v = target; s = 0 returns the target."""
    if s < 0:
        raise ConfigError(f"smoothing scale must be nonnegative, got {s}")
    if s == 0.0:
        return target
    return solve_helmholtz(target, 1.0 + s, s)
