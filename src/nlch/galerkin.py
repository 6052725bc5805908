"""Spectral Faedo-Galerkin oracle on a 1D interval.

Projects the doubly regularized system (eps, tau > 0) onto the first n
Neumann-Laplacian eigenfunctions and integrates the resulting ODE system
with the implicit variable-order BDF method, an in-package port of
scipy's BDF on LAPACK getrf/getrs. The projected system is stiff (its
fastest rates grow like lambda_n / eps), so an explicit integrator
would be held to tiny steps by stability, not accuracy. The oracle
exists to cross-validate the finite-difference stepper at fixed
mode count and Yosida parameter.

The Newton iteration of each implicit step reads the closed-form
Jacobian of the projected system (jacobian), built from the potential's
Yosida derivative and h'. Only that iteration reads it: the equations it
solves are those of ode_rhs, so the oracle's solution depends on ode_rhs
alone.

All nonlinear integrals use the same cell-centered midpoint quadrature
as the finite-difference solver. The Laplacian differs: the sampled
cosines are exact eigenvectors of the stepper's mirrored-ghost
Laplacian, whose eigenvalues are 4/h^2 sin^2(j pi h / 2L)
(grid._neumann_spectrum), but the oracle gives them the continuum
eigenvalues (j pi / L)^2, larger by the factor (x / sin x)^2 at
x = j pi h / 2L: by 1.3e-5 for mode 1 and 1.2% for mode 31 at 256
cells. The measured stepper-vs-oracle gap includes that difference.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ComparisonError,
    ConfigError,
    DimensionError,
    InapplicabilityError,
    StiffnessError,
)
from .grid import Field, GridSpec, dgetrf, dgetrs, write_table
from .kernel import KernelBundle
from .model import ModelParams
from .potential import PotentialSpec, f_prime_regularized, yosida_with_derivative

# the largest relative L2(0,T;H) gap (oracle_gap) between the stepper and the oracle
ORACLE_GAP_TOL = 5e-3


class SpectralBasis(NamedTuple):
    """Cosine eigenbasis of the Neumann Laplacian sampled at cell centers."""

    grid: GridSpec
    n: int
    functions: np.ndarray  # shape (cells, n)
    eigenvalues: np.ndarray  # shape (n,)

    @property
    def weight(self) -> float:
        return self.grid.cell_volume


def make_basis(grid: GridSpec, n: int) -> SpectralBasis:
    """First n modes: constant |Omega|^(-1/2), then sqrt(2/L) cos(j pi x / L).

    Each mode gets the continuum eigenvalue (j pi / L)^2, not the grid
    Laplacian's 4/h^2 sin^2(j pi h / 2L).

    Midpoint quadrature is exact for products of these modes as long as
    n does not exceed the cell count, so discrete orthonormality holds to
    machine precision.
    """
    if grid.dim != 1:
        raise ConfigError(f"grid.dim must be 1, got {grid.dim}: "
                          "the spectral oracle is one-dimensional")
    cells = grid.cells[0]
    if not 1 <= n <= cells:
        raise ConfigError(f"oracle.modes must lie in [1, grid.cells] = [1, {cells}], got {n}")
    L = grid.extent[0]
    x = grid.axis_coordinates(0)
    funcs = np.empty((cells, n))
    eigs = np.empty(n)
    funcs[:, 0] = 1.0 / np.sqrt(grid.measure)
    eigs[0] = 0.0
    for j in range(1, n):
        funcs[:, j] = np.sqrt(2.0 / L) * np.cos(j * np.pi * x / L)
        eigs[j] = (j * np.pi / L) ** 2
    return SpectralBasis(grid=grid, n=n, functions=funcs, eigenvalues=eigs)


def project(f: Field, basis: SpectralBasis) -> np.ndarray:
    """H-orthogonal coefficients of a sampled field."""
    if f.grid != basis.grid:
        raise DimensionError("field grid does not match the basis quadrature grid")
    return basis.functions.T @ f.values * basis.weight


def reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> Field:
    return Field(basis.grid, basis.functions @ np.asarray(coeffs))


class GalerkinOperator(NamedTuple):
    """Precomputed matrices of the projected system."""

    basis: SpectralBasis
    bundle: KernelBundle
    spec: PotentialSpec
    params: ModelParams
    mat_a: np.ndarray  # int a e_i e_j
    mat_conv: np.ndarray  # int (J*e_j) e_i
    ss_coeff: np.ndarray  # int sigma_S e_i
    h_prime: Callable  # derivative of params.h


def build_operator(basis: SpectralBasis, bundle: KernelBundle, spec: PotentialSpec,
                   params: ModelParams) -> GalerkinOperator:
    if params.eps <= 0 or params.tau <= 0:
        raise InapplicabilityError(
            "the spectral oracle integrates the doubly regularized system only "
            f"(eps, tau > 0); got eps = {params.eps}, tau = {params.tau}"
        )
    if bundle.grid != basis.grid:
        raise DimensionError("kernel bundle and basis live on different grids")
    E = basis.functions
    w = basis.weight
    a = bundle.a_field.values
    mat_a = E.T @ (a[:, None] * E) * w
    mat_conv = E.T @ bundle.convolve_array(E.T).T * w
    ss_coeff = E.T @ np.full(basis.grid.size, params.sigma_s) * w
    return GalerkinOperator(
        basis=basis, bundle=bundle, spec=spec, params=params, mat_a=mat_a, mat_conv=mat_conv,
        ss_coeff=ss_coeff, h_prime=params.h_profile[1].prime,
    )


def split_coeffs(y: np.ndarray, n: int):
    return y[:n], y[n : 2 * n], y[2 * n :]


def ode_rhs(t: float, y: np.ndarray, op: GalerkinOperator) -> np.ndarray:
    """Time derivatives (alpha', beta', gamma') of the projected system.

    The mu-relation is algebraic in alpha' and is solved first; the
    result feeds the mass and nutrient equations. ``y`` is one state of
    3n coefficients.
    """
    basis, params, spec = op.basis, op.params, op.spec
    alpha, beta, gamma = split_coeffs(y, basis.n)
    E, w, l = basis.functions, basis.weight, basis.eigenvalues

    phi = E @ alpha
    sig = E @ gamma
    h_phi = params.h(phi)

    nf = E.T @ np.asarray(f_prime_regularized(spec, params.lam_eff, phi)) * w
    alpha_dot = (
        beta - op.mat_a @ alpha + op.mat_conv @ alpha - nf + params.chi * gamma
    ) / params.tau

    source = E.T @ ((params.P * sig - params.A) * h_phi) * w
    beta_dot = (source - l * beta - alpha_dot) / params.eps

    consume = E.T @ (h_phi * sig) * w
    gamma_dot = (
        -l * gamma - params.B * (gamma - op.ss_coeff) - params.C * consume
        + params.eta * l * alpha
    )
    return np.concatenate([alpha_dot, beta_dot, gamma_dot])


def jacobian(t: float, y: np.ndarray, op: GalerkinOperator) -> np.ndarray:
    """Jacobian of ode_rhs at the state y, in closed form.

    With phi = E alpha, sig = E gamma and the weighted Gram matrix
    G(v) = E^T diag(v) E w, the nonlinear terms differentiate to G of
    F''_lam(phi) (the potential's Yosida derivative plus F2''),
    (P sig - A) h'(phi), P h(phi), h'(phi) sig and h(phi); the rest
    of ode_rhs is linear.
    """
    basis, params, spec = op.basis, op.params, op.spec
    n = basis.n
    alpha, _, gamma = split_coeffs(y, n)
    E, w, l = basis.functions, basis.weight, basis.eigenvalues
    tau, eps = params.tau, params.eps

    phi = E @ alpha
    sig = E @ gamma
    h_phi = params.h(phi)
    dh_phi = op.h_prime(phi)
    _, dyosida, _ = yosida_with_derivative(spec, params.lam_eff, phi)

    def gram(v):
        return E.T @ (v[:, None] * E) * w

    eye = np.identity(n)
    lap = np.diag(l)
    jac = np.zeros((3 * n, 3 * n))
    a, b, g = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    jac[a, a] = (op.mat_conv - op.mat_a - gram(dyosida + spec.f2_second(phi))) / tau
    jac[a, b] = eye / tau
    jac[a, g] = params.chi / tau * eye
    jac[b, a] = (gram((params.P * sig - params.A) * dh_phi) - jac[a, a]) / eps
    jac[b, b] = (-lap - eye / tau) / eps
    jac[b, g] = (gram(params.P * h_phi) - jac[a, g]) / eps
    jac[g, a] = -params.C * gram(dh_phi * sig) + params.eta * lap
    jac[g, g] = -lap - params.B * eye - params.C * gram(h_phi)
    return jac


# The integrator is a port of scipy.integrate's BDF (scipy 1.17), the
# variable-order NDF method of Shampine & Reichelt, "The MATLAB ODE
# Suite" (SIAM J. Sci. Comput. 18, 1997), restricted to what the oracle
# uses: forward time from t = 0, a float state, the callable jacobian
# and output at t_eval from the dense interpolant. It repeats scipy's
# arithmetic operation for operation, so its output is bit-identical to
# solve_ivp(ode_rhs, (0, T), y0, method="BDF", jac=jacobian, ...).
_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)
_EPS = np.finfo(float).eps


def _bdf_failure(reason: str) -> StiffnessError:
    return StiffnessError(
        f"BDF integrator of the spectral oracle failed: {reason}; "
        "consider larger eps/tau or a smaller mode count"
    )


def _rms(x: np.ndarray):
    # np.linalg.norm's own arithmetic for a 1-D real vector, without its dispatch
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _compute_R(order, factor):
    """Matrix that rescales the difference array to a step ``factor`` times as long."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


def _change_D(D, order, factor):
    """Rescale the difference array D in place when the step size changes."""
    RU = _compute_R(order, factor).dot(_compute_R(order, 1))
    D[: order + 1] = np.dot(RU.T, D[: order + 1])


def _initial_step(op, y0, f0, T, rtol, atol):
    """First step size for a first-order error estimate (Hairer-Norsett-Wanner II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, T)
    f1 = ode_rhs(h0, y0 + h0 * f0, op)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 2)
    return min(100 * h0, h1, T)


def _solve_bdf_system(op, t_new, y_predict, c, psi, LU, scale, tol):
    """Simplified Newton iteration of one BDF step: (converged, iterations, y, d)."""
    d = 0
    y = y_predict.copy()
    dy_norm_old = None
    converged = False
    for k in range(_NEWTON_MAXITER):
        f = ode_rhs(t_new, y, op)
        if not np.all(np.isfinite(f)):
            break
        dy = dgetrs(*LU, c * f - psi - d, overwrite_b=True)[0]
        dy_norm = _rms(dy / scale)
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (rate >= 1 or
                                 rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol):
            break
        y += dy
        d += dy
        if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < tol:
            converged = True
            break
        dy_norm_old = dy_norm
    return converged, k + 1, y, d


def integrate(init_coeffs: np.ndarray, op: GalerkinOperator, T: float,
              t_eval, rtol: float = 1e-8, atol: float = 1e-10):
    """Implicit BDF integration; returns (times, coefficient matrix).

    An in-package port of scipy's BDF on LAPACK getrf/getrs (see above).
    The Newton iterations use jacobian, the closed-form Jacobian of
    ode_rhs on the potential's Yosida derivative. Only the Newton
    iteration reads it, and it solves the BDF equations of ode_rhs, so
    the Jacobian sets how fast a step converges, not which equations it
    solves. The coefficient matrix has one row per
    output time; each output time is interpolated after the step that
    reaches it. Integrator failure (a step below the spacing of floats
    or a non-finite Jacobian) raises StiffnessError suggesting larger
    eps/tau or fewer modes.
    """
    t_eval = np.array(t_eval, dtype=float)
    if (t_eval.ndim != 1 or np.any(t_eval < 0) or np.any(t_eval > T)
            or np.any(np.diff(t_eval) <= 0)):
        raise ComparisonError(f"output times must increase within [0, {T}]")
    y = np.asarray(init_coeffs, dtype=float)
    n = y.size
    f = ode_rhs(0.0, y, op)
    h_abs = _initial_step(op, y, f, T, rtol, atol)
    J = jacobian(0.0, y, op)
    identity = np.identity(n)
    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    D = np.empty((_MAX_ORDER + 3, n))
    D[0] = y
    D[1] = f * h_abs
    order, n_equal_steps, LU = 1, 0, None
    coeffs = np.empty((t_eval.size, n))
    filled = 0
    t = 0.0
    while t < T:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            _change_D(D, order, min_step / h_abs)
            h_abs = min_step
            n_equal_steps = 0
        current_jac = False
        while True:
            if h_abs < min_step:
                raise _bdf_failure("Required step size is less than spacing between numbers")
            t_new = t + h_abs
            if t_new - T > 0:
                t_new = T
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                n_equal_steps = 0
                LU = None
            h = t_new - t
            h_abs = np.abs(h)
            y_predict = np.sum(D[: order + 1], axis=0)
            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1 : order + 1].T, _GAMMA[1 : order + 1]) / _ALPHA[order]
            converged = False
            c = h / _ALPHA[order]
            while not converged:
                if LU is None:
                    A = identity - c * J
                    if not np.isfinite(A).all():
                        raise _bdf_failure("the Newton matrix I - c J is not finite")
                    LU = dgetrf(A, overwrite_a=True)[:2]
                converged, n_iter, y_new, d = _solve_bdf_system(
                    op, t_new, y_predict, c, psi, LU, scale, newton_tol)
                if not converged:
                    if current_jac:
                        break
                    J = jacobian(t_new, y_predict, op)
                    LU = None
                    current_jac = True
            if not converged:
                h_abs *= 0.5
                _change_D(D, order, 0.5)
                n_equal_steps = 0
                LU = None
                continue
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            scale = atol + rtol * np.abs(y_new)
            error_norm = _rms(_ERROR_CONST[order] * d / scale)
            if error_norm <= 1:
                break
            factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal_steps = 0

        n_equal_steps += 1
        t = t_new
        # D holds the differences of the previous interpolant and
        # d = D^{k+1} y_n; D^{j+1} y_n = D^j y_n - D^j y_{n-1} updates it
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if n_equal_steps >= order + 1:
            error_m_norm = _rms(_ERROR_CONST[order - 1] * D[order] / scale) if order > 1 else np.inf
            error_p_norm = (_rms(_ERROR_CONST[order + 1] * D[order + 2] / scale)
                            if order < _MAX_ORDER else np.inf)
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore"):
                factors = error_norms ** (-1 / np.arange(order, order + 3))
            order += np.argmax(factors) - 1
            factor = min(_MAX_FACTOR, safety * np.max(factors))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal_steps = 0
            LU = None

        # the dense output of this step, with the step size and order just chosen
        reached = np.searchsorted(t_eval, t, side="right")
        if reached > filled:
            t_shift = t - h_abs * np.arange(order)
            denom = h_abs * (1 + np.arange(order))
            x = (t_eval[filled:reached] - t_shift[:, None]) / denom[:, None]
            block = np.dot(D[1 : order + 1].T, np.cumprod(x, axis=0))
            block += D[0, :, None]
            coeffs[filled:reached] = block.T
            filled = reached
    return t_eval, coeffs


def oracle_gap(basis: SpectralBasis, times, coeffs: np.ndarray, phis) -> float:
    """Relative L2(0,T;H) gap between the oracle's phi and sampled fields.

    phis holds one Field per output time, on the basis grid (typically
    the stepper's snapshots at the oracle's output times). The squared H
    norms are integrated in time with the trapezoidal rule, and the gap is
    ||phi_oracle - phi||_{L2(0,T;H)} / ||phi||_{L2(0,T;H)}.
    """
    if len(phis) != len(times) or len(coeffs) != len(times):
        raise ComparisonError(
            f"need one field and one coefficient row per time; got {len(phis)} fields, "
            f"{len(coeffs)} rows and {len(times)} times"
        )
    if any(f.grid != basis.grid for f in phis):
        raise DimensionError("field grid does not match the basis quadrature grid")
    sampled = np.stack([f.values for f in phis])
    oracle = np.asarray(coeffs)[:, : basis.n] @ basis.functions.T
    diff_sq = np.sum((oracle - sampled) ** 2, axis=1) * basis.weight
    norm_sq = np.sum(sampled**2, axis=1) * basis.weight
    ts = np.asarray(times, dtype=float)
    return float(np.sqrt(np.trapezoid(diff_sq, ts)) / np.sqrt(np.trapezoid(norm_sq, ts)))


def compare(traj, bundle: KernelBundle, spec: PotentialSpec, modes: int):
    """The oracle against a stepper trajectory: (times, coefficients, gap).

    Integrates the projected system with ``modes`` modes from the
    trajectory's first snapshot, with its parameters, to its snapshot
    times, and returns those times, the coefficient matrix and the
    oracle_gap of the trajectory's phi snapshots.
    """
    basis = make_basis(bundle.grid, modes)
    op = build_operator(basis, bundle, spec, traj.params)
    y0 = project_initial_data(traj.phis[0], traj.mus[0], traj.sigmas[0], basis)
    times, coeffs = integrate(y0, op, traj.params.T, t_eval=np.array(traj.times))
    return times, coeffs, oracle_gap(basis, times, coeffs, traj.phis)


def project_initial_data(phi0: Field, mu0: Field, sigma0: Field,
                         basis: SpectralBasis) -> np.ndarray:
    return np.concatenate(
        [project(phi0, basis), project(mu0, basis), project(sigma0, basis)]
    )


def write_coefficients_csv(path, times, coeffs, n: int):
    """CSV export: t, alpha_0.., beta_0.., gamma_0.. one row per time."""
    header = ["t"] + [f"{name}_{j}" for name in ("alpha", "beta", "gamma") for j in range(n)]
    table = np.column_stack([np.asarray(times, dtype=float), np.asarray(coeffs, dtype=float)])
    write_table(path, header, table.tolist())
