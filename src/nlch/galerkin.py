"""Spectral Faedo-Galerkin oracle on a 1D interval.

Projects the doubly regularized system (eps, tau > 0) onto the first n
Neumann-Laplacian eigenfunctions and integrates the resulting ODE system
with the implicit variable-order BDF method. The projected system is
stiff (its fastest rates grow like lambda_n / eps), so an explicit
integrator would be held to tiny steps by stability, not accuracy. The
oracle exists to cross-validate the finite-difference stepper at fixed
mode count and Yosida parameter.

All nonlinear integrals use the same cell-centered midpoint quadrature
as the finite-difference solver, so the two paths discretize identical
operators and can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComparisonError,
    ConfigError,
    DimensionError,
    InapplicabilityError,
    StiffnessError,
)
from .grid import Field, GridSpec
from .kernel import KernelBundle
from .model import ModelParams
from .potential import PotentialSpec, f_prime_regularized


@dataclass(frozen=True)
class SpectralBasis:
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

    Midpoint quadrature is exact for products of these modes as long as
    n does not exceed the cell count, so discrete orthonormality holds to
    machine precision.
    """
    if grid.dim != 1:
        raise ConfigError("the spectral oracle is one-dimensional")
    if n < 1 or n > grid.cells[0]:
        raise ConfigError(f"mode count must lie in [1, cells]; got {n} with {grid.cells[0]} cells")
    L = grid.extent[0]
    x = grid.axis_coordinates(0)
    funcs = np.empty((grid.cells[0], n))
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


@dataclass(frozen=True)
class GalerkinOperator:
    """Precomputed matrices of the projected system."""

    basis: SpectralBasis
    bundle: KernelBundle
    spec: PotentialSpec
    params: ModelParams
    mat_a: np.ndarray  # int a e_i e_j
    mat_conv: np.ndarray  # int (J*e_j) e_i
    ss_coeff: np.ndarray  # int sigma_S e_i


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
    conv_cols = np.column_stack([bundle.convolve_array(E[:, j]) for j in range(basis.n)])
    mat_conv = E.T @ conv_cols * w
    ss_coeff = E.T @ np.full(basis.grid.size, params.sigma_s) * w
    return GalerkinOperator(
        basis=basis, bundle=bundle, spec=spec, params=params, mat_a=mat_a, mat_conv=mat_conv,
        ss_coeff=ss_coeff,
    )


def split_coeffs(y: np.ndarray, n: int):
    return y[:n], y[n : 2 * n], y[2 * n :]


def ode_rhs(t: float, y: np.ndarray, op: GalerkinOperator) -> np.ndarray:
    """Time derivatives (alpha', beta', gamma') of the projected system.

    The mu-relation is algebraic in alpha' and is solved first; the
    result feeds the mass and nutrient equations. ``y`` is one state of
    3n coefficients, or a (3n, k) block of k states, one per column.
    """
    basis, params, spec = op.basis, op.params, op.spec
    n = basis.n
    alpha, beta, gamma = split_coeffs(y, n)
    E, w = basis.functions, basis.weight
    # eigenvalues and the nutrient source as columns, to scale a block row-wise
    l = basis.eigenvalues.reshape((n,) + (1,) * (y.ndim - 1))

    phi = E @ alpha
    sig = E @ gamma
    h_phi = params.h(phi)

    nf = E.T @ np.asarray(f_prime_regularized(spec, params.lam_eff, phi)) * w
    alpha_dot = (
        beta - op.mat_a @ alpha + op.mat_conv @ alpha - nf + params.chi * gamma
    ) / params.tau

    source = E.T @ ((params.P * sig - params.A) * h_phi) * w
    beta_dot = (source - l * beta - alpha_dot) / params.eps

    ss_coeff = op.ss_coeff.reshape(l.shape)
    consume = E.T @ (h_phi * sig) * w
    gamma_dot = (
        -l * gamma - params.B * (gamma - ss_coeff) - params.C * consume
        + params.eta * l * alpha
    )
    return np.concatenate([alpha_dot, beta_dot, gamma_dot])


# relative forward-difference step of the oracle's Jacobian: the square
# root of the unit roundoff balances truncation against cancellation
_FD_STEP = float(np.sqrt(np.finfo(float).eps))


def fd_jacobian(t: float, y: np.ndarray, op: GalerkinOperator) -> np.ndarray:
    """Forward-difference Jacobian of ode_rhs, all columns from one call.

    Column j perturbs y_j by h_j = sqrt(eps) max(|y_j|, 1), rounded so
    that y_j + h_j - y_j is exact; one ode_rhs call evaluates the
    unperturbed state and every perturbed one as columns of a block.
    """
    y = np.asarray(y, dtype=float)
    h = _FD_STEP * np.maximum(np.abs(y), 1.0)
    h = (y + h) - y
    block = np.repeat(y[:, None], y.size + 1, axis=1)
    block[np.arange(y.size), np.arange(1, y.size + 1)] += h
    f = ode_rhs(t, block, op)
    return (f[:, 1:] - f[:, :1]) / h


def integrate(init_coeffs: np.ndarray, op: GalerkinOperator, T: float,
              t_eval, rtol: float = 1e-8, atol: float = 1e-10):
    """Implicit BDF integration; returns (times, coefficient matrix).

    The Newton iterations use fd_jacobian, a finite difference of
    ode_rhs, so the oracle shares no linearization with the
    finite-difference stepper. The coefficient matrix has one row per
    output time. Integrator failure raises StiffnessError suggesting
    larger eps/tau or fewer modes.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        ode_rhs,
        (0.0, T),
        np.asarray(init_coeffs, dtype=float),
        args=(op,),
        method="BDF",
        jac=fd_jacobian,
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise StiffnessError(
            f"BDF integrator of the spectral oracle failed: {sol.message.rstrip('.')}; "
            "consider larger eps/tau or a smaller mode count"
        )
    return sol.t, sol.y.T


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
    header = (
        ["t"]
        + [f"alpha_{j}" for j in range(n)]
        + [f"beta_{j}" for j in range(n)]
        + [f"gamma_{j}" for j in range(n)]
    )
    table = np.column_stack([np.asarray(times, dtype=float), np.asarray(coeffs, dtype=float)])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + row * len(table) % tuple(table.ravel().tolist()))
