"""Uniform cell-centered grids with homogeneous Neumann operators.

The domain is a 1D interval or 2D rectangle sampled at cell centers.
Neumann conditions are realized by mirroring ghost cells across each
boundary face, which makes the discrete Laplacian symmetric, negative
semidefinite, and exactly conservative (its output sums to zero).

The module also provides the functional-analytic machinery built on the
Laplacian: the inverse Neumann Laplacian on zero-mean fields, the dual
(V*) norm through the Riesz map I - Laplacian, and the Poincare and
inclusion constants of the geometry in closed form. The type-II
discrete cosine transform diagonalizes the mirrored-ghost Laplacian
exactly, so every constant-coefficient Neumann solve is two transforms
against one cached per-grid spectrum.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import LinearOperator, cg

from .errors import CompatibilityError, ConfigError, DimensionError, SolverError

# normwise backward-error target of every checked linear solve:
# ||A x - b|| <= BACKWARD_TOL (||b|| + ||A||_inf ||x||)
BACKWARD_TOL = 1e-13
CG_ITER_FACTOR = 50

_MAGIC = b"NLCHF1"


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid on [0, extent_1] x ... with cell-centered samples."""

    dim: int
    extent: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if len(self.extent) != self.dim or len(self.cells) != self.dim:
            raise ConfigError("extent and cells must have one entry per axis")
        if any(e <= 0 for e in self.extent):
            raise ConfigError(f"extents must be positive, got {self.extent}")
        if any(c < 4 for c in self.cells):
            raise ConfigError(f"need at least 4 cells per axis, got {self.cells}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / c for e, c in zip(self.extent, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def size(self) -> int:
        n = 1
        for c in self.cells:
            n *= c
        return n

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    @property
    def measure(self) -> float:
        m = 1.0
        for e in self.extent:
            m *= e
        return m

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coordinates(k) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


class Field:
    """Scalar function sampled at the cell centers of a GridSpec.

    Values are stored as a flat float64 array in row-major order and are
    treated as immutable: all operations return new Fields.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values, check: bool = True):
        arr = np.asarray(values, dtype=float).reshape(-1).copy()
        if arr.size != grid.size:
            raise DimensionError(
                f"field has {arr.size} values but grid has {grid.size} cells"
            )
        if check and not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "Field":
        return cls(grid, np.full(grid.size, float(c)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        return cls(grid, fn(*grid.meshgrid()))

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def __repr__(self):
        return f"Field(grid={self.grid.cells}, min={self.values.min():.3g}, max={self.values.max():.3g})"


def _check_same_grid(f: Field, g: Field):
    if f.grid != g.grid:
        raise DimensionError("fields live on different grids")


def mean(f: Field) -> float:
    """Generalised mean value: integral over the domain divided by its measure."""
    return float(np.sum(f.values)) * f.grid.cell_volume / f.grid.measure


def inner_h(f: Field, g: Field) -> float:
    """L2 inner product by the midpoint rule."""
    _check_same_grid(f, g)
    return float(np.dot(f.values, g.values)) * f.grid.cell_volume


def norm_h(f: Field) -> float:
    return float(np.sqrt(max(inner_h(f, f), 0.0)))


def _lap_array(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mirrored-ghost five/three point Laplacian on the reshaped array."""
    v = vals.reshape(grid.shape)
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        h2 = grid.spacing[axis] ** 2
        d = np.empty_like(v)
        inner = [slice(None)] * grid.dim

        def sl(a, b):
            s = list(inner)
            s[axis] = slice(a, b)
            return tuple(s)

        d[sl(1, -1)] = v[sl(2, None)] - 2.0 * v[sl(1, -1)] + v[sl(None, -2)]
        d[sl(0, 1)] = v[sl(1, 2)] - v[sl(0, 1)]
        d[sl(-1, None)] = v[sl(-2, -1)] - v[sl(-1, None)]
        out += d / h2
    return out.reshape(-1)


def laplacian_neumann(f: Field) -> Field:
    """Second-order Laplacian with homogeneous Neumann (mirrored ghost) closure."""
    return Field(f.grid, _lap_array(f.values, f.grid))


def grad_sq_integral(f: Field) -> float:
    """Integral of |grad f|^2 from face-centered differences.

    Boundary faces contribute zero (Neumann mirror), interior faces carry
    the squared difference quotient; each face's contribution is split
    between its two cells, which makes the result identical to the
    summation-by-parts identity inner_h(-laplacian_neumann(f), f).
    """
    v = f.reshaped()
    total = 0.0
    for axis in range(f.grid.dim):
        h = f.grid.spacing[axis]
        d = np.diff(v, axis=axis) / h
        total += float(np.sum(d * d))
    return total * f.grid.cell_volume


def norm_h_grad(f: Field) -> float:
    return float(np.sqrt(max(grad_sq_integral(f), 0.0)))


def norm_v(f: Field) -> float:
    """Full H1 norm: (||f||_H^2 + ||grad f||_H^2)^(1/2)."""
    return float(np.sqrt(max(inner_h(f, f) + grad_sq_integral(f), 0.0)))


@functools.lru_cache(maxsize=32)
def _neumann_spectrum(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of -lap on the DCT-II basis, shaped like the grid.

    The mirrored-ghost Laplacian is diagonalized exactly by the type-II
    cosine transform; along an axis of n cells with spacing h the
    eigenvalues are 4/h^2 sin^2(pi k / 2n), k = 0..n-1, and they add
    across axes.
    """
    lam = np.zeros(grid.shape)
    for axis in range(grid.dim):
        n = grid.cells[axis]
        axis_lam = 4.0 / grid.spacing[axis] ** 2 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        lam = lam + axis_lam.reshape([n if a == axis else 1 for a in range(grid.dim)])
    lam.setflags(write=False)
    return lam


def _spectral_solve(grid: GridSpec, vals: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Apply (alpha*I - beta*lap)^(-1) through the cached DCT-II spectrum.

    With alpha = 0 the constant mode is dropped, which returns the
    zero-mean solution of the singular Neumann problem.
    """
    coef = dctn(vals.reshape(grid.shape), type=2, norm="ortho")
    denom = alpha + beta * _neumann_spectrum(grid)
    if alpha == 0.0:
        denom = denom.copy()
        denom.flat[0] = 1.0
        coef.flat[0] = 0.0
    return idctn(coef / denom, type=2, norm="ortho").reshape(-1)


def _lap_inf_norm(grid: GridSpec) -> float:
    """||lap||_inf of the mirrored-ghost Laplacian: 4/h^2 summed over axes."""
    return sum(4.0 / h**2 for h in grid.spacing)


def _checked_spectral_solve(grid: GridSpec, b: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Spectral solve of (alpha*I - beta*lap) x = b with a hard backward-error check.

    The relative residual ||A x - b|| / ||b|| of a backward-stable solve
    in floating point grows with ||A|| ||x|| / ||b||, about h^-2 for
    smooth data, so it is no reachable target on fine grids; the
    normwise backward error is.
    """
    x = _spectral_solve(grid, b, alpha, beta)
    res = float(np.linalg.norm(alpha * x - beta * _lap_array(x, grid) - b))
    anorm = abs(alpha) + beta * _lap_inf_norm(grid)
    bnorm = float(np.linalg.norm(b))
    bound = BACKWARD_TOL * (bnorm + anorm * float(np.linalg.norm(x)))
    if res > bound:
        raise SolverError(
            f"spectral solve residual {res:.3e} > backward-error bound {bound:.3e}",
            residual=res / bnorm,
        )
    return x


def _cg_solve(grid: GridSpec, apply_op, rhs: np.ndarray, rtol: float,
              anorm: float, precond) -> np.ndarray:
    """Preconditioned CG with zero initial guess and a hard backward-error check.

    The solve passes when ||A x - b|| <= rtol (||b|| + anorm ||x||), with
    anorm an upper bound of ||A||_inf: the normwise backward error, which
    floating point can reach even when the right-hand side is tiny.
    """
    n = grid.size
    op = LinearOperator((n, n), matvec=apply_op, dtype=float)
    pre = LinearOperator((n, n), matvec=precond, dtype=float)
    maxiter = CG_ITER_FACTOR * max(grid.cells)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    # the preconditioned right-hand side estimates ||x|| for the inner target
    xest = float(np.linalg.norm(precond(rhs)))
    x, _ = cg(op, rhs, rtol=0.0, atol=0.1 * rtol * (bnorm + anorm * xest),
              maxiter=maxiter, M=pre)
    res = float(np.linalg.norm(apply_op(x) - rhs))
    bound = rtol * (bnorm + anorm * float(np.linalg.norm(x)))
    if res > bound:
        raise SolverError(
            f"CG stalled: residual {res:.3e} > backward-error bound {bound:.3e} "
            f"after cap {maxiter}",
            residual=res / bnorm,
        )
    return x


def solve_neumann_poisson(rhs: Field) -> Field:
    """Solve -lap(u) = rhs with Neumann conditions, both sides zero-mean.

    Raises CompatibilityError when the right-hand side carries mass, and
    SolverError when the solution misses the residual target.
    """
    m = mean(rhs)
    nh = norm_h(rhs)
    if abs(m) > 1e-10 * nh:
        raise CompatibilityError(
            f"poisson rhs must have zero mean, got mean {m:.3e} vs norm {nh:.3e}"
        )
    grid = rhs.grid
    b = rhs.values - np.mean(rhs.values)
    x = _checked_spectral_solve(grid, b, 0.0, 1.0)
    x -= np.mean(x)
    return Field(grid, x)


def solve_helmholtz(f: Field, alpha: float, beta: float) -> Field:
    """Solve (alpha*I - beta*lap) u = f with Neumann conditions (alpha > 0, beta >= 0)."""
    if alpha <= 0 or beta < 0:
        raise ConfigError(f"need alpha > 0 and beta >= 0, got {alpha}, {beta}")
    grid = f.grid
    if beta == 0.0:
        return Field(grid, f.values / alpha)
    return Field(grid, _checked_spectral_solve(grid, f.values, alpha, beta))


def riesz_inverse(f: Field) -> Field:
    """Apply the inverse Riesz map (I - lap)^(-1)."""
    return solve_helmholtz(f, 1.0, 1.0)


def norm_vstar(f: Field) -> float:
    """Dual norm ||f||_* = inner_h(f, (I - lap)^(-1) f)^(1/2)."""
    u = riesz_inverse(f)
    return float(np.sqrt(max(inner_h(f, u), 0.0)))


def solve_shifted_diffusion(
    grid: GridSpec, diag: np.ndarray, lap_coeff: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (diag(d) - c*lap) u = rhs for d > 0 pointwise, c >= 0.

    1D calls LAPACK's tridiagonal gtsv on the three diagonals (the
    routine scipy's solve_banded dispatches to for one band each side);
    2D uses CG preconditioned by the spectral inverse at the mean
    diagonal, converged to a normwise backward error of 1e-13. This is
    the workhorse for the implicit pieces of the time stepper, so it is
    solved to near machine precision. Non-finite input raises SolverError.
    """
    d = np.asarray(diag, dtype=float).reshape(-1)
    if d.size == 1:
        d = np.full(grid.size, d[0])
    if not (np.isfinite(d).all() and np.isfinite(rhs).all()):
        raise SolverError("diffusion system has a non-finite diagonal or right-hand side")
    d_min = d.min()
    if d_min <= 0:
        raise SolverError(f"diffusion system not positive definite: min diag {d_min:.3e}")
    if lap_coeff == 0.0:
        return rhs / d
    if grid.dim == 1:
        n = grid.cells[0]
        h2 = grid.spacing[0] ** 2
        c = lap_coeff / h2
        main = d + 2.0 * c
        main[0] -= c
        main[-1] -= c
        off = np.full(n - 1, -c)
        # gtsv copies its inputs, so one array serves as both off-diagonals
        _, _, _, x, info = dgtsv(off, main, off, rhs)
        if info != 0:
            raise SolverError(f"tridiagonal solve failed: LAPACK gtsv info {info}")
        return x

    def apply_op(x):
        return d * x - lap_coeff * _lap_array(x, grid)

    d_mean = float(np.mean(d))

    def precond(r):
        return _spectral_solve(grid, r, d_mean, lap_coeff)

    anorm = float(np.max(d)) + lap_coeff * _lap_inf_norm(grid)
    return _cg_solve(grid, apply_op, rhs, BACKWARD_TOL, anorm, precond)


def estimate_poincare_constant(grid: GridSpec) -> float:
    """Poincare-Wirtinger constant of the geometry in closed form.

    The supremum of norm_v(v)^2 / (||grad v||^2 + mean(v)^2 * measure)
    is attained by the lowest cosine mode, an exact DCT-II eigenvector
    of the Laplacian, which gives 1 + 1/lambda_1. It tends to the
    continuum value 1 + (L/pi)^2 of the longest axis L under refinement.
    """
    lam = _neumann_spectrum(grid)
    # lambda_1: the first cosine mode along each axis, constant along the others
    lambda_1 = min(lam[tuple(int(a == axis) for a in range(grid.dim))]
                   for axis in range(grid.dim))
    return 1.0 + 1.0 / float(lambda_1)


def estimate_inclusion_constant(grid: GridSpec) -> float:
    """Norm of the inclusion H into V*: sup ||f||_* / ||f||_H = 1.

    The inverse Riesz map (I - lap)^(-1) has eigenvalues 1/(1 + lambda_k)
    <= 1, with equality on the constants, so K0 = 1 on every grid.
    """
    return 1.0


def write_field(path, f: Field):
    """Write a Field in the NLCHF1 little-endian binary snapshot format.

    Layout: magic "NLCHF1", uint32 dim, per-axis uint64 cell counts,
    per-axis float64 extents, then row-major float64 values.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", f.grid.dim))
        for c in f.grid.cells:
            fh.write(struct.pack("<Q", c))
        for e in f.grid.extent:
            fh.write(struct.pack("<d", e))
        fh.write(f.values.astype("<f8").tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _MAGIC:
            raise ConfigError(f"bad field snapshot magic {magic!r}")
        (dim,) = struct.unpack("<I", fh.read(4))
        cells = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(dim))
        extent = tuple(struct.unpack("<d", fh.read(8))[0] for _ in range(dim))
        grid = GridSpec(dim=dim, extent=extent, cells=cells)
        data = np.frombuffer(fh.read(8 * grid.size), dtype="<f8")
        if data.size != grid.size:
            raise ConfigError("truncated field snapshot")
        return Field(grid, data)


def write_field_csv(path, f: Field):
    """CSV export with cell-center coordinates, for plotting."""
    coords = f.grid.meshgrid()
    with open(path, "w") as fh:
        if f.grid.dim == 1:
            fh.write("x,value\n")
            for x, v in zip(coords[0].reshape(-1), f.values):
                fh.write(f"{x:.17g},{v:.17g}\n")
        else:
            fh.write("x,y,value\n")
            xs = coords[0].reshape(-1)
            ys = coords[1].reshape(-1)
            for x, y, v in zip(xs, ys, f.values):
                fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")
