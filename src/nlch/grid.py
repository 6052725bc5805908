"""Uniform cell-centered grids with homogeneous Neumann operators.

The domain is a 1D interval or 2D rectangle sampled at cell centers.
Neumann conditions are realized by mirroring ghost cells across each
boundary face, which makes the discrete Laplacian symmetric, negative
semidefinite, and exactly conservative (its output sums to zero).

The module also provides the functional-analytic machinery built on the
Laplacian: the dual (V*) norm through the Riesz map I - Laplacian, and
the Poincare constant of the geometry in closed form.
Every Neumann solve goes through solve_shifted_diffusion: in 1D one
call of LAPACK's tridiagonal gtsv, in 2D one preconditioned CG over all
rows. The type-II discrete cosine transform diagonalizes the
mirrored-ghost Laplacian exactly, so the CG's preconditioner, two
transforms against one cached per-grid spectrum, is the exact inverse
of a constant-coefficient system.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import os
import struct
import sys

import numpy as np

from .errors import ConfigError, DimensionError, SolverError


def _load_flapack():
    """scipy's compiled LAPACK module _flapack, without importing scipy.linalg.

    Importing the scipy.linalg package took about 0.3 s on a 2-vCPU VM,
    most of a short 1D run; loading its extension module alone takes a
    few milliseconds.
    The module is registered under its own name, so a later scipy.linalg
    import reuses it and scipy.linalg.lapack.dgtsv is this same function.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension {name} is not in {root}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


_flapack = _load_flapack()
# the tridiagonal solve of every 1D Neumann system, and the LU pair of
# the spectral oracle's BDF integrator (galerkin)
dgtsv, dgetrf, dgetrs = _flapack.dgtsv, _flapack.dgetrf, _flapack.dgetrs

# normwise backward-error target of every Neumann solve (_backward_error_gate)
BACKWARD_TOL = 1e-13
# the 2D CG's iteration cap per cell along the longest axis
CG_ITER_FACTOR = 50

_MAGIC = b"NLCHF1"


class GridSpec:
    """Uniform rectangular grid on [0, extent_1] x ... with cell-centered samples.

    Immutable, and equal and hashed by (dim, extent, cells): grids key the
    per-grid caches (_neumann_spectrum, _field_csv_template).
    """

    # spacing, size, cell_volume and measure are derived once per grid:
    # the stepper reads them on every call
    __slots__ = ("dim", "extent", "cells", "spacing", "size", "cell_volume", "measure")

    def __init__(self, dim: int, extent: tuple[float, ...], cells: tuple[int, ...]):
        if dim not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {dim}")
        extent = tuple(float(e) for e in extent)
        cells = tuple(int(c) for c in cells)
        if len(extent) != dim or len(cells) != dim:
            raise ConfigError("extent and cells must have one entry per axis")
        if any(e <= 0 for e in extent):
            raise ConfigError(f"extents must be positive, got {extent}")
        if any(c < 4 for c in cells):
            raise ConfigError(f"need at least 4 cells per axis, got {cells}")
        spacing = tuple(e / c for e, c in zip(extent, cells))
        size, cell_volume, measure = 1, 1.0, 1.0
        for c, h, e in zip(cells, spacing, extent):
            size *= c
            cell_volume *= h
            measure *= e
        for name, value in (("dim", dim), ("extent", extent), ("cells", cells),
                            ("spacing", spacing), ("size", size),
                            ("cell_volume", cell_volume), ("measure", measure)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GridSpec is immutable")

    def _key(self):
        return self.dim, self.extent, self.cells

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is GridSpec else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GridSpec(dim={self.dim}, extent={self.extent}, cells={self.cells})"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

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
    return h_norms(f.grid, f.values[None])[0]


def h_norms(grid: GridSpec, rows: np.ndarray) -> list[float]:
    """norm_h of each row of a (rows, cells) array."""
    return np.sqrt(np.maximum(np.vecdot(rows, rows) * grid.cell_volume, 0.0)).tolist()


def _lap_array(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mirrored-ghost five/three point Laplacian of flat samples.

    Leading axes of ``vals`` are rows, each a field of its own: every row
    gets the arithmetic of a call on that row alone.
    """
    if grid.dim == 1:
        # the transposes put the cells first, so rows need no ellipsis indexing
        d = np.empty_like(vals)
        vc, dc = vals.T, d.T
        dc[1:-1] = vc[2:] - 2.0 * vc[1:-1] + vc[:-2]
        dc[0] = vc[1] - vc[0]
        dc[-1] = vc[-2] - vc[-1]
        return d / grid.spacing[0] ** 2
    v = vals.reshape(vals.shape[:-1] + grid.shape)
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        # the 1D branch's second difference on views that put this axis first
        d = np.empty_like(v)
        vc, dc = v.swapaxes(0, axis - grid.dim), d.swapaxes(0, axis - grid.dim)
        dc[1:-1] = vc[2:] - 2.0 * vc[1:-1] + vc[:-2]
        dc[0] = vc[1] - vc[0]
        dc[-1] = vc[-2] - vc[-1]
        out += d / grid.spacing[axis] ** 2
    return out.reshape(vals.shape)


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
    return _grad_sq_sums(f.grid, f.values[None])[0] * f.grid.cell_volume


def _grad_sq_sums(grid: GridSpec, rows: np.ndarray) -> list[float]:
    """grad_sq_integral of each row of a (rows, cells) array, over the cell volume."""
    blocks = rows.reshape((len(rows),) + grid.shape)
    totals = [0.0] * len(rows)
    for axis in range(grid.dim):
        d = np.diff(blocks, axis=axis + 1) / grid.spacing[axis]
        totals = [total + float(np.sum(row)) for total, row in zip(totals, d * d)]
    return totals


def norm_h_grad(f: Field) -> float:
    return float(np.sqrt(max(grad_sq_integral(f), 0.0)))


def norm_v(f: Field) -> float:
    """Full H1 norm: (||f||_H^2 + ||grad f||_H^2)^(1/2)."""
    return v_norms(f.grid, f.values[None])[0]


def v_norms(grid: GridSpec, rows: np.ndarray) -> list[float]:
    """norm_v of each row of a (rows, cells) array."""
    cellvol = grid.cell_volume
    return [float(np.sqrt(max(d * cellvol + g * cellvol, 0.0)))
            for d, g in zip(np.vecdot(rows, rows).tolist(), _grad_sq_sums(grid, rows))]


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


def _spectral_solve(grid: GridSpec, vals: np.ndarray, alpha: float | np.ndarray,
                    beta: float) -> np.ndarray:
    """Apply (alpha*I - beta*lap)^(-1), alpha > 0, through the cached DCT-II spectrum.

    It preconditions the 2D CG (see _cg_solve). Leading axes of ``vals``
    are rows, transformed along the grid axes in one call; ``alpha`` is a
    scalar or a (rows, 1) column, one shift per row. Each row's result is
    bitwise that of a call on the row alone.
    """
    from scipy.fft import dctn, idctn

    axes = tuple(range(-grid.dim, 0))
    coef = dctn(vals.reshape(vals.shape[:-1] + grid.shape), type=2, norm="ortho", axes=axes)
    alpha = np.reshape(alpha, np.shape(alpha)[:-1] + (1,) * grid.dim)
    denom = alpha + beta * _neumann_spectrum(grid)
    return idctn(coef / denom, type=2, norm="ortho", axes=axes).reshape(vals.shape)


def _lap_inf_norm(grid: GridSpec) -> float:
    """||lap||_inf of the mirrored-ghost Laplacian: 4/h^2 summed over axes."""
    return sum(4.0 / h**2 for h in grid.spacing)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """2-norm of each row, as np.linalg.norm of the row alone (a BLAS dot)."""
    return np.sqrt(np.vecdot(v, v))


def _backward_bound(grid: GridSpec, d, c: float, b: np.ndarray, x: np.ndarray,
                    tol: float = BACKWARD_TOL) -> np.ndarray:
    """tol (||b|| + ||A||_inf ||x||) per row, for A = diag(d) - c*lap.

    ||A||_inf is bounded by max d + c ||lap||_inf.
    """
    anorm = np.max(np.atleast_1d(d), axis=-1) + c * _lap_inf_norm(grid)
    return tol * (_row_norms(b) + anorm * _row_norms(x))


def _backward_error_gate(grid: GridSpec, d, c: float, b: np.ndarray, x: np.ndarray, what: str):
    """Raise SolverError unless every row of x solves (diag(d) - c*lap) x = b
    to a normwise backward error of BACKWARD_TOL:
    ||d x - c lap x - b|| <= BACKWARD_TOL (||b|| + ||A||_inf ||x||).

    The relative residual ||A x - b|| / ||b|| of a backward-stable solve
    in floating point grows with ||A|| ||x|| / ||b||, about h^-2 for
    smooth data, so it is no reachable target on fine grids; the
    normwise backward error is, even for a tiny right-hand side.
    """
    res = _row_norms(d * x - c * _lap_array(x, grid) - b)
    bound = _backward_bound(grid, d, c, b, x)
    if np.any(res > bound):
        worst = int(np.argmax(res - bound))
        res, bound, bnorm = (np.ravel(v)[worst] for v in (res, bound, _row_norms(b)))
        raise SolverError(f"{what}: residual {res:.3e} > backward-error bound {bound:.3e}",
                          residual=float(res / bnorm))


def _checked_neumann_solve(grid: GridSpec, b: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Solve (alpha*I - beta*lap) x = b by solve_shifted_diffusion, with
    every row's backward error checked (_backward_error_gate): here in
    1D, by the CG's own gate in 2D (_cg_solve)."""
    x = solve_shifted_diffusion(grid, alpha, beta, b)
    if grid.dim == 1:
        _backward_error_gate(grid, alpha, beta, b, x, "Neumann solve")
    return x


def cg(apply_op, b: np.ndarray, precond, atol: np.ndarray, maxiter: int,
       callback=None) -> np.ndarray:
    """Preconditioned conjugate gradients on every row of a (rows, n) batch, from x = 0.

    ``apply_op`` and ``precond`` act on a whole batch, row by row. Row k
    stops once its recursive residual norm is at most atol[k], so a zero
    row stops at iteration 0; every row stops after ``maxiter``
    iterations. A stopped row is frozen with np.where while the others
    go on, and dot products are np.vecdot on each row, so each row's
    result is bitwise that of a call on the row alone, and repeats the
    arithmetic of scipy's cg on it. ``callback(x)`` runs once per
    iteration of the batch.
    """
    x = np.zeros_like(b)
    r, p, rho_old = b, None, None
    going = _row_norms(r) > atol
    for _ in range(maxiter):
        if not going.any():
            break
        z = precond(r)
        rho = np.vecdot(r, z)
        # a stopped zero row divides 0 by 0 below; np.where drops its values
        with np.errstate(invalid="ignore"):
            p = z if p is None else z + (rho / rho_old)[:, None] * p
            q = apply_op(p)
            alpha = (rho / np.vecdot(p, q))[:, None]
        x = np.where(going[:, None], x + alpha * p, x)
        r = np.where(going[:, None], r - alpha * q, r)
        rho_old = rho
        if callback is not None:
            callback(x)
        going &= _row_norms(r) > atol
    return x


def _cg_solve(grid: GridSpec, d: np.ndarray, lap_coeff: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(d) - c*lap) x = rhs for (rows, cells) arrays by one batched cg.

    Each row is preconditioned by the DCT inverse at its mean diagonal,
    exact for a constant diagonal, and stops once its recursive residual
    is a tenth of its backward-error bound, with the preconditioned
    right-hand side standing in for x. The gate (_backward_error_gate)
    then checks each row's true residual; a row that misses it, as one
    stopped by the cap of CG_ITER_FACTOR * max(cells) iterations does,
    fails the whole batch with SolverError.
    """
    d_mean = np.mean(d, axis=-1, keepdims=True)

    def apply_op(x):
        return d * x - lap_coeff * _lap_array(x, grid)

    z_rhs = _spectral_solve(grid, rhs, d_mean, lap_coeff)

    def precond(r):
        # cg's first residual is rhs itself, whose preconditioned value is known
        return z_rhs if r is rhs else _spectral_solve(grid, r, d_mean, lap_coeff)

    atol = _backward_bound(grid, d, lap_coeff, rhs, z_rhs, 0.1 * BACKWARD_TOL)
    maxiter = CG_ITER_FACTOR * max(grid.cells)
    x = cg(apply_op, rhs, precond, atol, maxiter)
    _backward_error_gate(grid, d, lap_coeff, rhs, x, f"CG stalled after cap {maxiter}")
    return x


def solve_helmholtz(f: Field, alpha: float, beta: float) -> Field:
    """Solve (alpha*I - beta*lap) u = f with Neumann conditions (alpha > 0, beta >= 0)."""
    if alpha <= 0 or beta < 0:
        raise ConfigError(f"need alpha > 0 and beta >= 0, got {alpha}, {beta}")
    return Field(f.grid, _checked_neumann_solve(f.grid, f.values, alpha, beta))


def norm_vstar(f: Field) -> float:
    """Dual norm ||f||_* = inner_h(f, (I - lap)^(-1) f)^(1/2)."""
    return dual_norms(f.grid, f.values[None])[0]


def dual_norms(grid: GridSpec, rows: np.ndarray) -> list[float]:
    """norm_vstar of each row of a (rows, cells) array, from one batched Riesz solve."""
    u = _checked_neumann_solve(grid, rows, 1.0, 1.0)
    return np.sqrt(np.maximum(np.vecdot(rows, u) * grid.cell_volume, 0.0)).tolist()


_NON_FINITE_INPUT = "diffusion system has a non-finite diagonal or right-hand side"


@functools.lru_cache(maxsize=32)
def _off_diagonal(rows: int, n: int, c: float) -> np.ndarray:
    """Read-only off-diagonal of ``rows`` stacked n-cell 1D diffusion matrices.

    It is -c within each matrix and zero at the joins, so the stacked
    system is block diagonal; LAPACK's elimination then passes each join
    unchanged, and every block's solution is bitwise that of its own solve.
    """
    off = np.full(rows * n - 1, -c)
    off[n - 1::n] = 0.0
    off.setflags(write=False)
    return off


def solve_shifted_diffusion(
    grid: GridSpec, diag: np.ndarray, lap_coeff: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (diag(d) - c*lap) u = rhs for d > 0 pointwise, c >= 0.

    ``rhs`` holds one system or a (rows, cells) stack of them, with
    ``diag`` of the same shape (or one that broadcasts to it, a scalar
    for the constant-coefficient solves). 1D calls LAPACK's tridiagonal
    gtsv once on the block-diagonal system of all rows (the routine
    scipy's solve_banded dispatches to for one band each side); it serves
    the stepper's implicit pieces and every 1D solve_helmholtz and dual
    norm. 2D runs one preconditioned CG over all rows (_cg_solve), each
    converged to a normwise backward error of BACKWARD_TOL; a
    constant-coefficient solve takes one iteration. Non-finite input, or
    a non-finite solution, raises SolverError.

    The diagonal is checked by its extrema. A direct solve with a finite
    positive diagonal turns a non-finite right-hand side into a
    non-finite solution, so one scan of the solution checks both; the
    CG, which would freeze a non-finite row at zero, checks its
    right-hand side first.
    """
    d = np.asarray(diag, dtype=float)
    if d.shape != rhs.shape:
        d = np.broadcast_to(d, rhs.shape)
    d_min, d_max = d.min(), d.max()
    if not -np.inf < d_min <= d_max < np.inf:  # NaN fails every comparison
        raise SolverError(_NON_FINITE_INPUT)
    if d_min <= 0:
        raise SolverError(f"diffusion system not positive definite: min diag {d_min:.3e}")
    if lap_coeff == 0.0:
        x = rhs / d
    elif grid.dim == 1:
        n = grid.cells[0]
        c = lap_coeff / grid.spacing[0] ** 2
        main = d + 2.0 * c
        ends = main.T
        ends[0] -= c
        ends[-1] -= c
        off = _off_diagonal(rhs.size // n, n, c)
        # gtsv copies its inputs, so one array serves as both off-diagonals
        _, _, _, x, info = dgtsv(off, main.ravel(), off, rhs.ravel())
        if info != 0:
            raise SolverError(f"tridiagonal solve failed: LAPACK gtsv info {info}")
        if rhs.ndim != 1:
            x = x.reshape(rhs.shape)
    else:
        if not np.isfinite(rhs).all():
            raise SolverError(_NON_FINITE_INPUT)
        rows = rhs.reshape(-1, grid.size)
        x = _cg_solve(grid, d.reshape(rows.shape), lap_coeff, rows).reshape(rhs.shape)
    if not np.isfinite(x).all():
        raise SolverError(_NON_FINITE_INPUT if not np.isfinite(rhs).all()
                          else "diffusion solve returned non-finite values")
    return x


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
    """Read a write_field snapshot; a malformed file is a ConfigError naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != _MAGIC:
        raise ConfigError(f"bad field snapshot magic {raw[:6]!r} in {path}")
    try:
        (dim,) = struct.unpack_from("<I", raw, 6)
        cells = struct.unpack_from(f"<{dim}Q", raw, 10)
        extent = struct.unpack_from(f"<{dim}d", raw, 10 + 8 * dim)
    except struct.error:
        raise ConfigError(f"truncated field snapshot header in {path}") from None
    grid = GridSpec(dim=dim, extent=extent, cells=cells)
    values = raw[10 + 16 * dim:]
    if len(values) != 8 * grid.size:
        raise ConfigError(f"field snapshot {path} does not hold {grid.size} values")
    return Field(grid, np.frombuffer(values, dtype="<f8"))


@functools.lru_cache(maxsize=8)
def _field_csv_template(grid: GridSpec) -> str:
    """write_field_csv's text on ``grid``: the header and each cell's
    coordinates formatted, and a %.17g slot for each value."""
    coords = np.column_stack([c.reshape(-1) for c in grid.meshgrid()]).tolist()
    line = "%.17g," * grid.dim + "%%.17g\n"
    return (",".join([*"xy"[:grid.dim], "value"]) + "\n"
            + (line * grid.size) % tuple(itertools.chain.from_iterable(coords)))


def write_field_csv(path, f: Field):
    """CSV export with cell-center coordinates, for plotting: write_table's
    format, with each grid's coordinate columns formatted once."""
    text = _field_csv_template(f.grid) % tuple(f.values.tolist())
    with open(path, "w") as fh:
        fh.write(text)


def _cell_format(v) -> str:
    return "%s" if isinstance(v, str) else "%.17g"


def write_table(path, header, rows, footer=()):
    """Write the CSV table format shared by every nlch table.

    One header line of column names, one line per row of ``rows``, then
    one ``# key,value`` line per ``(key, value)`` pair of ``footer``.
    Numbers are written as %.17g, which round-trips a float64 and writes
    integers and booleans as whole numbers (True as 1); strings are
    written as they are. A column's format is read off the first row,
    so all rows are formatted in one pass.
    """
    text = ",".join(header) + "\n"
    if rows:
        row = ",".join(map(_cell_format, rows[0])) + "\n"
        text += row * len(rows) % tuple(itertools.chain.from_iterable(rows))
    text += "".join(("# %s," + _cell_format(v) + "\n") % (k, v) for k, v in footer)
    with open(path, "w") as fh:
        fh.write(text)
