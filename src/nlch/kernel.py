"""Discrete convolution operator v -> J*v restricted to the domain.

The integral (J*v)(x) = int_Omega J(x-y) v(y) dy is discretized by the
midpoint rule on the cell centers, which is a linear (non-circular)
convolution of the sample vector with the kernel tabulated on the
difference set of the grid. The fast path evaluates it exactly through
zero-padded FFTs; zero padding (not periodic wrap-around) realizes the
zero extension of v outside the domain.

Building a bundle also computes the kernel constants that gate the
model's admissible parameter ranges: the convolved-one field a = J*1,
its infimum a_*, the absolute bounds a^* and b^*, c_a, and from these
the epsilon_0 threshold.
"""

from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, irfftn, rfft, rfftn

from .errors import ConfigError, DimensionError
from .grid import Field, GridSpec


class KernelSpec:
    """Radial convolution kernel selected by family.

    Families:
      gaussian            J(z) = normalization * exp(-|z|^2 / (2 width^2))
      newtonian           J(z) = normalization / sqrt(|z|^2 + delta^2), cut off at |z| > cutoff
      tabulated           J(z) = normalization * interp(|z|) from (radius, value) samples
    All families are radial, hence even, so the operator is self-adjoint.
    """

    __slots__ = ("family", "width", "delta", "cutoff", "normalization", "table")

    def __init__(self, family: str, width: float = 1.0, delta: float = 0.1,
                 cutoff: float = np.inf, normalization: float = 1.0,
                 table: tuple[tuple[float, ...], tuple[float, ...]] | None = None):
        if family not in ("gaussian", "newtonian", "tabulated"):
            raise ConfigError(f"unknown kernel family {family!r}")
        if family == "gaussian" and width <= 0:
            raise ConfigError("gaussian kernel needs width > 0")
        if family == "newtonian":
            if delta <= 0:
                raise ConfigError(
                    "newtonian kernel needs regularization delta > 0 "
                    "(the raw kernel is singular on the grid)"
                )
            if cutoff <= 0:
                raise ConfigError("newtonian kernel needs cutoff > 0")
        if family == "tabulated":
            if table is None:
                raise ConfigError("tabulated kernel needs a (radii, values) table")
            radii = np.asarray(table[0], dtype=float)
            vals = np.asarray(table[1], dtype=float)
            if radii.size != vals.size or radii.size < 2:
                raise ConfigError("kernel table needs matching radius/value columns")
            if not np.all(np.isfinite(vals)):
                raise ConfigError("kernel table values must be finite")
            if np.any(np.diff(radii) <= 0):
                raise ConfigError("kernel table radii must be strictly increasing")
        # the profile squares a gaussian's width and a newtonian's delta
        for name, value, owner in (("width", width, "gaussian"), ("delta", delta, "newtonian")):
            if family == owner and np.isfinite(value) and value * value == np.inf:
                raise ConfigError(f"kernel.{name} = {value:g} is too large to square")
        self.family, self.width, self.delta = family, width, delta
        self.cutoff, self.normalization, self.table = cutoff, normalization, table

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Kernel value as a function of radius (normalization included)."""
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            out = np.exp(-0.5 * (r / self.width) ** 2)
        elif self.family == "newtonian":
            out = 1.0 / np.sqrt(r * r + self.delta**2)
            out = np.where(r <= self.cutoff, out, 0.0)
        else:
            radii = np.asarray(self.table[0], dtype=float)
            vals = np.asarray(self.table[1], dtype=float)
            out = np.interp(r, radii, vals, left=vals[0], right=0.0)
        return self.normalization * out

    def gradient_magnitude(self, r: np.ndarray) -> np.ndarray:
        """|grad J| as a function of radius; finite differences for tables."""
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            out = (r / self.width**2) * np.exp(-0.5 * (r / self.width) ** 2)
        elif self.family == "newtonian":
            out = r / np.power(r * r + self.delta**2, 1.5)
            out = np.where(r <= self.cutoff, out, 0.0)
        else:
            radii = np.asarray(self.table[0], dtype=float)
            vals = np.asarray(self.table[1], dtype=float)
            slope = np.abs(np.gradient(vals, radii))
            out = np.interp(r, radii, slope, left=slope[0], right=0.0)
        return abs(self.normalization) * out

    def is_radially_nonincreasing(self) -> bool:
        if self.family in ("gaussian", "newtonian"):
            return self.normalization >= 0
        vals = np.asarray(self.table[1], dtype=float) * np.sign(self.normalization or 1.0)
        return bool(np.all(np.diff(vals) <= 1e-14))


def next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target, as scipy.fft.next_fast_len."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _FastConvolution:
    """Cached zero-padded real FFT plan for one (kernel, grid) pair.

    The plan is read-only after construction. numpy's transforms pad
    each sample block with zeros to the plan's length inside the
    transform. On one axis the plan calls rfft/irfft, which numpy's
    rfftn/irfftn call there with the same arguments, at less per-call
    cost; a 1D plan is bitwise scipy.fft's.
    """

    def __init__(self, kernel_table: np.ndarray, grid: GridSpec):
        shape = grid.shape
        # kernel_table has shape (2n-1, ...) indexed by offset d + (n-1)
        self._pad = tuple(next_fast_len(2 * n - 1) for n in shape)
        self._axes = tuple(range(-len(shape), 0))
        self._shape = shape
        self._window = (Ellipsis, *(slice(n - 1, 2 * n - 1) for n in shape))
        self._khat = rfftn(kernel_table, s=self._pad, axes=self._axes)

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """J*v of flat samples; leading axes are rows, transformed in one call.

        Each row's result is bitwise that of a call on the row alone.
        """
        if len(self._shape) == 1:
            (pad,) = self._pad
            return irfft(rfft(vals, pad) * self._khat, pad)[self._window]
        v = vals.reshape(vals.shape[:-1] + self._shape)
        vhat = rfftn(v, s=self._pad, axes=self._axes)
        out = irfftn(vhat * self._khat, s=self._pad, axes=self._axes)
        return out[self._window].reshape(vals.shape)


def _offset_radii(grid: GridSpec) -> np.ndarray:
    """Radii |x_i - x_j| on the difference set, shape (2n-1, ...)."""
    axes = [np.arange(-(n - 1), n) * h for n, h in zip(grid.cells, grid.spacing)]
    return np.sqrt(sum(d * d for d in np.meshgrid(*axes, indexing="ij")))


class KernelBundle(NamedTuple):
    """Ready-to-apply convolution operator plus the derived constants."""

    spec: KernelSpec
    grid: GridSpec
    a_field: Field
    a_star: float
    a_sup: float
    b_sup: float
    c_a: float
    fast: _FastConvolution

    def convolve_array(self, vals: np.ndarray) -> np.ndarray:
        """Fast path on raw sample arrays (same quadrature as convolve)."""
        return self.fast.apply(vals)


def build(spec: KernelSpec, grid: GridSpec) -> KernelBundle:
    """Tabulate the kernel on the difference set and derive the constants.

    a^* and b^* are suprema over cell centers of the midpoint quadrature
    of |J| and |grad J| shifted to each x; they reuse the fast plan since
    the per-x integrals are themselves convolutions with the constant-one
    field.
    """
    radii = _offset_radii(grid)
    ktab = spec.profile(radii) * grid.cell_volume
    if not np.all(np.isfinite(ktab)):
        raise ConfigError("kernel is not finite on the grid difference set")
    fast = _FastConvolution(ktab, grid)

    ones = np.ones(grid.size)
    a_vals = fast.apply(ones)
    a_star = float(np.min(a_vals))

    abs_fast = _FastConvolution(np.abs(ktab), grid)
    a_sup = float(np.max(abs_fast.apply(ones)))

    gtab = spec.gradient_magnitude(radii) * grid.cell_volume
    grad_fast = _FastConvolution(gtab, grid)
    b_sup = float(np.max(grad_fast.apply(ones)))

    # epsilon_zero squares a^* + b^*
    ab = a_sup + b_sup
    if np.isfinite(ab) and ab * ab == np.inf:
        raise ConfigError(f"kernel constants a^* + b^* = {ab:.3g} are too large to square; "
                          "lower kernel.normalization")
    c_a = max(a_sup - a_star, 1.0)
    return KernelBundle(
        spec=spec,
        grid=grid,
        a_field=Field(grid, a_vals),
        a_star=a_star,
        a_sup=a_sup,
        b_sup=b_sup,
        c_a=c_a,
        fast=fast,
    )


def convolve(bundle: KernelBundle, v: Field) -> Field:
    """J*v with the integral over the domain only (zero extension outside)."""
    if v.grid != bundle.grid:
        raise DimensionError("field grid does not match the kernel bundle")
    return Field(bundle.grid, bundle.fast.apply(v.values))


def convolve_direct(bundle: KernelBundle, v: Field) -> Field:
    """Reference O(n^2) quadrature path; used to certify the fast plan."""
    if v.grid != bundle.grid:
        raise DimensionError("field grid does not match the kernel bundle")
    grid = bundle.grid
    radii = _offset_radii(grid)
    ktab = bundle.spec.profile(radii) * grid.cell_volume
    vals = v.reshaped()
    out = np.empty(grid.shape)
    for idx in np.ndindex(grid.shape):
        # J(x_idx - x_j) for every cell j: offset i - j is stored at i - j + n - 1
        block = ktab[np.ix_(*(i + n - 1 - np.arange(n) for i, n in zip(idx, grid.shape)))]
        out[idx] = np.sum(block * vals)
    return Field(grid, out.reshape(-1))


def nonlocal_energy_density(bundle: KernelBundle, phi: Field) -> float:
    """Interaction energy 0.5 * int (a phi - J*phi) phi.

    Equals the double integral (1/4) iint J(x-y) |phi(x)-phi(y)|^2 for
    even kernels; zero for constants, and bounded below by
    (a_star - a_sup)/2 * ||phi||_H^2.
    """
    (e,) = nonlocal_energy_rows(bundle, phi.values[None], convolve(bundle, phi).values[None])
    return e


def nonlocal_energy_rows(bundle: KernelBundle, phi: np.ndarray, conv_phi: np.ndarray) -> list:
    """nonlocal_energy_density of each row of a (k, cells) stack phi, given its J*phi."""
    interact = bundle.a_field.values * phi - conv_phi
    return (0.5 * (np.vecdot(interact, phi) * bundle.grid.cell_volume)).tolist()


class EpsilonZero(NamedTuple):
    value: float
    branch_ca: float
    branch_astar: float
    branch_k0: float


def epsilon_zero(bundle: KernelBundle, C0: float) -> EpsilonZero:
    """Admissible upper bound for the relaxation parameter.

    min of 1/(4 c_a), 1/max(1, a^* - min(a^*, C0)), and
    2 C0 / (3 (a^* + b^*)^2 K0^2), each branch reported individually.
    K0, the norm of the inclusion H into V*, is 1 on every grid: the
    inverse Riesz map (I - lap)^(-1) has eigenvalues 1/(1 + lambda_k)
    <= 1, with equality on the constants.
    """
    if C0 <= 0:
        raise ConfigError(f"epsilon_zero needs C0 > 0, got {C0}")
    b1 = 1.0 / (4.0 * bundle.c_a)
    b2 = 1.0 / max(1.0, bundle.a_sup - min(bundle.a_sup, C0))
    b3 = 2.0 * C0 / (3.0 * (bundle.a_sup + bundle.b_sup) ** 2)
    return EpsilonZero(min(b1, b2, b3), b1, b2, b3)
