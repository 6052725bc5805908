"""Double-well potentials split as F = F1 + F2 with resolvent calculus.

F1 is proper convex lower semicontinuous with 0 in its subdifferential
at 0; F2 is smooth with Lipschitz derivative vanishing at 0. The scheme
never evaluates the possibly multivalued subdifferential of F1 directly:
it goes through the resolvent (I + lam * dF1)^(-1), its Yosida quotient,
and the regularized primitive (Moreau envelope).

Three canonical families are provided: the quartic polynomial well, the
logarithmic (entropy) well on (-1, 1), and the double obstacle given by
the indicator of [-1, 1]. For the polynomial family an adjustable share
of quadratic convexity can be moved into F1; this changes only the
implicit/explicit splitting seen by the time stepper, never F itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import xlogy

from .errors import AssumptionError, ConfigError, InapplicabilityError

RESOLVENT_RTOL = 1e-13
_MAX_NEWTON = 300


@dataclass(frozen=True)
class PotentialSpec:
    family: str
    ell: float
    full_domain: bool
    f1: Callable
    f2: Callable
    f2_prime: Callable
    f2_second: Callable
    f1_prime: Callable | None = None
    f1_second: Callable | None = None
    is_obstacle: bool = False
    params: dict = field(default_factory=dict)

    @property
    def has_barrier(self) -> bool:
        return np.isfinite(self.ell)


def polynomial_potential(shift: float = 0.5) -> PotentialSpec:
    """Quartic well F(r) = (r^2 - 1)^2 / 4 split with convexity shift.

    F1 = r^4/4 + shift*r^2 + 1/4 and F2 = -(1/2 + shift) r^2; the shift
    moves quadratic convexity into the implicitly treated part.
    """
    s = float(shift)
    if s < 0:
        raise ConfigError("convexity shift must be nonnegative to keep F1 convex")
    return PotentialSpec(
        family="polynomial",
        ell=math.inf,
        full_domain=True,
        f1=lambda r: 0.25 * np.asarray(r) ** 4 + s * np.asarray(r) ** 2 + 0.25,
        f1_prime=lambda r: np.asarray(r) ** 3 + 2.0 * s * np.asarray(r),
        f1_second=lambda r: 3.0 * np.asarray(r) ** 2 + 2.0 * s,
        f2=lambda r: -(0.5 + s) * np.asarray(r) ** 2,
        f2_prime=lambda r: -(1.0 + 2.0 * s) * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -(1.0 + 2.0 * s)),
        params={"shift": s},
    )


def logarithmic_potential(theta: float, theta0: float) -> PotentialSpec:
    """Entropy well on (-1, 1): F1 carries the logarithms, F2 = -theta0 r^2 / 2."""
    if not 0 < theta < theta0:
        raise ConfigError(f"logarithmic potential needs 0 < theta < theta0, got {theta}, {theta0}")

    def f1(r):
        r = np.asarray(r, dtype=float)
        out = np.where(
            np.abs(r) <= 1.0,
            0.5 * theta * (xlogy(1.0 + r, 1.0 + r) + xlogy(1.0 - r, 1.0 - r)),
            np.inf,
        )
        return out

    def f1_prime(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * theta * (np.log1p(r) - np.log1p(-r))

    def f1_second(r):
        r = np.asarray(r, dtype=float)
        return theta / (1.0 - r * r)

    return PotentialSpec(
        family="logarithmic",
        ell=1.0,
        full_domain=False,
        f1=f1,
        f1_prime=f1_prime,
        f1_second=f1_second,
        f2=lambda r: -0.5 * theta0 * np.asarray(r) ** 2,
        f2_prime=lambda r: -theta0 * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -theta0),
        params={"theta": theta, "theta0": theta0},
    )


def double_obstacle_potential(c: float) -> PotentialSpec:
    """Indicator barrier on [-1, 1] plus the concave hump c (1 - r^2)."""
    if c <= 0:
        raise ConfigError(f"double obstacle potential needs c > 0, got {c}")

    def f1(r):
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) <= 1.0, 0.0, np.inf)

    return PotentialSpec(
        family="double-obstacle",
        ell=1.0,
        full_domain=False,
        f1=f1,
        f1_prime=None,
        f1_second=None,
        f2=lambda r: c * (1.0 - np.asarray(r) ** 2),
        f2_prime=lambda r: -2.0 * c * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0 * c),
        is_obstacle=True,
        params={"c": c},
    )


def _resolvent_newton(spec: PotentialSpec, lam: float, r: np.ndarray) -> np.ndarray:
    """Vectorized safeguarded Newton for s + lam * F1'(s) = r.

    Keeps a per-element bracket; falls back to bisection whenever the
    Newton step leaves it. For barrier families the bracket is the open
    interval, and the root may saturate at the closest representable
    point to the barrier when the true root underflows.
    """
    f1p, f1pp = spec.f1_prime, spec.f1_second
    if spec.has_barrier:
        lo = np.full_like(r, np.nextafter(-spec.ell, 0.0))
        hi = np.full_like(r, np.nextafter(spec.ell, 0.0))
    else:
        lo = np.minimum(r, 0.0)
        hi = np.maximum(r, 0.0)
    s = np.clip(r, lo, hi)
    tol = RESOLVENT_RTOL * (1.0 + np.abs(r))
    for _ in range(_MAX_NEWTON):
        g = s + lam * f1p(s) - r
        lo = np.where(g < 0, s, lo)
        hi = np.where(g > 0, s, hi)
        active = (np.abs(g) > tol) & ((hi - lo) > 1e-16 * (1.0 + np.abs(s)))
        if not np.any(active):
            break
        dg = 1.0 + lam * f1pp(s)
        with np.errstate(all="ignore"):
            snew = s - g / dg
        bad = ~np.isfinite(snew) | (snew <= lo) | (snew >= hi)
        snew = np.where(bad, 0.5 * (lo + hi), snew)
        s = np.where(active, snew, s)
    return s


def resolvent(spec: PotentialSpec, lam: float, r):
    """(I + lam * dF1)^(-1) applied elementwise; total on all of R."""
    if lam <= 0:
        raise ConfigError(f"resolvent needs lam > 0, got {lam}")
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if spec.is_obstacle:
        out = np.clip(arr, -spec.ell, spec.ell)
    else:
        out = _resolvent_newton(spec, lam, arr.copy())
    return float(out[0]) if scalar else out


def yosida(spec: PotentialSpec, lam: float, r):
    """Yosida quotient (r - resolvent(r)) / lam, the Lipschitz surrogate of dF1."""
    arr = np.asarray(r, dtype=float)
    out = (arr - np.asarray(resolvent(spec, lam, arr))) / lam
    return float(out) if arr.ndim == 0 else out


def yosida_with_derivative(spec: PotentialSpec, lam: float, r):
    """Yosida value, its (sub)derivative and the resolvent, from one resolvent solve."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.is_obstacle:
        s = np.clip(arr, -spec.ell, spec.ell)
        y = (arr - s) / lam
        dy = np.where(np.abs(arr) > spec.ell, 1.0 / lam, 0.0)
        return y, dy, s
    s = _resolvent_newton(spec, lam, arr.copy())
    y = (arr - s) / lam
    f1pp = spec.f1_second(s)
    dy = f1pp / (1.0 + lam * f1pp)
    return y, dy, s


def moreau(spec: PotentialSpec, lam: float, r: float) -> float:
    """Regularized primitive F1(0) + integral of the Yosida quotient from 0 to r.

    Evaluated by adaptive quadrature to 1e-10 absolute; the envelope
    satisfies 0 <= moreau <= F1 on the domain of F1.
    """
    if lam <= 0:
        raise ConfigError(f"moreau needs lam > 0, got {lam}")
    f1_at_0 = float(np.asarray(spec.f1(0.0)))
    if r == 0.0:
        return f1_at_0
    val, _ = quad(lambda s: yosida(spec, lam, s), 0.0, r, epsabs=1e-10, epsrel=1e-12, limit=200)
    return f1_at_0 + val


def moreau_envelope(spec: PotentialSpec, lam: float, r, prox=None):
    """Closed-form envelope F1(prox) + |r - prox|^2 / (2 lam), vectorized.

    Identical to moreau() but cheap on whole fields; used by the energy
    diagnostics. The quadrature route stays as the independent check.
    ``prox`` is the resolvent of ``r`` when the caller already has it.
    """
    arr = np.asarray(r, dtype=float)
    s = resolvent(spec, lam, arr) if prox is None else prox
    return np.asarray(spec.f1(s)) + (arr - s) ** 2 / (2.0 * lam)


def f_eval(spec: PotentialSpec, r):
    """F(r) = F1(r) + F2(r); +inf outside the domain of F1, never clipped."""
    arr = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.asarray(spec.f1(arr)) + np.asarray(spec.f2(arr))
    return out


def f2_prime(spec: PotentialSpec, r):
    return spec.f2_prime(np.asarray(r, dtype=float))


def f_prime_regularized(spec: PotentialSpec, lam: float, r):
    """Derivative of the regularized potential: Yosida of F1 plus F2'."""
    return yosida(spec, lam, r) + f2_prime(spec, r)


def f_lambda_eval(spec: PotentialSpec, lam: float, r, prox=None):
    """Regularized potential F_lam = envelope + F2, vectorized; ``prox`` as in moreau_envelope."""
    return moreau_envelope(spec, lam, r, prox) + np.asarray(spec.f2(np.asarray(r, dtype=float)))


def check_dominance(spec: PotentialSpec, a_star: float, mesh_points: int = 20001) -> float:
    """Estimate C0 = inf over the domain interior of a_* + F''(r).

    Uses closed-form second derivatives where the family provides them,
    otherwise a Yosida-smoothed second difference. Raises AssumptionError
    (naming the minimizing r) when the infimum is not positive, since the
    well-posedness theory needs C0 > 0.
    """
    if spec.has_barrier:
        margin = 1e-3 * spec.ell
        rs = np.linspace(-spec.ell + margin, spec.ell - margin, mesh_points)
    else:
        rs = np.linspace(-10.0, 10.0, mesh_points)
    if spec.f1_second is not None:
        fpp = np.asarray(spec.f1_second(rs)) + np.asarray(spec.f2_second(rs))
    elif spec.is_obstacle:
        fpp = np.asarray(spec.f2_second(rs))
    else:
        lam = 1e-6
        dr = rs[1] - rs[0]
        fp = f_prime_regularized(spec, lam, rs)
        fpp = np.gradient(fp, dr)
    vals = a_star + fpp
    i = int(np.argmin(vals))
    c0 = float(vals[i])
    if c0 <= 0:
        raise AssumptionError(
            "A5-dominance",
            f"a_* + F''(r) has nonpositive infimum {c0:.6g} at r = {rs[i]:.6g}",
            value=c0,
        )
    return c0


def check_growth(spec: PotentialSpec) -> float:
    """Growth constant sup |dF1(r)| / (F1(r) + 1) over |r| <= 10, in closed form.

    Only potentials with D(dF1) = R qualify; barrier families are
    rejected, which in turn blocks the vanishing-relaxation sweeps that
    need this bound. For the polynomial well with convexity shift s the
    ratio is even, vanishes at 0 and at infinity, and is stationary
    where u = r^2 solves u^3 + 2s u^2 - (15 - 8s^2) u - 10s = 0; the
    cubic has exactly one positive root (one sign change), which is the
    root of largest real part (the roots sum to -2s <= 0).
    """
    if not spec.full_domain:
        raise InapplicabilityError(
            f"{spec.family} potential has a bounded barrier domain; "
            "the growth condition requires D(dF1) = R"
        )
    if spec.family != "polynomial":
        raise InapplicabilityError(
            f"no closed-form growth constant for the {spec.family} potential"
        )
    s = spec.params["shift"]
    u = float(np.max(np.roots([1.0, 2.0 * s, 8.0 * s * s - 15.0, -10.0 * s]).real))
    r = min(math.sqrt(u), 10.0)
    return float(abs(spec.f1_prime(r)) / (spec.f1(r) + 1.0))


def barrier_margin_values(spec: PotentialSpec, chi_eta: float, deltas) -> list[float]:
    """F'(ell - delta) - chi*eta*(ell - delta) for a sequence of offsets.

    Documents the barrier divergence used by the separation theory; the
    values must increase as delta shrinks.
    """
    if not spec.has_barrier:
        raise InapplicabilityError("barrier margin applies to barrier potentials only")
    if spec.f1_prime is None:
        raise InapplicabilityError("double obstacle has no pointwise F' at the barrier")
    out = []
    for d in deltas:
        r = spec.ell - d
        val = float(spec.f1_prime(r) + spec.f2_prime(r) - chi_eta * r)
        out.append(val)
    return out


def normalization_offset(spec: PotentialSpec) -> float:
    """Additive constant that lifts F to be nonnegative on its domain.

    Zero for the polynomial and obstacle wells. The logarithmic well
    dips below zero when theta0 > 2 theta ln 2; since only F' enters the
    dynamics, the family keeps the literal formula (with F(0) = 0) and
    exposes the offset for energy reporting.
    """
    if spec.has_barrier:
        rs = np.linspace(-spec.ell + 1e-9, spec.ell - 1e-9, 20001)
    else:
        rs = np.linspace(-8.0, 8.0, 20001)
    fmin = float(np.min(f_eval(spec, rs)))
    return max(0.0, -fmin)


def validate_split(spec: PotentialSpec, lam: float = 0.1) -> dict:
    """Sample-based audit of the structural split assumptions.

    Returns named booleans: F1 >= 0, F bounded below (nonnegative after
    the well normalization), F2'(0) = 0, 0 resolved to 0 (i.e. 0 in
    dF1(0)), and a finite sampled Lipschitz constant for F2'.
    """
    if spec.has_barrier:
        rs = np.linspace(-spec.ell + 1e-9, spec.ell - 1e-9, 4001)
    else:
        rs = np.linspace(-8.0, 8.0, 4001)
    f1v = np.asarray(spec.f1(rs))
    fv = f_eval(spec, rs)
    with np.errstate(invalid="ignore"):
        checks = {
            "F1_nonnegative": bool(np.all(f1v >= -1e-12)),
            "F_bounded_below": bool(np.min(fv) > -np.inf),
            "F2prime_zero_at_zero": abs(float(np.asarray(spec.f2_prime(0.0)))) <= 1e-12,
            "zero_in_dF1_at_zero": abs(float(np.asarray(resolvent(spec, lam, 0.0)))) <= 1e-12,
        }
    dp = np.diff(np.asarray(spec.f2_prime(rs))) / np.diff(rs)
    checks["F2prime_lipschitz_sampled"] = bool(np.all(np.isfinite(dp)))
    return checks
