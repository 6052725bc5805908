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

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InapplicabilityError, SolverError

RESOLVENT_RTOL = 1e-13
_MAX_NEWTON = 300


class Chart(NamedTuple):
    """Coordinate u of s in which _resolvent_newton solves s + lam F1'(s) = r:
    the first iterate start(lam, r), (s, F1'(s)) = point(spec, u), and the
    slope(spec, lam, u, s) of s + lam F1'(s) in u."""

    start: Callable
    point: Callable
    slope: Callable


class PotentialSpec(NamedTuple):
    family: str
    ell: float
    f1: Callable
    f2: Callable
    f2_prime: Callable
    f2_second: Callable
    params: dict
    f1_prime: Callable | None = None
    f1_second: Callable | None = None
    chart: Chart | None = None

    @property
    def has_barrier(self) -> bool:
        return math.isfinite(self.ell)

    @property
    def is_obstacle(self) -> bool:
        """F1 is an indicator: no pointwise F1', only its subdifferential."""
        return self.f1_prime is None


def polynomial_potential(shift: float = 0.5) -> PotentialSpec:
    """Quartic well F(r) = (r^2 - 1)^2 / 4 split with convexity shift.

    F1 = r^4/4 + shift*r^2 + 1/4 and F2 = -(1/2 + shift) r^2; the shift
    moves quadratic convexity into the implicitly treated part.
    The resolvent equation s + lam (s^3 + 2 shift s) = r is the depressed
    cubic s^3 + q s = r / lam with q = (1 + 2 shift lam) / lam > 0, whose
    one real root is c sinh(asinh(3 r / (lam q c)) / 3), c = 2 sqrt(q/3).
    """
    s = float(shift)
    if not 0.0 <= s < math.inf:
        raise ConfigError(f"convexity shift must be finite and nonnegative to keep F1 "
                          f"convex, got {s}")

    def resolvent_root(lam, r):
        q = (1.0 + 2.0 * s * lam) / lam
        c = 2.0 * math.sqrt(q / 3.0)
        root = c * np.sinh(np.arcsinh(3.0 * r / (lam * q * c)) / 3.0)
        # the root lies between 0 and r, which rounding can leave by an ulp
        return np.minimum(np.maximum(root, np.minimum(r, 0.0)), np.maximum(r, 0.0))

    def f1(r):
        # (r*r)**2 is within 1 ulp of r**4 at a fraction of its cost on arrays
        r2 = np.asarray(r) ** 2
        return 0.25 * r2 ** 2 + s * r2 + 0.25

    def f1_prime(r):
        # r*r*r is within 1 ulp of r**3 at a tenth of its cost on arrays
        r = np.asarray(r)
        return r * r * r + 2.0 * s * r

    return PotentialSpec(
        family="polynomial",
        ell=math.inf,
        f1=f1,
        f1_prime=f1_prime,
        f1_second=lambda r: 3.0 * np.asarray(r) ** 2 + 2.0 * s,
        f2=lambda r: -(0.5 + s) * np.asarray(r) ** 2,
        f2_prime=lambda r: -(1.0 + 2.0 * s) * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -(1.0 + 2.0 * s)),
        chart=Chart(resolvent_root, lambda spec, u: (u, spec.f1_prime(u)),
                    lambda spec, lam, u, s: 1.0 + lam * spec.f1_second(u)),
        params={"shift": s},
    )


def _xlogx(x):
    """x log x for x >= 0, with its limit 0 at x = 0, and no warning there."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def logarithmic_potential(theta: float, theta0: float) -> PotentialSpec:
    """Entropy well on (-1, 1): F1 carries the logarithms, F2 = -theta0 r^2 / 2."""
    if not 0 < theta < theta0:
        raise ConfigError(f"logarithmic potential needs 0 < theta < theta0, got {theta}, {theta0}")

    def start(lam, a):
        # in the chart s = tanh(u), F1'(s) = theta u: the Newton step off
        # atanh(b), b = min(a, 1 - ulp), lands left of the root for b <= a
        b = np.minimum(a, 1.0 - 2.0**-53)
        w = 1.0 - b * b
        return np.arctanh(b) * w / (w + lam * theta)

    def f1(r):
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) <= 1.0
        # outside [-1, 1] the logarithms are taken at 1 and masked by inf
        a = np.where(inside, r, 0.0)
        return np.where(inside, 0.5 * theta * (_xlogx(1.0 + a) + _xlogx(1.0 - a)), np.inf)

    def f1_prime(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * theta * (np.log1p(r) - np.log1p(-r))

    def f1_second(r):
        r = np.asarray(r, dtype=float)
        return theta / (1.0 - r * r)

    return PotentialSpec(
        family="logarithmic",
        ell=1.0,
        f1=f1,
        f1_prime=f1_prime,
        f1_second=f1_second,
        f2=lambda r: -0.5 * theta0 * np.asarray(r) ** 2,
        f2_prime=lambda r: -theta0 * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -theta0),
        chart=Chart(start, lambda spec, u: (np.tanh(u), theta * u),
                    lambda spec, lam, u, s: (1.0 - s * s) + lam * theta),
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
        f1=f1,
        f1_prime=None,
        f1_second=None,
        f2=lambda r: c * (1.0 - np.asarray(r) ** 2),
        f2_prime=lambda r: -2.0 * c * np.asarray(r),
        f2_second=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0 * c),
        params={"c": c},
    )


def _resolvent_newton(spec: PotentialSpec, lam: float, r: np.ndarray):
    """Masked Newton for s + lam * F1'(s) = r in the family's chart.

    Returns the root s and F1'(s) from its last residual evaluation. Every
    residual is tested against RESOLVENT_RTOL before a step, so the
    polynomial's closed-form start returns after one evaluation; converged
    elements are frozen, so each result depends on its own input only. A
    barrier family is solved for |r| on u >= 0, where its inclusion is
    increasing and concave: from a start left of the root the iterates rise
    to it with no bracket. Its s keeps inside the barrier, to which tanh
    rounds past u = 19, and takes the sign of r. Raises SolverError when
    elements are unconverged after _MAX_NEWTON steps."""
    chart, odd = spec.chart, spec.has_barrier
    a = np.abs(r)
    x = a if odd else r
    tol = RESOLVENT_RTOL * (1.0 + a)
    u = chart.start(lam, x)
    for _ in range(_MAX_NEWTON):
        s, fp = chart.point(spec, u)
        g = s + lam * fp - x
        going = np.abs(g) > tol
        if not going.any():
            if odd:
                s = np.minimum(s, math.nextafter(spec.ell, 0.0))
                return np.copysign(s, r), np.copysign(fp, r)
            return s, fp
        step = u - g / chart.slope(spec, lam, u, s)
        u = np.where(going, np.maximum(step, 0.0) if odd else step, u)
    worst = float(np.max(np.abs(g[going])))
    raise SolverError(
        f"{spec.family} resolvent: {int(np.count_nonzero(going))} of {r.size} elements "
        f"unconverged after {_MAX_NEWTON} Newton steps (residual {worst:.3e})", residual=worst)


def _resolvent_and_yosida(spec: PotentialSpec, lam: float, r: np.ndarray):
    """Resolvent s of an array r (at least 1-D) and the Yosida value at r: the
    last F1'(s) of the resolvent, which is (r - s) / lam without the quotient's
    cancellation of log10(1/lam) digits, except for the obstacle's clip."""
    if spec.is_obstacle:
        # np.clip without its Python-level wrapper
        s = np.minimum(np.maximum(r, -spec.ell), spec.ell)
        return s, (r - s) / lam
    return _resolvent_newton(spec, lam, r)


def resolvent(spec: PotentialSpec, lam: float, r):
    """(I + lam * dF1)^(-1) applied elementwise; total on all of R."""
    if lam <= 0:
        raise ConfigError(f"resolvent needs lam > 0, got {lam}")
    arr = np.asarray(r, dtype=float)
    s, _ = _resolvent_and_yosida(spec, lam, np.atleast_1d(arr))
    return float(s[0]) if arr.ndim == 0 else s


def yosida(spec: PotentialSpec, lam: float, r):
    """Yosida approximation of dF1 at r: F1'(resolvent) or (r - resolvent) / lam."""
    if lam <= 0:
        raise ConfigError(f"resolvent needs lam > 0, got {lam}")
    arr = np.asarray(r, dtype=float)
    _, y = _resolvent_and_yosida(spec, lam, np.atleast_1d(arr))
    return float(y[0]) if arr.ndim == 0 else y


def yosida_with_derivative(spec: PotentialSpec, lam: float, r):
    """Yosida value, its (sub)derivative and the resolvent, from one resolvent solve.

    The value is computed as in yosida().
    """
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    s, y = _resolvent_and_yosida(spec, lam, arr)
    if spec.is_obstacle:
        return y, np.where(np.abs(arr) > spec.ell, 1.0 / lam, 0.0), s
    f1pp = spec.f1_second(s)
    return y, f1pp / (1.0 + lam * f1pp), s


def moreau(spec: PotentialSpec, lam: float, r: float) -> float:
    """Regularized primitive F1(0) + integral of the Yosida quotient from 0 to r.

    Evaluated by adaptive quadrature to 1e-10 absolute; the envelope
    satisfies 0 <= moreau <= F1 on the domain of F1.
    """
    from scipy.integrate import quad

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


def check_dominance(spec: PotentialSpec, a_star: float) -> float:
    """C0 = inf over the domain of a_* + F''(r), in closed form: a_* + F''(0).

    Every family's F'' is even and nondecreasing in |r| (3 r^2 - 1,
    theta / (1 - r^2) - theta0, and -2c for the obstacle, whose F1''
    vanishes inside the interval), so the infimum is taken at r = 0.
    C0 is returned whatever its sign; the well-posedness theory needs
    C0 > 0, which the A5 dominance row of nlch.audit decides.
    """
    fpp = spec.f2_second(0.0)
    if not spec.is_obstacle:
        fpp = spec.f1_second(0.0) + fpp
    return float(a_star + fpp)


def check_growth(spec: PotentialSpec) -> float | None:
    """Growth constant sup |dF1(r)| / (F1(r) + 1) over |r| <= 10, in closed form.

    Only potentials with D(dF1) = R have one; a barrier family gets None,
    and the pol_growth row of nlch.audit then blocks the eps = 0 limit
    that needs this bound. The polynomial well is the one family without
    a barrier. With convexity shift s the ratio is even, vanishes at 0
    and at infinity, and is stationary where u = r^2 solves
    p(u) = u^3 + 2s u^2 - (15 - 8s^2) u - 10s = 0. The cubic is convex
    on u > 0 (p'' = 6u + 4s) with p(0) = -10s <= 0, so it has one
    positive root, below Cauchy's bound 1 + max(2s, |8s^2 - 15|, 10s).
    Newton steps from that bound fall monotonically to the root; the
    iteration stops when a step no longer decreases u.
    """
    if spec.has_barrier:
        return None
    s = spec.params["shift"]
    b, c, d = 2.0 * s, 8.0 * s * s - 15.0, -10.0 * s
    u = 1.0 + max(b, abs(c), -d)
    while True:
        step = u - (((u + b) * u + c) * u + d) / ((3.0 * u + 2.0 * b) * u + c)
        if not step < u:
            break
        u = step
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
    """Additive constant that lifts F to be nonnegative on its domain, in closed form.

    Zero for the polynomial and obstacle wells, whose minimum 0 is taken
    at r = +-1. The logarithmic well has F(0) = 0 and F''(0) =
    theta - theta0 < 0, so its minimum is negative for every admissible
    (theta, theta0); since only F' enters the dynamics, the family keeps
    the literal formula and exposes the offset for energy reporting. In
    the chart r = tanh u, F'(r) = theta u - theta0 tanh u vanishes at one
    u* > 0, and there F = theta (u* tanh u* / 2 - log cosh u*). The
    root of g(u) = theta0 tanh u - theta u, concave on u > 0, is reached
    by Newton steps that fall monotonically from u = theta0 / theta,
    where g < 0; the iteration stops when a step no longer decreases u.
    """
    if spec.family != "logarithmic":
        return 0.0
    theta, theta0 = spec.params["theta"], spec.params["theta0"]
    u = theta0 / theta
    while True:
        t = math.tanh(u)
        step = u - (theta0 * t - theta * u) / (theta0 * (1.0 - t * t) - theta)
        if not step < u:
            break
        u = step
    # log cosh u = log1p(2 sinh^2(u/2)) keeps its u^2/2 digits near the
    # flat well theta -> theta0, where u* -> 0; u + log1p(exp(-2u)) - log 2
    # does not overflow at large u
    if u < 1.0:
        log_cosh = math.log1p(2.0 * math.sinh(0.5 * u) ** 2)
    else:
        log_cosh = u + math.log1p(math.exp(-2.0 * u)) - math.log(2.0)
    return theta * (log_cosh - 0.5 * u * math.tanh(u))
