import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

import nlch.potential
from nlch.errors import ConfigError, SolverError
from nlch.potential import (
    barrier_margin_values,
    check_dominance,
    double_obstacle_potential,
    f_eval,
    f_prime_regularized,
    logarithmic_potential,
    moreau,
    polynomial_potential,
    resolvent,
    yosida,
    yosida_with_derivative,
)

FAMILIES = [
    (polynomial_potential(0.5), (-10.0, 10.0)),
    (polynomial_potential(0.0), (-10.0, 10.0)),
    (logarithmic_potential(0.3, 0.6), (-1.5, 1.5)),
    (double_obstacle_potential(0.25), (-5.0, 5.0)),
]


def bisect_resolvent(f1_prime, lam, r, lo, hi, iters=200):
    """Independent oracle: plain bisection on s + lam F1'(s) - r."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid + lam * f1_prime(mid) - r > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_resolvent_at_zero():
    for spec, _ in FAMILIES:
        for lam in (1.0, 0.1, 0.01):
            assert resolvent(spec, lam, 0.0) == pytest.approx(0.0, abs=1e-13)


def test_resolvent_double_obstacle_is_projection():
    dob = double_obstacle_potential(0.1)
    assert resolvent(dob, 0.5, 2.0) == 1.0
    assert resolvent(dob, 0.5, -3.0) == -1.0
    assert resolvent(dob, 7.0, 0.25) == 0.25
    assert yosida(dob, 0.5, 2.0) == pytest.approx(2.0)


def test_resolvent_logarithmic_vs_bisection():
    spec = logarithmic_potential(0.3, 0.6)
    oracle = bisect_resolvent(lambda s: 0.15 * np.log((1 + s) / (1 - s)), 0.1, 0.9, -1.0 + 1e-15, 1.0 - 1e-15)
    got = resolvent(spec, 0.1, 0.9)
    assert got == pytest.approx(oracle, abs=1e-12)
    # residual contract
    assert abs(got + 0.1 * 0.15 * np.log((1 + got) / (1 - got)) - 0.9) <= 1e-12 * 1.9


def _sample_range(spec, lam):
    """Where the inclusion's residual, evaluated at s, is resolvable.

    The logarithmic resolvent meets its tolerance in the chart u = atanh(s)
    for every r; re-evaluated at s, the residual's slope
    1 + lam theta / (1 - s^2) amplifies the rounding of s = tanh(u), and
    once it exceeds ~1/ulp no float can meet an absolute tolerance there.
    """
    if spec.family == "logarithmic":
        theta = float(spec.f1_second(0.0))  # F1''(0) = theta
        return min(2.0, 1.0 + 12.0 * lam * theta / 2.0)
    return 10.0


def test_resolvent_residual_contract():
    rng = np.random.default_rng(0)
    for spec, _ in FAMILIES:
        if spec.is_obstacle:
            continue
        for lam in (1.0, 0.1, 0.01):
            hi = _sample_range(spec, lam)
            r = rng.uniform(-hi, hi, 200)
            s = resolvent(spec, lam, r)
            res = np.abs(s + lam * np.asarray(spec.f1_prime(s)) - r)
            assert np.max(res / (1.0 + np.abs(r))) <= 1e-12


def _scale_sweep_inputs():
    tiny = np.array([5e-324, 1e-300, 1e-100, 1e-20])
    wide = np.logspace(-12.0, 4.0, 400)
    return np.concatenate([np.linspace(-1e4, 1e4, 2001), wide, -wide, tiny, -tiny, [0.0, -0.0]])


@pytest.mark.parametrize("shift", [0.0, 0.5, 3.0])
def test_polynomial_resolvent_exact_root_across_scales(shift):
    spec = polynomial_potential(shift)
    r = _scale_sweep_inputs()
    for lam in np.logspace(-8.0, 4.0, 25):
        s = resolvent(spec, lam, r)
        res = np.abs(s + lam * np.asarray(spec.f1_prime(s)) - r)
        assert np.max(res / (1.0 + np.abs(r))) <= 1e-14
        # the root lies between 0 and r
        assert np.all(s * r >= 0.0) and np.all(np.abs(s) <= np.abs(r))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_logarithmic_resolvent_across_scales_and_past_the_barrier():
    # tanh(u) rounds to 1 past u = 19, which r = 1.006 reaches at lam = 1e-3:
    # the root must stay strictly inside (-1, 1), where the Yosida
    # derivative theta / (1 - s^2 + lam theta) is finite (1 / lam at the barrier)
    spec = logarithmic_potential(0.3, 0.6)
    one = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    r = np.concatenate([_scale_sweep_inputs(), one, -one])
    for lam in np.logspace(-8.0, 4.0, 25):
        s = resolvent(spec, lam, r)
        assert np.array_equal(_bits(resolvent(spec, lam, -r)), _bits(-s))
        assert np.all(np.abs(s) < 1.0)
        alone = np.concatenate([resolvent(spec, lam, r[i:i + 1]) for i in range(r.size)])
        assert np.array_equal(_bits(alone), _bits(s))
        y, dy, s_again = yosida_with_derivative(spec, lam, r)
        assert np.array_equal(_bits(s_again), _bits(s))
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))


def test_polynomial_resolvent_evaluates_f1_prime_once():
    # the closed-form root passes the first residual check, so the
    # Newton loop never takes a step
    calls = []
    base = polynomial_potential(0.5)

    def counted(s):
        calls.append(1)
        return base.f1_prime(s)

    spec = base._replace(f1_prime=counted)
    rng = np.random.default_rng(4)
    for lam in (1e-6, 1e-3, 0.1, 10.0):
        for r in (rng.uniform(-2.0, 2.0, 256), rng.uniform(-1e3, 1e3, 256), 0.7):
            calls.clear()
            resolvent(spec, lam, r)
            assert len(calls) == 1


def test_polynomial_yosida_is_f1_prime_of_resolvent():
    spec = polynomial_potential(0.5)
    r = np.random.default_rng(5).uniform(-3.0, 3.0, 256)
    for lam in (1e-3, 0.1):
        f1p_at_s = np.asarray(spec.f1_prime(resolvent(spec, lam, r)))
        assert np.array_equal(yosida(spec, lam, r), f1p_at_s)
        y, _, s = yosida_with_derivative(spec, lam, r)
        assert np.array_equal(y, spec.f1_prime(s))
        assert yosida(spec, lam, 0.7) == float(spec.f1_prime(resolvent(spec, lam, 0.7)))


def test_unconverged_resolvent_raises(monkeypatch):
    monkeypatch.setattr(nlch.potential, "_MAX_NEWTON", 1)
    with pytest.raises(SolverError, match="unconverged after 1 Newton steps") as err:
        resolvent(logarithmic_potential(0.3, 0.6), 1e-3, np.linspace(-0.9, 0.9, 7))
    assert err.value.residual > 0.0


def test_yosida_examples():
    for spec, _ in FAMILIES:
        assert yosida(spec, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
    st.sampled_from([1.0, 0.1, 0.01]),
)
def test_yosida_lipschitz_property(r, s, lam):
    spec = polynomial_potential(0.5)
    assert abs(yosida(spec, lam, r) - yosida(spec, lam, s)) <= abs(r - s) / lam * (1 + 1e-9) + 1e-12


def test_moreau_at_zero_is_f1_at_zero():
    for spec, _ in FAMILIES:
        assert moreau(spec, 0.3, 0.0) == pytest.approx(float(np.asarray(spec.f1(0.0))), abs=1e-14)


def test_moreau_monotone_convergence_polynomial():
    spec = polynomial_potential(0.0)
    f1_of_15 = 1.5**4 / 4 + 0.25
    vals = [moreau(spec, lam, 1.5) for lam in (1e-2, 1e-3, 1e-4)]
    assert vals[0] < vals[1] < vals[2] <= f1_of_15 + 1e-12
    assert f1_of_15 - vals[2] <= 1e-2


def test_moreau_double_obstacle_closed_form():
    # projection Yosida: integral of (s - 1)_+ from 0 to 3 equals 2
    dob = double_obstacle_potential(0.3)
    assert moreau(dob, 1.0, 3.0) == pytest.approx(2.0, abs=1e-10)


def test_f_eval_examples():
    poly = polynomial_potential(0.5)
    assert f_eval(poly, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert f_eval(poly, -1.0) == pytest.approx(0.0, abs=1e-14)
    assert f_eval(poly, 0.0) == pytest.approx(0.25, abs=1e-14)

    log = logarithmic_potential(0.1, 0.2)
    assert f_eval(log, 0.0) == pytest.approx(0.0, abs=1e-14)

    dob = double_obstacle_potential(0.3)
    assert f_eval(dob, 2.0) == np.inf  # +inf sentinel, never clipped
    assert f_eval(dob, 0.0) == pytest.approx(0.3)


def test_f_prime_regularized_composition():
    spec = polynomial_potential(0.5)
    r = np.linspace(-2, 2, 11)
    lhs = f_prime_regularized(spec, 0.05, r)
    rhs = yosida(spec, 0.05, r) + np.asarray(spec.f2_prime(r))
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_yosida_value_in_subdifferential_at_resolvent():
    # y = F1'(resolvent(r)) for smooth families, up to solver tolerance
    # (the gap equals the resolvent residual divided by lam)
    rng = np.random.default_rng(3)
    for spec, _ in FAMILIES:
        if spec.is_obstacle:
            continue
        for lam in (0.1, 0.01):
            hi = _sample_range(spec, lam)
            r = rng.uniform(-hi, hi, 100)
            s = resolvent(spec, lam, r)
            y = yosida(spec, lam, r)
            assert np.max(np.abs(y - np.asarray(spec.f1_prime(s)))) <= 1e-12 * 11.0 / lam


def test_yosida_derivative_consistency():
    spec = polynomial_potential(0.5)
    r = np.linspace(-2.0, 2.0, 41)
    y, dy, _ = yosida_with_derivative(spec, 0.1, r)
    dr = 1e-6
    y_plus = yosida(spec, 0.1, r + dr)
    y_minus = yosida(spec, 0.1, r - dr)
    fd = (y_plus - y_minus) / (2 * dr)
    assert np.max(np.abs(fd - dy)) <= 1e-5


def test_check_dominance():
    poly = polynomial_potential(0.5)
    # inf of a_* + F'' = a_* + inf(3r^2 - 1) is 0 at r = 0 for a_* = 1; a
    # nonpositive C0 is returned as it is, and the A5 row fails it
    assert check_dominance(poly, 1.0) == 0.0
    assert check_dominance(poly, 2.0) == pytest.approx(1.0, abs=1e-6)

    # the split shift must not change the estimate (F = F1 + F2 is fixed)
    assert check_dominance(polynomial_potential(0.0), 2.0) == pytest.approx(
        check_dominance(polynomial_potential(1.0), 2.0), abs=1e-12
    )

    dob = double_obstacle_potential(0.1)
    assert check_dominance(dob, 1.0) == pytest.approx(0.8, abs=1e-12)

    # additivity in a_*
    base = check_dominance(poly, 1.5)
    assert check_dominance(poly, 1.5 + 0.3) == pytest.approx(base + 0.3, abs=1e-12)


@pytest.mark.parametrize("spec", [
    pytest.param(make(**kwargs), id=f"{make(**kwargs).family}-{kwargs}")
    for make, kwargs in [
        (polynomial_potential, {"shift": 0.5}), (polynomial_potential, {"shift": 0.0}),
        (logarithmic_potential, {"theta": 0.3, "theta0": 0.6}),
        (double_obstacle_potential, {"c": 0.25}), (polynomial_potential, {"shift": 1.0}),
    ]])
def test_check_dominance_is_the_dense_mesh_infimum(spec):
    # reference: the infimum of a_* + F'' over 20001 points of the domain
    # (its interior, 1e-3 ell from each barrier); F1'' vanishes inside the obstacle
    if spec.has_barrier:
        rs = np.linspace(-0.999 * spec.ell, 0.999 * spec.ell, 20001)
    else:
        rs = np.linspace(-10.0, 10.0, 20001)
    fpp = np.asarray(spec.f2_second(rs))
    if not spec.is_obstacle:
        fpp = np.asarray(spec.f1_second(rs)) + fpp
    for a_star in (1.2, 1.5, 2.05, 2.5):
        assert check_dominance(spec, a_star) == np.min(a_star + fpp)


def test_check_growth_oracle():
    # oracle first: maximize |r^3| / (r^4/4 + 5/4) over [-10, 10] to 1e-6
    res = minimize_scalar(
        lambda r: -(abs(r) ** 3) / (r**4 / 4 + 1.25),
        bounds=(0.0, 10.0), method="bounded",
        options={"xatol": 1e-9},
    )
    oracle_value = -res.fun
    oracle_arg = res.x
    assert oracle_arg == pytest.approx(15.0**0.25, abs=1e-6)  # stationarity: r^4 = 15

    got = polynomial_potential(0.0).c_f
    assert got == pytest.approx(oracle_value, abs=1e-6)

    # r = 0 contributes 0 to the sup
    assert abs(0.0 / (0.25 + 1.0)) == 0.0

    # a barrier well has no growth constant; the pol_growth row fails it
    for barrier in (logarithmic_potential(0.3, 0.6), double_obstacle_potential(0.2)):
        assert barrier.c_f is None


def _growth_by_np_roots(shift):
    """C_F as it was computed with numpy's eigenvalue-based np.roots."""
    spec = polynomial_potential(shift)
    u = float(np.max(np.roots([1.0, 2.0 * shift, 8.0 * shift**2 - 15.0, -10.0 * shift]).real))
    r = min(np.sqrt(u), 10.0)
    return float(abs(spec.f1_prime(r)) / (spec.f1(r) + 1.0))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 10.0))
def test_check_growth_matches_np_roots(shift):
    # the Newton root of the stationarity cubic against the companion-matrix roots
    want = _growth_by_np_roots(shift)
    assert abs(polynomial_potential(shift).c_f - want) <= 1e-14 * want


@pytest.mark.parametrize("shift", [0.0, 0.1, 0.5, 1.0, 1.4, 2.0, 5.0, 10.0])
def test_check_growth_equals_np_roots_at_listed_shifts(shift):
    # the shipped configurations use shift 0.5
    assert polynomial_potential(shift).c_f == _growth_by_np_roots(shift)


def test_barrier_divergence_trend():
    # F'(r) - chi eta r diverges at the barrier; at double precision the
    # log barrier reaches only O(theta * ln(1/delta)), far below the 1e3
    # of a polynomial-type blowup, so the check asserts monotone growth
    spec = logarithmic_potential(0.3, 0.6)
    margins = barrier_margin_values(spec, 1.0, [1e-2, 1e-4, 1e-6, 1e-9, 1e-12])
    assert all(b > a for a, b in zip(margins, margins[1:]))
    assert margins[-1] > 1.0
    neg = [-(m) for m in barrier_margin_values(spec, 1.0, [1e-2, 1e-12])]
    # symmetry at the lower barrier
    r = -(1 - 1e-12)
    val = float(spec.f1_prime(r) + spec.f2_prime(r) - 1.0 * r)
    assert val < 0 and abs(val) > 1.0


@pytest.mark.parametrize("theta, theta0", [
    (0.3, 0.6), (0.1, 0.6), (2.0, 3.0), (0.01, 1.0),  # theta0 > 2 theta ln 2
    (0.5, 0.6), (0.2, 0.25), (0.59, 0.6), (0.6 - 1e-9, 0.6),  # theta0 < 2 theta ln 2
])
def test_logarithmic_offset_matches_a_dense_sample(theta, theta0):
    # the interior minimum is negative for every admissible well (F(0) = 0,
    # F''(0) < 0), not only when the endpoint value F(1) is
    spec = logarithmic_potential(theta, theta0)
    rs = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 1_000_001)
    sampled = -float(np.min(f_eval(spec, rs)))
    off = spec.offset
    assert off > 0.0
    assert off >= sampled - 1e-15  # the sample cannot reach below the minimum
    # spacing h = 2e-6 misses the minimum by up to F''(r*) h^2 / 8, which
    # is 1.7e-10 at (0.1, 0.6), where r* = tanh 6
    assert off - sampled <= 1e-9


def test_constructor_validation():
    with pytest.raises(ConfigError):
        logarithmic_potential(0.6, 0.3)
    with pytest.raises(ConfigError):
        double_obstacle_potential(-1.0)
    for shift in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="convexity shift"):
            polynomial_potential(shift)
    with pytest.raises(ConfigError):
        resolvent(polynomial_potential(0.5), 0.0, 1.0)


def test_logarithmic_f1_matches_the_xlogy_form():
    # F1 = theta/2 ((1+r) log(1+r) + (1-r) log(1-r)) on numpy's log: the two
    # terms cancel to O(r^2) near r = 0, so the agreement is counted in ulp
    # of the terms' magnitudes, not of their sum
    theta = 0.3
    spec = logarithmic_potential(theta, 0.6)
    r = np.linspace(-1.0, 1.0, 200001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spec.f1(r)
        edges = spec.f1(np.array([-1.0, 1.0]))
        outside = spec.f1(np.array([-np.inf, -1.5, np.nextafter(-1.0, -2.0),
                                    np.nextafter(1.0, 2.0), 1.5, np.inf]))
    p, q = xlogy(1.0 + r, 1.0 + r), xlogy(1.0 - r, 1.0 - r)
    scale = 0.5 * theta * (np.abs(p) + np.abs(q))
    assert np.all(np.abs(got - 0.5 * theta * (p + q)) <= 4.0 * np.spacing(scale))
    assert got[100000] == 0.0
    assert np.array_equal(edges, [theta * np.log(2.0)] * 2)
    assert np.all(outside == np.inf)
