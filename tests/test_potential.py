import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from nlch.errors import AssumptionError, ConfigError, InapplicabilityError
from nlch.potential import (
    barrier_margin_values,
    check_dominance,
    check_growth,
    double_obstacle_potential,
    f_eval,
    f_prime_regularized,
    logarithmic_potential,
    moreau,
    moreau_envelope,
    polynomial_potential,
    resolvent,
    validate_split,
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
    """Where the scalar inclusion has a float64-representable root.

    Near a log barrier the equation's slope grows like theta/(1 - s^2);
    once it exceeds ~1/ulp no float can meet an absolute residual
    tolerance, so the contract is exercised where roots are resolvable.
    """
    if spec.family == "logarithmic":
        theta = spec.params["theta"]
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


def test_yosida_examples():
    for spec, _ in FAMILIES:
        assert yosida(spec, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_yosida_lipschitz_and_monotone():
    rng = np.random.default_rng(1)
    for spec, (lo, hi) in FAMILIES:
        for lam in (1.0, 0.1, 0.01):
            r = rng.uniform(lo, hi, 1000)
            s = rng.uniform(lo, hi, 1000)
            yr, ys = yosida(spec, lam, r), yosida(spec, lam, s)
            assert np.all(np.abs(yr - ys) <= np.abs(r - s) / lam * (1 + 1e-9) + 1e-12)
            rr, rs = resolvent(spec, lam, r), resolvent(spec, lam, s)
            assert np.all(np.abs(rr - rs) <= np.abs(r - s) * (1 + 1e-9) + 1e-12)
            order = np.argsort(r)
            assert np.all(np.diff(yr[order]) >= -1e-10)


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


def test_moreau_quadrature_matches_envelope():
    rng = np.random.default_rng(2)
    for spec, (lo, hi) in FAMILIES:
        pts = rng.uniform(max(lo, -3), min(hi, 3), 6)
        for lam in (0.5, 0.05):
            for r in pts:
                q = moreau(spec, lam, float(r))
                env = float(np.asarray(moreau_envelope(spec, lam, float(r))))
                assert q == pytest.approx(env, abs=1e-8)
                assert -1e-12 <= q
                f1r = float(np.asarray(spec.f1(float(r))))
                assert q <= f1r + 1e-9


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
    # inf of a_* + F'' = a_* + inf(3r^2 - 1) is 0 at r = 0 for a_* = 1
    with pytest.raises(AssumptionError) as err:
        check_dominance(poly, 1.0)
    assert "r = 0" in str(err.value) or "r = -0" in str(err.value)
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

    got = check_growth(polynomial_potential(0.0))
    assert got == pytest.approx(oracle_value, abs=1e-6)

    # r = 0 contributes 0 to the sup
    assert abs(0.0 / (0.25 + 1.0)) == 0.0

    for barrier in (logarithmic_potential(0.3, 0.6), double_obstacle_potential(0.2)):
        with pytest.raises(InapplicabilityError):
            check_growth(barrier)


def test_graph_convergence_trend():
    for spec, r in ((polynomial_potential(0.5), 1.5), (logarithmic_potential(0.3, 0.6), 0.7)):
        res_gap = [abs(resolvent(spec, lam, r) - r) for lam in (1e-1, 1e-2, 1e-3)]
        yos_gap = [abs(yosida(spec, lam, r) - float(np.asarray(spec.f1_prime(r))))
                   for lam in (1e-1, 1e-2, 1e-3)]
        assert res_gap[0] > res_gap[1] > res_gap[2]
        assert yos_gap[0] > yos_gap[1] > yos_gap[2]


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


def test_validate_split_families():
    for spec, _ in FAMILIES:
        checks = validate_split(spec)
        assert all(checks.values()), checks
    # exact nonnegativity holds for the polynomial and obstacle wells;
    # the logarithmic well dips below zero by a known constant that only
    # shifts the energy (the dynamics sees F'), reported as an offset
    from nlch.potential import normalization_offset

    assert normalization_offset(polynomial_potential(0.5)) == 0.0
    assert normalization_offset(double_obstacle_potential(0.3)) == 0.0
    off = normalization_offset(logarithmic_potential(0.3, 0.6))
    assert 0.0 < off < 0.6 / 2  # deeper than 0, shallower than the F2 scale
    assert off > 0.6 / 2 - 0.3 * np.log(2)  # at least the endpoint depth


def test_constructor_validation():
    with pytest.raises(ConfigError):
        logarithmic_potential(0.6, 0.3)
    with pytest.raises(ConfigError):
        double_obstacle_potential(-1.0)
    with pytest.raises(ConfigError):
        polynomial_potential(-0.5)
    with pytest.raises(ConfigError):
        resolvent(polynomial_potential(0.5), 0.0, 1.0)
