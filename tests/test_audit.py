from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlch.audit import audit
from nlch.config import build_problem, load_config
from nlch.errors import AssumptionError
from nlch.model import H_FAMILIES, validate_params
from nlch.potential import (
    double_obstacle_potential,
    f_eval,
    logarithmic_potential,
    normalization_offset,
    polynomial_potential,
    resolvent,
)

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


@pytest.mark.parametrize("change, first_failure", [
    ({}, None),
    ({"eps": 0.0, "tau": 0.0, "chi": 10.0}, "ip_chi"),
    ({"eps": -0.01}, "eps < eps0"),
    ({"tau": -0.1}, "tau < tau0 = 1"),
    ({"sigma_s": 1.7}, "A3 sigma_S in [0, 1]"),
    ({"eps": 0.2}, "eps < eps0"),
    ({"eps": 0.0, "eta": 0.1}, "eta = 0 for eps = 0"),
    ({"eps": 0.0, "potential": "logarithmic"}, "pol_growth"),
], ids=["default", "eps0-tau0-chi10", "eps-negative", "tau-negative", "sigma-s-1.7",
        "eps-0.2", "eps0-eta", "log-eps0"])
def test_run_admission_agrees_with_the_audit(change, first_failure):
    problem = build_problem(load_config(str(DEFAULT_CFG)))
    change = dict(change)
    spec = logarithmic_potential(0.3, 0.6) if change.pop("potential", None) else problem.spec
    params = problem.params.with_params(**change)

    report = audit(params, problem.bundle, spec, problem.init)
    failing = [c.name for c in report.checks if c.applicable and not c.passed]
    assert (failing[0] if failing else None) == first_failure
    assert report.passed == (first_failure is None)

    if first_failure is None:
        validate_params(params, problem.bundle, spec)
    else:
        with pytest.raises(AssumptionError) as err:
            validate_params(params, problem.bundle, spec)
        assert err.value.name == first_failure


# every well a family constructor admits: shift >= 0, 0 < theta < theta0, c > 0
ADMITTED_WELLS = st.one_of(
    st.builds(polynomial_potential, st.floats(0.0, 10.0)),
    st.builds(lambda theta0, share: logarithmic_potential(share * theta0, theta0),
              st.floats(1e-3, 10.0), st.floats(1e-3, 0.999)),
    st.builds(double_obstacle_potential, st.floats(1e-3, 10.0)),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(H_FAMILIES)), ADMITTED_WELLS, st.floats(1e-6, 1.0))
def test_a2_and_a4_hold_for_every_admitted_parameter(h_name, spec, lam):
    # A2 and A4 state closed forms; the samples they once took, here on a
    # denser mesh, pass for every admitted h and well
    profile = H_FAMILIES[h_name]
    rs = np.linspace(-50.0, 50.0, 20001)
    hv = profile.h(rs)
    lo, hi = profile.range
    assert np.all((lo <= hv) & (hv <= hi))
    # the Lipschitz constant is the sup of |h'|, taken at r = 0
    assert np.max(np.abs(profile.prime(rs))) == profile.lipschitz
    assert np.all(np.abs(np.diff(hv)) <= profile.lipschitz * np.diff(rs) + 1e-15)

    if spec.has_barrier:
        rs = np.linspace(-spec.ell, spec.ell, 20001)
    else:
        rs = np.linspace(-10.0, 10.0, 20001)
    assert np.all(np.asarray(spec.f1(rs)) >= -1e-12)
    # F is bounded below by minus the offset A4 prints
    assert np.all(f_eval(spec, rs) + normalization_offset(spec) >= -1e-12)
    assert float(spec.f2_prime(0.0)) == 0.0
    assert resolvent(spec, lam, 0.0) == 0.0  # 0 in dF1(0)

    # exact nonnegativity holds for the polynomial and obstacle wells;
    # the logarithmic well dips below zero by a constant that only
    # shifts the energy (the dynamics sees F'), reported as an offset
    assert normalization_offset(polynomial_potential(0.5)) == 0.0
    assert normalization_offset(double_obstacle_potential(0.3)) == 0.0
    off = normalization_offset(logarithmic_potential(0.3, 0.6))
    assert 0.0 < off < 0.6 / 2  # deeper than 0, shallower than the F2 scale
    assert off > 0.6 / 2 - 0.3 * np.log(2)  # at least the endpoint depth
