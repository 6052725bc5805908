from pathlib import Path

import pytest

from nlch.audit import audit
from nlch.config import build_problem, load_config
from nlch.errors import AssumptionError
from nlch.model import validate_params
from nlch.potential import logarithmic_potential

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
