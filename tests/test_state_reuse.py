"""Each stepped state's J*phi and resolvent are computed once and reused.

``run`` hands the accepted Newton iterate's Yosida triple to the next
step and to the state's diagnostics record, and shares one convolution
per state between the record and the next step's explicit term. These
tests count the expensive calls and check that the reused values equal
a from-scratch recomputation exactly.
"""

from pathlib import Path

import numpy as np
import pytest

import nlch.kernel
import nlch.potential
from nlch import diagnostics
from nlch.config import build_problem, load_config
from nlch.errors import SolverError, StepError
from nlch.kernel import nonlocal_energy_density
from nlch.model import State, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _problem(name, *overrides):
    return build_problem(load_config(str(CONFIGS / name), list(overrides)))


def _counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("family, per_iterate", [("polynomial", 1), ("double-obstacle", 0)])
def test_one_resolvent_per_newton_iterate_and_one_convolution_per_state(
        monkeypatch, family, per_iterate):
    problem = _problem("default.cfg", "model.T=0.02", f"potential.family={family}")
    resolvents = _counting(monkeypatch, nlch.potential, "_resolvent_newton")
    convolutions = _counting(monkeypatch, nlch.kernel._FastConvolution, "apply")
    traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    n_steps = len(traj.records) - 1
    newton_iters = sum(rec.newton_iters for rec in traj.records)
    assert n_steps == 20 and newton_iters >= n_steps
    # the obstacle resolvent is a clip and never reaches the Newton solver
    assert len(resolvents) == per_iterate * (newton_iters + 1)
    assert len(convolutions) == n_steps + 1


@pytest.mark.parametrize("name, overrides", [
    ("default.cfg", ("model.T=0.05",)),
    ("separation.cfg", ("model.T=0.05",)),
    ("default.cfg", ("model.T=0.05", "potential.family=double-obstacle")),
])
def test_reused_record_values_equal_recomputation(name, overrides):
    problem = _problem(name, *overrides)
    traj = run(problem.init, problem.params, problem.bundle, problem.spec, snapshot_stride=1)
    assert len(traj.records) == len(traj.phis) > 1
    for rec, t, phi, mu, sigma in zip(traj.records, traj.times, traj.phis, traj.mus,
                                      traj.sigmas):
        # lyapunov reads phi, mu and sigma only; xi is a placeholder
        state = State(t=t, phi=phi, mu=mu, sigma=sigma, xi=phi)
        assert rec.lyapunov == diagnostics.lyapunov(state, traj.params, problem.bundle,
                                                    problem.spec)
        assert rec.energy_nonlocal == nonlocal_energy_density(problem.bundle, phi)


def test_failed_linear_solve_fails_the_step_with_the_partial_run():
    problem = _problem("default.cfg", "model.T=0.01")
    params = problem.params.with_params(h=lambda r: np.full_like(r, np.nan))
    with pytest.raises(StepError, match="Newton linear solve failed") as err:
        run(problem.init, params, problem.bundle, problem.spec, validate=False)
    assert isinstance(err.value.__cause__, SolverError)
    assert err.value.partial.times == [0.0]
