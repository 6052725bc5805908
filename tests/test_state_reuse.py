"""Each stepped state's J*phi and resolvent are computed once and reused.

``run`` hands the accepted Newton iterate's Yosida triple to the next
step and to the state's diagnostics record, and shares one convolution
per state between the record and the next step's explicit term. These
tests count the expensive calls and check that the reused values equal
a from-scratch recomputation exactly.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlch.kernel
import nlch.model
import nlch.potential
from nlch import diagnostics
from nlch.config import build_problem, load_config
from nlch.errors import SolverError, StepError
from nlch.grid import Field
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
    for rec, phi, mu, sigma in zip(traj.records, traj.phis, traj.mus, traj.sigmas):
        state = State(phi=phi, mu=mu, sigma=sigma)
        assert rec.lyapunov == diagnostics.lyapunov(state, traj.params, problem.bundle,
                                                    problem.spec)
        assert rec.energy_nonlocal == nonlocal_energy_density(problem.bundle, phi)


def test_failed_linear_solve_fails_the_step_with_the_partial_run():
    # one NaN cell of sigma0 makes the first Newton right-hand side non-finite
    problem = _problem("default.cfg", "model.T=0.01")
    params = problem.params
    sigma = problem.init.sigma0.values.copy()
    sigma[0] = np.nan
    init = replace(problem.init, sigma0=Field(problem.init.sigma0.grid, sigma, check=False))
    with pytest.raises(StepError, match="Newton linear solve failed") as err:
        run(init, params, problem.bundle, problem.spec, validate=False)
    assert isinstance(err.value.__cause__, SolverError)
    assert err.value.partial.times == [0.0]
    assert (err.value.phase, err.value.step, err.value.t) == ("Newton", 1, params.dt)


@pytest.mark.parametrize("name, transport", [("default.cfg", 0), ("separation.cfg", 1)])
def test_nutrient_laplacian_only_with_active_transport(monkeypatch, name, transport):
    # one Laplacian per Newton residual; the nutrient update adds eta lap(phi)
    # only when eta != 0 (default.cfg: eta = 0, separation.cfg: eta = 0.05)
    problem = _problem(name, "model.T=0.01")
    laps = _counting(monkeypatch, nlch.model, "_lap_array")
    traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    n_steps = len(traj.records) - 1
    newton_iters = sum(rec.newton_iters for rec in traj.records)
    assert n_steps == 10
    assert len(laps) == newton_iters + n_steps * (1 + transport)
    if name == "default.cfg":
        assert len(laps) == 3 * n_steps
