"""Each stepped state's J*phi, resolvent and derived arrays are computed
once and reused.

``run`` hands the accepted Newton iterate's Yosida triple to the next
step and to the state's diagnostics record, and shares one convolution
per state between the record and the next step's explicit term. The
step also hands on the state's _Derived arrays (h, the conserved mass
and its row sums, lap mu, a phi and the run's tau/dt + a), and records
are made in blocks of states. These tests count the expensive calls and
check that the reused values equal a from-scratch recomputation exactly.
"""

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
from nlch.model import State, Trajectory, _derive, _Derived, run, run_rows

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
    init = problem.init._replace(sigma0=Field(problem.init.sigma0.grid, sigma, check=False))
    with pytest.raises(StepError, match="Newton linear solve failed") as err:
        run(init, params, problem.bundle, problem.spec, validate=False)
    assert isinstance(err.value.__cause__, SolverError)
    assert err.value.partial.times == [0.0]
    assert (err.value.phase, err.value.step, err.value.t) == ("Newton", 1, params.dt)


@pytest.mark.parametrize("name, transport", [("default.cfg", 0), ("separation.cfg", 1)])
def test_nutrient_laplacian_only_with_active_transport(monkeypatch, name, transport):
    # lap(mu) and h(phi) once per state: the fresh state's in _derive, every
    # later state's carried from the Newton iterate that produced it, so
    # the first residual of a step forms neither; the nutrient update adds
    # eta lap(phi) only when eta != 0 (default.cfg: eta = 0, separation.cfg:
    # eta = 0.05)
    profile = nlch.model.H_FAMILIES["default"]
    h_calls = []

    def counted_h(r):
        h_calls.append(1)
        return profile.h(r)

    monkeypatch.setitem(nlch.model.H_FAMILIES, "default", profile._replace(h=counted_h))
    problem = _problem(name, "model.T=0.01")
    assert problem.params.h is counted_h
    laps = _counting(monkeypatch, nlch.model, "_lap_array")
    traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    n_steps = len(traj.records) - 1
    newton_iters = sum(rec.newton_iters for rec in traj.records)
    assert n_steps == 10
    assert len(laps) == newton_iters + 1 + n_steps * transport
    assert len(h_calls) == n_steps + 1
    if name == "default.cfg":
        assert len(laps) == 2 * n_steps + 1


def _assert_bitwise(got, want):
    for name, a, b in zip(_Derived._fields, got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _checking_steps(monkeypatch, steps=None):
    """Wrap _step_arrays so that every call checks the _Derived arrays it
    takes and hands on against _derive on the state they belong to."""
    original = nlch.model._step_arrays

    def checked(phi, mu, sig, conv_phi, yos, rows, bundle, spec, derived):
        _assert_bitwise(derived, _derive(phi, mu, rows, bundle))
        out = original(phi, mu, sig, conv_phi, yos, rows, bundle, spec, derived)
        _assert_bitwise(out[5], _derive(out[0], out[1], rows, bundle))
        if steps is not None:
            steps.append(out)
        return out

    monkeypatch.setattr(nlch.model, "_step_arrays", checked)


@pytest.mark.parametrize("name, overrides", [
    ("default.cfg", ()),
    ("separation.cfg", ()),
    ("rate-study.cfg", ("grid.cells=64",)),
    ("default.cfg", ("potential.family=double-obstacle",)),
    ("default.cfg", ("model.h=tanh", "ic.family=random-smoothed")),
])
def test_carried_arrays_are_the_fresh_state_arrays(monkeypatch, name, overrides):
    problem = _problem(name, "model.T=0.02", *overrides)
    steps = []
    _checking_steps(monkeypatch, steps)
    traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    assert len(steps) == 20 and isinstance(traj, Trajectory)


@pytest.mark.parametrize("column", ["eps", "tau"])
def test_carried_arrays_survive_a_failed_row_and_its_retry(monkeypatch, column):
    # three lockstep rows, differing in eps (tau/dt + a shared by the rows)
    # or in tau (one row of it per row); the middle row fails step 6 in the
    # batch and in its one-row retry, so _step_rows slices every carried
    # array per row and stacks those of the two rows that go on
    problem = _problem("rate-study.cfg", "grid.cells=64", "model.T=0.01")
    base = problem.params
    values = {"eps": (2e-2, 1e-2, 5e-3), "tau": (4e-2, 2e-2, 1e-2)}[column]
    params = [base.with_params(**{column: v}) for v in values]
    _checking_steps(monkeypatch)
    checked = nlch.model._step_arrays
    calls = []

    def failing(*args):
        rows = args[5].params
        calls.append(len(rows))
        if calls.count(3) == 6 and params[1] in rows:
            raise StepError("injected failure", phase="Newton")
        return checked(*args)

    monkeypatch.setattr(nlch.model, "_step_arrays", failing)
    results = run_rows([problem.init] * 3, params, problem.bundle, problem.spec, validate=False)
    assert calls == [3] * 6 + [1] * 3 + [2] * 4
    assert isinstance(results[1], StepError) and results[1].step == 6
    monkeypatch.undo()
    for got, p in zip((results[0], results[2]), (params[0], params[2])):
        want = run(problem.init, p, problem.bundle, problem.spec, validate=False)
        assert isinstance(got, Trajectory) and len(got.records) == 11
        assert got.records == want.records


def _each_state(monkeypatch):
    """Record the state each step of a one-row run accepts, with its StepStats."""
    original = nlch.model._step_arrays
    states = []

    def recording(*args):
        out = original(*args)
        states.append((out[0], out[1], out[2], out[4].stats[0]))
        return out

    monkeypatch.setattr(nlch.model, "_step_arrays", recording)
    return states


def test_block_records_equal_each_states_recomputation(monkeypatch):
    # default.cfg stores every 25th state, more than a record block holds:
    # records come in blocks cut at every snapshot and after RECORD_BLOCK
    # states, and each equals the record of its state alone
    cfg = load_config(str(CONFIGS / "default.cfg"), ["model.T=0.05"])
    assert cfg["output.snapshot_stride"] == 25 > nlch.model.RECORD_BLOCK == 8
    problem = build_problem(cfg)
    states = _each_state(monkeypatch)
    blocks = []
    make_record = diagnostics.make_record

    def block(t, *args, **kwargs):
        blocks.append(len(t))
        return make_record(t, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "make_record", block)
    traj = run(problem.init, problem.params, problem.bundle, problem.spec, snapshot_stride=25)
    assert blocks == [1, 8, 8, 8, 1, 8, 8, 8, 1]
    assert traj.times == [0.0, 0.025, 0.05]
    init = problem.init
    states = [(init.phi0.values, init.mu0.values, init.sigma0.values, None)] + states
    assert len(traj.records) == len(states) == 51
    grid, dt = problem.grid, traj.params.dt
    for k, (rec, (phi, mu, sigma, stats)) in enumerate(zip(traj.records, states)):
        state = State(*(Field(grid, v) for v in (phi, mu, sigma)))
        assert rec.t == k * dt
        assert rec.lyapunov == diagnostics.lyapunov(state, traj.params, problem.bundle,
                                                    problem.spec)
        assert rec.energy_nonlocal == nonlocal_energy_density(problem.bundle, state.phi)
        assert (rec.sigma_min, rec.sigma_max) == (sigma.min(), sigma.max())
        assert rec.phi_supnorm == np.abs(phi).max()
        if stats is not None:
            assert (rec.mass_balance_residual, rec.newton_iters) == (stats.mass_defect,
                                                                     stats.newton_iters)


def test_a_run_failing_mid_block_keeps_a_record_per_completed_step(monkeypatch):
    # step 13 fails with states 9-12 waiting in a record block: the partial
    # run holds the records of steps 0-12, those of the run that goes on
    problem = _problem("default.cfg", "model.T=0.05")
    want = run(problem.init, problem.params, problem.bundle, problem.spec, snapshot_stride=25)
    original = nlch.model._step_arrays
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 13:
            raise StepError("injected failure", phase="Newton")
        return original(*args)

    monkeypatch.setattr(nlch.model, "_step_arrays", failing)
    with pytest.raises(StepError, match="injected failure") as err:
        run(problem.init, problem.params, problem.bundle, problem.spec, snapshot_stride=25)
    partial = err.value.partial
    assert err.value.step == 13 and partial.times == [0.0]
    assert len(partial.records) == 13
    assert partial.records == want.records[:13]
