from pathlib import Path

import numpy as np
import pytest

import nlch.model
import nlch.potential
from nlch.audit import GateInput, admit, ip_infty, ip_init
from nlch.config import build_problem, load_config
from nlch.diagnostics import lyapunov_decay, mass_balance, max_principle
from nlch.errors import AssumptionError, ConfigError, SolverError, StepError
from nlch.grid import Field, GridSpec, mean, norm_h
from nlch.kernel import KernelSpec, build
from nlch.model import (
    H_FAMILIES,
    InitialData,
    ModelParams,
    Trajectory,
    h_default,
    h_one,
    h_tanh,
    _derive,
    _lockstep,
    _step_arrays,
    make_smoothed_ic,
    run,
    run_rows,
    validate_params,
)
from nlch.potential import (
    f_prime_regularized,
    logarithmic_potential,
    yosida_with_derivative,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def coupled_params(**kw):
    base = dict(eps=0.05, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2, eta=0.0,
                sigma_s=0.8, dt=1e-3, T=0.05, lam=1e-3)
    base.update(kw)
    return ModelParams(**base)


def test_h_default():
    assert h_default(1.0) == 1.0
    assert h_default(-1.0) == 0.0
    assert h_default(0.0) == 0.5
    rng = np.random.default_rng(0)
    r, s = rng.uniform(-3, 3, 500), rng.uniform(-3, 3, 500)
    assert np.all(np.abs(h_default(r) - h_default(s)) <= np.abs(r - s) / 2 + 1e-15)
    assert np.all(h_default(r) >= 0) and np.all(h_default(r) <= 1)
    assert np.all(h_one(r) == 1.0)
    assert np.all((h_tanh(r) > 0) & (h_tanh(r) < 1))


def test_model_params_admit_only_the_h_profiles():
    # A2 states the closed forms of H_FAMILIES, so no other h reaches a run
    with pytest.raises(ConfigError, match="H_FAMILIES"):
        ModelParams(eps=0.1, tau=0.1, dt=1e-3, lam=1e-3, h=lambda r: 0.5 + 0.0 * r)
    assert [ModelParams(h=p.h).h_profile[0] for p in H_FAMILIES.values()] == list(H_FAMILIES)


def test_with_params_validates_the_copy():
    # with_params builds a new ModelParams, so every check of the constructor runs
    base = ModelParams(eps=0.1, tau=0.2, dt=1e-3, T=0.5)
    with pytest.raises(ConfigError, match="dt must be > 0, got 0"):
        base.with_params(dt=0)
    with pytest.raises(ConfigError, match="H_FAMILIES"):
        base.with_params(h=lambda r: 0.5 + 0.0 * r)
    with pytest.raises(TypeError):
        base.with_params(dtt=1e-3)
    copy = base.with_params(tau=0.0, h=h_tanh)
    assert (copy.eps, copy.tau, copy.dt, copy.T, copy.h) == (0.1, 0.0, 1e-3, 0.5, h_tanh)
    assert (base.tau, base.h) == (0.2, h_default)


def test_trajectory_takes_appends_and_flag_updates(grid64):
    params = ModelParams()
    a, b = Trajectory(params=params), Trajectory(params=params)
    assert (a.times, a.phis, a.mus, a.sigmas, a.records) == ([], [], [], [], [])
    a.times.append(0.0)
    a.phis.append(Field.constant(grid64, 0.0))
    # each trajectory starts with lists of its own
    assert (b.times, b.phis) == ([], [])
    assert (a.times, len(a.phis)) == ([0.0], 1)
    times = [0.0, 0.1]
    assert Trajectory(params, times=times).times is times


def test_step_fixed_point(grid256, bundle_wide, poly):
    params = ModelParams(eps=0.05, tau=0.1, dt=1e-3, T=1.0, lam=1e-3)
    c = 0.3
    mu_c = float(f_prime_regularized(poly, params.lam_eff, c))
    init = InitialData(
        Field.constant(grid256, c),
        Field.constant(grid256, mu_c),
        Field.constant(grid256, 0.5),
    )
    traj = run(init, params.with_params(T=params.dt), bundle_wide, poly,
               record_diagnostics=False)
    assert np.max(np.abs(traj.phis[-1].values - c)) <= 1e-12
    assert np.max(np.abs(traj.mus[-1].values - mu_c)) <= 1e-12
    assert np.max(np.abs(traj.sigmas[-1].values - 0.5)) <= 1e-12
    assert traj.times[-1] == pytest.approx(params.dt)


def test_nutrient_relaxation_closed_form(grid64, bundle64, poly):
    # frozen phi (constant stationary data), decoupled sigma: the scheme
    # reduces to backward Euler on sigma' = B(1 - sigma); the discrete
    # error vs 1 - exp(-t) at T = 0.1 stays below the 1e-4 budget and
    # halves with dt
    errs = []
    for dt in (1e-3, 5e-4):
        params = ModelParams(eps=0.05, tau=0.1, P=0.0, A=0.0, B=1.0, C=0.0, chi=0.0,
                             sigma_s=1.0, dt=dt, T=0.1, lam=1e-3)
        c = 0.2
        mu_c = float(f_prime_regularized(poly, params.lam_eff, c))
        init = InitialData(
            Field.constant(grid64, c),
            Field.constant(grid64, mu_c),
            Field.constant(grid64, 0.0),
        )
        traj = run(init, params, bundle64, poly, record_diagnostics=False)
        sig = traj.sigmas[-1].values
        assert np.max(sig) - np.min(sig) <= 1e-12  # stays spatially constant
        errs.append(abs(sig[0] - (1.0 - np.exp(-0.1))))
    assert errs[0] <= 1e-4
    assert errs[1] <= 0.6 * errs[0]  # first order in dt


def test_mass_source_balance(grid256, bundle_wide, poly, cosine_data):
    phi0, mu0, sig0 = cosine_data
    for eps, tau in ((0.05, 0.1), (0.0, 0.1), (0.05, 0.0), (0.0, 0.0)):
        params = coupled_params(eps=eps, tau=tau, T=0.02)
        traj = run(InitialData(phi0, mu0, sig0), params, bundle_wide, poly)
        passed, worst = mass_balance(traj.records)
        assert passed, (eps, tau, worst)


def test_run_T0_returns_initial_only(grid64, bundle64, poly):
    params = coupled_params(T=0.0)
    init = InitialData(
        Field.constant(grid64, 0.1),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.5),
    )
    traj = run(init, params, bundle64, poly)
    assert len(traj.times) == 1 and traj.times[0] == 0.0
    assert np.array_equal(traj.phis[0].values, init.phi0.values)


def test_determinism(grid64, bundle64, poly):
    x = grid64.axis_coordinates(0)
    init = InitialData(
        Field(grid64, 0.2 * np.cos(np.pi * x)),
        Field.constant(grid64, 0.0),
        Field(grid64, 0.5 + 0.2 * np.cos(np.pi * x)),
    )
    params = coupled_params(T=0.02)
    t1 = run(init, params, bundle64, poly)
    t2 = run(init, params, bundle64, poly)
    assert np.array_equal(t1.phis[-1].values, t2.phis[-1].values)
    assert np.array_equal(t1.sigmas[-1].values, t2.sigmas[-1].values)
    assert [r.lyapunov for r in t1.records] == [r.lyapunov for r in t2.records]


def test_dt_self_convergence(grid64, bundle64, poly):
    # first-order scheme: halving dt halves the endpoint error vs a dt/8
    # reference; observed order must be at least 0.9
    x = grid64.axis_coordinates(0)
    init = InitialData(
        Field(grid64, 0.3 * np.cos(np.pi * x)),
        Field.constant(grid64, 0.0),
        Field(grid64, 0.5 + 0.3 * np.cos(np.pi * x)),
    )
    T = 0.04
    dts = [4e-3, 2e-3, 1e-3]
    ref = run(init, coupled_params(dt=dts[0] / 8, T=T), bundle64, poly,
              record_diagnostics=False)
    errs = []
    for dt in dts:
        traj = run(init, coupled_params(dt=dt, T=T), bundle64, poly,
                   record_diagnostics=False)
        errs.append(norm_h(Field(grid64, traj.phis[-1].values - ref.phis[-1].values)))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order >= 0.9


def test_make_smoothed_ic(grid256):
    x = grid256.axis_coordinates(0)
    target = Field(grid256, np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x))
    assert make_smoothed_ic(target, 0.0) is target

    c = Field.constant(grid256, 2.0)
    sm = make_smoothed_ic(c, 0.25)
    assert np.max(np.abs(sm.values - 2.0 / 1.25)) <= 1e-9

    # ||v_s - target||_H <= M0 sqrt(s): the ratio stays bounded as s drops
    ss = [1e-1, 1e-2, 1e-3, 1e-4]
    errs = [norm_h(Field(grid256, make_smoothed_ic(target, s).values - target.values))
            for s in ss]
    ratios = [e / np.sqrt(s) for e, s in zip(errs, ss)]
    assert max(ratios) == ratios[0]  # decreasing: bound holds with M0 = ratios[0]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    with pytest.raises(ConfigError):
        make_smoothed_ic(target, -1.0)


def test_barrier_safety_and_xi_invariant(grid64, bundle64, logpot):
    x = grid64.axis_coordinates(0)
    params = coupled_params(chi=0.5, T=0.05)
    init = InitialData(
        Field(grid64, 0.7 * np.cos(np.pi * x)),
        Field.constant(grid64, 0.0),
        Field(grid64, 0.5 + 0.3 * np.cos(np.pi * x)),
    )
    phi, mu, sig = init.phi0.values, init.mu0.values, init.sigma0.values
    yos = yosida_with_derivative(logpot, params.lam_eff, phi)
    rows = _lockstep([params])
    derived = _derive(phi, mu, rows, bundle64)
    for k in range(20):
        phi, mu, sig, yos, _, derived = _step_arrays(phi, mu, sig, bundle64.convolve_array(phi),
                                                     yos, rows, bundle64, logpot, derived)
        assert np.max(np.abs(phi)) < 1.0
        expected = yosida_with_derivative(logpot, params.lam_eff, phi)
        for got, want in zip(yos, expected):
            assert np.max(np.abs(got - want)) <= 1e-14


def test_validate_params_gates(grid256, bundle_wide, poly, logpot):
    with pytest.raises(AssumptionError, match="A1"):
        validate_params(coupled_params(P=-1.0), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="A3"):
        validate_params(coupled_params(sigma_s=1.5), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="eps < eps0"):
        validate_params(coupled_params(eps=0.2), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="tau < tau0"):
        validate_params(coupled_params(tau=1.5), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="ip_chi"):
        validate_params(coupled_params(tau=0.0, chi=10.0), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="eta = 0"):
        validate_params(coupled_params(eps=0.0, eta=0.1), bundle_wide, poly)

    with pytest.raises(AssumptionError, match="pol_growth"):
        validate_params(coupled_params(eps=0.0), bundle_wide, logpot)

    # a_* = 0.49 leaves a_* + F''(0) = a_* - 1 < 0 on the quartic well
    narrow = build(KernelSpec("gaussian", width=3.0, normalization=0.5), grid256)
    with pytest.raises(AssumptionError, match="A5 dominance"):
        validate_params(coupled_params(), narrow, poly)

    # an admissible config passes
    validate_params(coupled_params(), bundle_wide, poly)


def test_initial_data_checks(grid64, logpot, poly):
    too_far = InitialData(
        Field.constant(grid64, 1.5),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.5),
    )
    with pytest.raises(AssumptionError, match="ip_init"):
        admit([ip_init(GateInput(coupled_params(), spec=logpot, init=too_far))])
    ok = InitialData(
        Field.constant(grid64, 0.5),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.5),
    )
    admit([ip_init(GateInput(coupled_params(), spec=logpot, init=ok))])
    bad_sigma = InitialData(
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 1.2),
    )
    with pytest.raises(AssumptionError, match="ip_infty"):
        admit([ip_infty(GateInput(coupled_params(), spec=poly, init=bad_sigma))])


def test_run_admits_sigma0_through_ip_infty(grid64, bundle64, poly):
    # with eta = 0 the audit fails sigma0 outside [0, 1], so a direct run must too
    bad_sigma = InitialData(
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 1.2),
    )
    with pytest.raises(AssumptionError, match="ip_infty"):
        run(bad_sigma, coupled_params(eta=0.0, T=0.01), bundle64, poly)
    # the row does not apply with active transport
    traj = run(bad_sigma, coupled_params(eta=0.05, T=0.002), bundle64, poly)
    assert isinstance(traj, Trajectory) and len(traj.records) == 3


def test_2d_run_conserves_and_dissipates():
    g = GridSpec(2, (1.0, 1.0), (32, 32))
    b = build(KernelSpec("gaussian", width=3.0, normalization=2.05), g)
    from nlch.potential import polynomial_potential

    p = polynomial_potential(0.5)
    X, Y = g.meshgrid()
    init = InitialData(
        Field(g, 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)),
        Field.constant(g, 0.0),
        Field(g, 0.5 + 0.2 * np.cos(np.pi * X)),
    )
    params = coupled_params(T=0.02)
    traj = run(init, params, b, p)
    assert mass_balance(traj.records)[0]
    # every step's sigma, not only the last
    assert max_principle(traj.records)[0]

    # source-free 2D: Lyapunov non-increasing
    traj0 = run(init, ModelParams(eps=0.05, tau=0.1, dt=1e-3, T=0.02, lam=1e-3), b, p)
    assert lyapunov_decay(traj0.records)[0]


def test_step_error_without_coercivity(grid64):
    # zero kernel, tau = eps = 0, and an unshifted split with F1'' = 0 at
    # the state: the implicit diagonal tau/dt + a + Y' degenerates
    from nlch.potential import polynomial_potential

    flat = polynomial_potential(0.0)
    zero_bundle = build(KernelSpec("gaussian", width=1.0, normalization=0.0), grid64)
    params = ModelParams(eps=0.0, tau=0.0, dt=1e-3, T=1e-3, lam=1e-3, P=1.0, sigma_s=0.5)
    init = InitialData(
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.0),
        Field.constant(grid64, 0.5),
    )
    # the audit refuses this configuration (A5); the stepper must fail it too
    with pytest.raises(StepError, match="coercivity"):
        run(init, params, zero_bundle, flat, validate=False, record_diagnostics=False)


def test_default_cfg_takes_at_most_two_newton_iterations_per_step():
    # the exact polynomial resolvent and the cancellation-free Yosida value
    # keep the residual floor low enough for the second iterate to stop
    problem = build_problem(load_config(str(CONFIGS / "default.cfg"), ["model.T=0.05"]))
    traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    iters = [rec.newton_iters for rec in traj.records[1:]]
    assert len(iters) == 50
    assert max(iters) <= 2


def test_unconverged_resolvent_fails_the_step_in_the_resolvent_phase(monkeypatch):
    problem = build_problem(load_config(str(CONFIGS / "separation.cfg"), ["model.T=0.01"]))
    params, bundle, spec = problem.params, problem.bundle, problem.spec
    phi, mu, sig = (f.values for f in (problem.init.phi0, problem.init.mu0, problem.init.sigma0))
    yos = yosida_with_derivative(spec, params.lam_eff, phi)
    monkeypatch.setattr(nlch.potential, "_MAX_NEWTON", 1)
    rows = _lockstep([params])
    with pytest.raises(StepError, match="resolvent failed") as err:
        _step_arrays(phi, mu, sig, bundle.convolve_array(phi), yos, rows, bundle, spec,
                     _derive(phi, mu, rows, bundle))
    assert err.value.phase == "resolvent"
    assert isinstance(err.value.__cause__, SolverError)
    assert len(err.value.residual_history) == 1


def _first_step(problem, params, sig):
    phi, mu = problem.init.phi0.values, problem.init.mu0.values
    yos = yosida_with_derivative(problem.spec, params.lam_eff, phi)
    rows = _lockstep([params])
    return _step_arrays(phi, mu, sig, problem.bundle.convolve_array(phi), yos, rows,
                        problem.bundle, problem.spec, _derive(phi, mu, rows, problem.bundle))


def test_non_finite_newton_residual_fails_the_step():
    # P sigma overflows the source term: the residual and its tolerance are
    # both infinite, which no accepted state may have
    problem = build_problem(load_config(str(CONFIGS / "default.cfg"), ["model.T=0.01"]))
    sig = np.full(problem.grid.size, 1e308)
    with np.errstate(over="ignore"), pytest.raises(StepError, match="not finite") as err:
        _first_step(problem, problem.params.with_params(P=4.0), sig)
    assert err.value.phase == "Newton"


def _route_solves(monkeypatch, phase, corrupt):
    """Send the stepper's solves of ``phase`` through corrupt(solve, grid, diag, lap_coeff, rhs).

    On default.cfg the nutrient diagonal 1 + dt (B + C h) is the only one
    >= 1; the Newton diagonal eps + 1/(tau/dt + a + Y') is below 1.
    """
    solve = nlch.model.solve_shifted_diffusion

    def routed(grid, diag, lap_coeff, rhs):
        if (np.min(diag) >= 1.0) == (phase == "nutrient"):
            return corrupt(solve, grid, diag, lap_coeff, rhs)
        return solve(grid, diag, lap_coeff, rhs)

    monkeypatch.setattr(nlch.model, "solve_shifted_diffusion", routed)


def _nan_solution(solve, grid, diag, lap_coeff, rhs):
    # LAPACK hands back NaN: the solve's own scan of its solution fails it
    gtsv = nlch.grid.dgtsv

    def nan_gtsv(*args):
        *head, x, info = gtsv(*args)
        return (*head, np.full_like(x, np.nan), info)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nlch.grid, "dgtsv", nan_gtsv)
        return solve(grid, diag, lap_coeff, rhs)


def test_non_finite_nutrient_fails_the_step(monkeypatch):
    problem = build_problem(load_config(str(CONFIGS / "default.cfg"), ["model.T=0.01"]))
    _route_solves(monkeypatch, "nutrient", _nan_solution)
    with pytest.raises(StepError, match="non-finite") as err:
        _first_step(problem, problem.params, problem.init.sigma0.values)
    assert err.value.phase == "nutrient"


def test_non_finite_newton_solve_fails_the_step_at_once(monkeypatch):
    # the first Newton solve returns NaN: the step fails on that solve, not
    # on a later check of the NaN iterate
    problem = build_problem(load_config(str(CONFIGS / "default.cfg"), ["model.T=0.01"]))
    _route_solves(monkeypatch, "Newton", _nan_solution)
    with pytest.raises(StepError, match="non-finite") as err:
        _first_step(problem, problem.params, problem.init.sigma0.values)
    assert err.value.phase == "Newton"
    assert len(err.value.residual_history) == 1


_NON_FINITE_SYSTEM = "diffusion system has a non-finite diagonal or right-hand side"


@pytest.mark.parametrize("phase", ["Newton", "nutrient"])
@pytest.mark.parametrize("where, bad, message", [
    ("diag", np.nan, _NON_FINITE_SYSTEM),
    ("diag", np.inf, _NON_FINITE_SYSTEM),
    ("diag", -1.0, "diffusion system not positive definite: min diag -1.000e+00"),
    ("rhs", np.nan, _NON_FINITE_SYSTEM),
    ("rhs", -np.inf, _NON_FINITE_SYSTEM),
], ids=["nan-diag", "inf-diag", "nonpositive-diag", "nan-rhs", "inf-rhs"])
def test_a_bad_linear_system_fails_its_phase_with_the_solvers_message(monkeypatch, phase, where,
                                                                       bad, message):
    # each input the solve rejects names the phase and the solver's reason,
    # whichever of the diagonal and the right-hand side carries it
    problem = build_problem(load_config(str(CONFIGS / "default.cfg"), ["model.T=0.01"]))

    def corrupt(solve, grid, diag, lap_coeff, rhs):
        args = {"diag": np.array(diag, dtype=float), "rhs": np.array(rhs, dtype=float)}
        args[where][3] = bad
        return solve(grid, args["diag"], lap_coeff, args["rhs"])

    _route_solves(monkeypatch, phase, corrupt)
    with pytest.raises(StepError) as err:
        _first_step(problem, problem.params, problem.init.sigma0.values)
    assert err.value.phase == phase
    assert str(err.value) == f"{phase} linear solve failed: {message}"
    assert isinstance(err.value.__cause__, SolverError)


def _assert_same_run(got, want):
    # bit for bit: byte equality also tells -0.0 from 0.0
    assert got.times == want.times
    for name in ("phis", "mus", "sigmas"):
        fields_got, fields_want = getattr(got, name), getattr(want, name)
        assert len(fields_got) == len(fields_want)
        for a, b in zip(fields_got, fields_want):
            assert a.values.tobytes() == b.values.tobytes()
    assert np.array(got.records).tobytes() == np.array(want.records).tobytes()


def _eps_rows(grid64):
    # the limit system and three eps values, as an eps sweep steps them
    x = grid64.axis_coordinates(0)
    init = InitialData(
        Field(grid64, 0.2 * np.cos(np.pi * x)),
        Field(grid64, 0.1 * np.cos(np.pi * x)),
        Field(grid64, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    base = coupled_params()
    return [init] * 4, [base.with_params(eps=e) for e in (0.0, 3e-2, 1e-2, 1e-3)]


def test_a_failed_row_leaves_the_other_rows_bit_identical(grid64, bundle64, poly, monkeypatch):
    inits, params = _eps_rows(grid64)
    original = nlch.model._step_arrays
    calls = []

    def failing(*args):
        # args[5] holds the rows' _Lockstep; the eps = 1e-2 row fails its step
        # 21, in the batch and in its one-row retry
        rows = args[5].params
        calls.append(len(rows))
        if calls.count(4) == 21 and any(p.eps == 1e-2 for p in rows):
            raise StepError("injected failure", phase="Newton")
        return original(*args)

    monkeypatch.setattr(nlch.model, "_step_arrays", failing)
    results = run_rows(inits, params, bundle64, poly)
    monkeypatch.setattr(nlch.model, "_step_arrays", original)
    # one call per batch step, and one per row at step 21, when each row
    # steps alone from the same state
    assert calls == [4] * 21 + [1] * 4 + [3] * 29
    err = results[2]
    assert isinstance(err, StepError) and str(err) == "injected failure"
    assert err.step == 21 and err.t == pytest.approx(0.021)
    assert isinstance(err.partial, Trajectory) and len(err.partial.times) == 21
    _assert_same_run(err.partial, _truncated(run(inits[2], params[2], bundle64, poly), 21))
    for i in (0, 1, 3):
        assert isinstance(results[i], Trajectory)
        _assert_same_run(results[i], run(inits[i], params[i], bundle64, poly))


def _truncated(traj, count):
    return nlch.model.Trajectory(params=traj.params, times=traj.times[:count],
                                 phis=traj.phis[:count], mus=traj.mus[:count],
                                 sigmas=traj.sigmas[:count], records=traj.records[:count])


def test_a_row_whose_residual_overflows_fails_alone(grid64, bundle64, poly):
    # P sigma overflows only the middle row's source term; its step fails
    # in the Newton phase while the others step as runs of their own
    inits, params = _eps_rows(grid64)
    params = [p.with_params(P=4.0, T=0.01) for p in params[1:]]
    inits = inits[1:]
    inits[1] = InitialData(inits[1].phi0, inits[1].mu0, Field.constant(grid64, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        results = run_rows(inits, params, bundle64, poly, validate=False)
    assert isinstance(results[1], StepError) and results[1].phase == "Newton"
    assert results[1].step == 1 and "not finite" in str(results[1])
    for i in (0, 2):
        _assert_same_run(results[i], run(inits[i], params[i], bundle64, poly, validate=False))


def test_rows_stopping_at_different_iterations_equal_their_own_runs(grid64, bundle64, logpot):
    # on the barrier well, with phi near separation, the three tau rows'
    # Newton loops stop at different iterations on about half the steps,
    # while every row keeps its place in the batch
    x = grid64.axis_coordinates(0)
    init = InitialData(
        Field(grid64, 0.8 * np.cos(np.pi * x)),
        Field(grid64, 0.1 * np.cos(np.pi * x)),
        Field(grid64, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    inits, params = [init] * 3, [coupled_params(tau=tau) for tau in (0.1, 1e-2, 1e-3)]
    results = run_rows(inits, params, bundle64, logpot, validate=False)
    for init, p, got in zip(inits, params, results):
        _assert_same_run(got, run(init, p, bundle64, logpot, validate=False))
    iters = [[rec.newton_iters for rec in traj.records[1:]] for traj in results]
    assert any(len(set(step)) > 1 for step in zip(*iters))


def test_lockstep_rows_must_share_all_but_eps_and_tau(grid64, bundle64, poly):
    inits, params = _eps_rows(grid64)
    with pytest.raises(ConfigError, match="share"):
        run_rows(inits[:2], [params[0], params[1].with_params(dt=5e-4)], bundle64, poly)


def test_2d_lockstep_rows_equal_their_own_runs():
    # three tau rows and one eps row of rate-study.cfg on a 16x16 grid: the
    # batched CG of each solve freezes a row once it has converged (the rows
    # stop at different iterations in most of the batch's CG calls), so each
    # row's snapshots and Newton counts are bitwise those of its run alone
    problem = build_problem(load_config(str(CONFIGS / "rate-study.cfg"),
                                        ["grid.dim=2", "grid.cells=16", "model.T=0.01"]))
    base = problem.params
    params = [base.with_params(tau=tau) for tau in (0.1, 1e-2, 1e-3)]
    params.append(base.with_params(eps=1e-2))
    results = run_rows([problem.init] * 4, params, problem.bundle, problem.spec)
    for p, got in zip(params, results):
        assert isinstance(got, Trajectory) and len(got.records) == 11
        _assert_same_run(got, run(problem.init, p, problem.bundle, problem.spec))
