import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nlch.galerkin
from nlch.cli import main
from nlch.errors import (
    ComparisonError,
    ConfigError,
    DimensionError,
    InapplicabilityError,
    StiffnessError,
)
from nlch.galerkin import (
    build_operator,
    compare,
    integrate,
    jacobian,
    make_basis,
    ode_rhs,
    oracle_gap,
    project,
    project_initial_data,
    reconstruct,
    split_coeffs,
    write_coefficients_csv,
)
from nlch.grid import Field, GridSpec, inner_h, norm_h
from nlch.kernel import KernelSpec, build
from nlch.model import H_FAMILIES, InitialData, ModelParams, run
from nlch.potential import (
    double_obstacle_potential,
    f_prime_regularized,
    logarithmic_potential,
    polynomial_potential,
)


@pytest.fixture(scope="module")
def setup128():
    g = GridSpec(1, (1.0,), (128,))
    b = build(KernelSpec("gaussian", width=3.0, normalization=2.05), g)
    p = polynomial_potential(0.5)
    return g, b, p


def test_basis_orthonormality(setup128):
    g, _, _ = setup128
    basis = make_basis(g, 24)
    assert basis.eigenvalues[0] == 0.0
    assert basis.eigenvalues[2] == pytest.approx((2 * np.pi) ** 2)
    assert np.max(np.abs(basis.functions[:, 0] - 1.0)) <= 1e-14  # |Omega| = 1
    with pytest.raises(ConfigError):
        make_basis(g, 200)
    with pytest.raises(ConfigError):
        make_basis(GridSpec(2, (1.0, 1.0), (16, 16)), 4)


def test_project_examples(setup128):
    g, _, _ = setup128
    basis = make_basis(g, 12)
    e2 = Field(g, basis.functions[:, 2])
    c = project(e2, basis)
    expected = np.zeros(12)
    expected[2] = 1.0
    assert np.max(np.abs(c - expected)) <= 1e-10

    const = Field.constant(g, 3.0)
    c = project(const, basis)
    assert c[0] == pytest.approx(3.0 * np.sqrt(g.measure), rel=1e-12)
    assert np.max(np.abs(c[1:])) <= 1e-12

    with pytest.raises(DimensionError):
        project(Field.constant(GridSpec(1, (1.0,), (64,)), 1.0), basis)


def test_parseval_monotone(setup128):
    g, _, _ = setup128
    x = g.axis_coordinates(0)
    f = Field(g, np.exp(-10 * (x - 0.4) ** 2))
    targets = []
    for n in (4, 8, 16, 32):
        c = project(f, make_basis(g, n))
        targets.append(np.sum(c * c))
    assert all(b >= a - 1e-14 for a, b in zip(targets, targets[1:]))
    assert targets[-1] <= norm_h(f) ** 2 + 1e-12
    assert targets[-1] == pytest.approx(norm_h(f) ** 2, rel=1e-5)


def test_ode_rhs_zero_coupling_hand_solution(setup128):
    # with P = A = B = C = chi = eta = 0, alpha = gamma = 0 and any beta:
    # the mu-relation gives alpha' = beta / tau, the mass equation gives
    # beta' = (-l beta - alpha') / eps, and gamma' = 0
    g, b, p = setup128
    n = 6
    basis = make_basis(g, n)
    params = ModelParams(eps=0.2, tau=0.4, dt=1e-3, lam=1e-3)
    op = build_operator(basis, b, p, params)
    rng = np.random.default_rng(0)
    beta = rng.standard_normal(n)
    y = np.concatenate([np.zeros(n), beta, np.zeros(n)])
    dot = ode_rhs(0.0, y, op)
    a_dot, b_dot, g_dot = split_coeffs(dot, n)
    assert np.max(np.abs(a_dot - beta / params.tau)) <= 1e-12
    expected_bdot = (-basis.eigenvalues * beta - beta / params.tau) / params.eps
    assert np.max(np.abs(b_dot - expected_bdot)) <= 1e-10
    assert np.max(np.abs(g_dot)) <= 1e-12


def test_requires_double_regularization(setup128):
    g, b, p = setup128
    basis = make_basis(g, 8)
    with pytest.raises(InapplicabilityError):
        build_operator(basis, b, p, ModelParams(eps=0.0, tau=0.1, dt=1e-3, lam=1e-3))
    with pytest.raises(InapplicabilityError):
        build_operator(basis, b, p, ModelParams(eps=0.1, tau=0.0, dt=1e-3, lam=1e-3))


def test_n1_matches_standalone_scalar_ode(setup128):
    # constants only: a phi - J*phi vanishes, so the projected system is
    # three scalar ODEs integrated here independently
    g, b, p = setup128
    basis = make_basis(g, 1)
    params = ModelParams(eps=0.2, tau=0.3, P=0.5, A=0.25, B=0.5, C=0.4, chi=0.3,
                         eta=0.0, sigma_s=0.8, dt=1e-3, lam=1e-3)
    op = build_operator(basis, b, p, params)

    a00 = op.mat_a[0, 0]
    conv00 = op.mat_conv[0, 0]
    assert a00 == pytest.approx(conv00, rel=1e-12)

    def scalar_rhs(t, y):
        # phi = alpha (e0 = 1), sigma = gamma
        alpha, beta, gamma = y
        fp = float(f_prime_regularized(p, params.lam_eff, alpha))
        alpha_dot = (beta - fp + params.chi * gamma) / params.tau
        src = (params.P * gamma - params.A) * float(params.h(alpha))
        beta_dot = (src - alpha_dot) / params.eps
        gamma_dot = (-params.B * (gamma - 0.8)
                     - params.C * gamma * float(params.h(alpha)))
        return [alpha_dot, beta_dot, gamma_dot]

    y0 = np.array([0.2, 0.1, 0.5])
    T = 0.4
    sol = solve_ivp(scalar_rhs, (0, T), y0, rtol=1e-10, atol=1e-12, dense_output=True)
    ts, coeffs = integrate(y0, op, T, t_eval=np.linspace(0, T, 9), rtol=1e-10, atol=1e-12)
    for t, row in zip(ts, coeffs):
        assert np.max(np.abs(row - sol.sol(t))) <= 1e-7


def test_integrate_zero_stays_zero(setup128):
    g, b, p = setup128
    basis = make_basis(g, 8)
    params = ModelParams(eps=0.1, tau=0.1, dt=1e-3, lam=1e-3)  # all couplings zero
    op = build_operator(basis, b, p, params)
    ts, coeffs = integrate(np.zeros(24), op, 0.3, t_eval=np.linspace(0, 0.3, 5))
    assert np.max(np.abs(coeffs)) == 0.0


def test_integrate_failure_raises_stiffness_error(setup128, monkeypatch):
    # y' = y^2 from y = 1 blows up at t = 1: the step size underflows
    g, b, p = setup128
    op = build_operator(make_basis(g, 1), b, p, ModelParams(eps=0.1, tau=0.1, dt=1e-3, lam=1e-3))
    monkeypatch.setattr(nlch.galerkin, "ode_rhs", lambda t, y, op: y * y)
    with pytest.raises(StiffnessError, match="BDF integrator"):
        integrate(np.ones(3), op, 2.0, t_eval=[2.0])


def test_integrate_non_finite_jacobian_raises_stiffness_error(setup128, monkeypatch):
    g, b, p = setup128
    op = build_operator(make_basis(g, 4), b, p, ModelParams(eps=0.1, tau=0.1, dt=1e-3, lam=1e-3))
    monkeypatch.setattr(nlch.galerkin, "jacobian",
                        lambda t, y, op: np.full((y.size, y.size), np.nan))
    with pytest.raises(StiffnessError, match="BDF integrator.*not finite"):
        integrate(np.zeros(12), op, 0.1, t_eval=[0.1])


ORACLE_SETUPS = [
    pytest.param(["--config", str(Path(__file__).resolve().parent.parent / "configs"
                                  / "rate-study.cfg"), "--set", "oracle.t=0.01"], id="rate-study"),
    pytest.param(["--set", "grid.cells=128", "--set", "kernel.width=3.0",
                  "--set", "kernel.normalization=2.05", "--set", "oracle.modes=12",
                  "--set", "oracle.t=0.1", "--set", "oracle.dt=5e-4"], id="smoke-128"),
]


@pytest.mark.parametrize("argv", ORACLE_SETUPS)
def test_integrate_is_scipy_bdf_bit_for_bit(tmp_path, monkeypatch, argv):
    # the in-package BDF repeats the arithmetic of scipy's, so the
    # oracle-compare problem integrates to the same bits under both
    problems = []
    original = nlch.galerkin.integrate

    def recorded(y0, op, T, t_eval):
        problems.append((y0, op, T, t_eval))
        return original(y0, op, T, t_eval)

    monkeypatch.setattr(nlch.galerkin, "integrate", recorded)
    assert main(["oracle-compare", *argv, "--out", str(tmp_path)]) == 0
    (y0, op, T, t_eval), = problems
    ts, coeffs = original(y0, op, T, t_eval)
    ref = solve_ivp(ode_rhs, (0.0, T), y0, args=(op,), method="BDF", jac=jacobian,
                    rtol=1e-8, atol=1e-10, t_eval=t_eval)
    assert ref.success
    assert np.array_equal(ts, ref.t)
    assert np.array_equal(coeffs, ref.y.T)


def test_compare_leaves_no_reference_cycles(setup128):
    # every array of an oracle run is freed by reference counting, so
    # repeated comparisons leave no garbage for the cyclic collector
    g, b, p = setup128
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=1e-3, T=0.01, lam=1e-3)
    traj = run(_cosine_init(g), params, b, p, record_diagnostics=False)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            compare(traj, b, p, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_integrate_tolerance_consistency(setup128):
    g, b, p = setup128
    basis = make_basis(g, 8)
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=1e-3, lam=1e-3)
    op = build_operator(basis, b, p, params)
    x = g.axis_coordinates(0)
    init = InitialData(
        Field(g, 0.2 * np.cos(np.pi * x)),
        Field.constant(g, 0.0),
        Field(g, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    y0 = project_initial_data(init.phi0, init.mu0, init.sigma0, basis)
    _, loose = integrate(y0, op, 0.2, t_eval=[0.2], rtol=1e-6, atol=1e-8)
    _, tight = integrate(y0, op, 0.2, t_eval=[0.2], rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(loose[-1] - tight[-1])) <= 1e-5


def test_galerkin_mass_source_balance(setup128):
    # the 0-mode of the mass equation: d/dt(eps beta_0 + alpha_0) equals
    # the projected source's 0-mode (the Laplacian drops out)
    g, b, p = setup128
    n = 8
    basis = make_basis(g, n)
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=1e-3, lam=1e-3)
    op = build_operator(basis, b, p, params)
    x = g.axis_coordinates(0)
    init = InitialData(
        Field(g, 0.2 * np.cos(np.pi * x)),
        Field.constant(g, 0.0),
        Field(g, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    y0 = project_initial_data(init.phi0, init.mu0, init.sigma0, basis)
    T = 0.2
    ts, coeffs = integrate(y0, op, T, t_eval=np.linspace(0, T, 81))

    mass = params.eps * coeffs[:, n] + coeffs[:, 0]
    src = []
    for row in coeffs:
        alpha, beta, gamma = split_coeffs(row, n)
        phi = basis.functions @ alpha
        sig = basis.functions @ gamma
        s = basis.functions.T @ ((params.P * sig - params.A) * params.h(phi)) * basis.weight
        src.append(s[0])
    integral = np.concatenate([[0.0], np.cumsum((np.asarray(src[1:]) + np.asarray(src[:-1]))
                                                / 2 * np.diff(ts))])
    resid = np.max(np.abs(mass - mass[0] - integral))
    assert resid <= 1e-5  # trapezoid-in-time + integrator tolerance


def _cosine_init(g):
    x = g.axis_coordinates(0)
    return InitialData(
        Field(g, 0.2 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)),
        Field.constant(g, 0.0),
        Field(g, 0.6 + 0.2 * np.cos(np.pi * x)),
    )


def test_spectral_convergence(setup128):
    g, b, p = setup128
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=1e-3, lam=1e-3)
    init = _cosine_init(g)
    T = 0.2
    ref_basis = make_basis(g, 48)
    op_ref = build_operator(ref_basis, b, p, params)
    y0 = project_initial_data(init.phi0, init.mu0, init.sigma0, ref_basis)
    _, ref = integrate(y0, op_ref, T, t_eval=[T])
    ref_phi = reconstruct(ref[-1][:48], ref_basis)

    errs = []
    for n in (8, 16, 32):
        basis = make_basis(g, n)
        op = build_operator(basis, b, p, params)
        y0n = project_initial_data(init.phi0, init.mu0, init.sigma0, basis)
        _, out = integrate(y0n, op, T, t_eval=[T])
        phi_n = reconstruct(out[-1][:n], basis)
        errs.append(norm_h(Field(g, phi_n.values - ref_phi.values)))
    assert errs[0] > errs[1] > errs[2]


def test_bdf_matches_tight_explicit_reference(setup128):
    # the stiff integrator at its default tolerances against explicit
    # RK45 driven to rtol 1e-11, where stability rather than accuracy
    # sets RK45's step
    g, b, p = setup128
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, dt=1e-3, lam=1e-3)
    init = _cosine_init(g)
    basis = make_basis(g, 16)
    op = build_operator(basis, b, p, params)
    y0 = project_initial_data(init.phi0, init.mu0, init.sigma0, basis)
    T = 0.1
    t_eval = np.linspace(0.0, T, 5)
    ref = solve_ivp(ode_rhs, (0.0, T), y0, args=(op,), method="RK45",
                    rtol=1e-11, atol=1e-13, t_eval=t_eval)
    assert ref.success
    ts, coeffs = integrate(y0, op, T, t_eval=t_eval)
    assert np.array_equal(ts, t_eval)
    assert np.max(np.abs(coeffs - ref.y.T)) <= 1e-7


def test_oracle_right_hand_side_budget(tmp_path, monkeypatch):
    # the rate-study oracle setting (256 cells, 32 modes) over T = 0.01:
    # explicit RK45 needs about 2000 right-hand sides, held to small
    # steps by the lambda_n / eps stiffness; BDF needs under 200, and its
    # closed-form Jacobians call no right-hand side
    calls = []
    original = nlch.galerkin.ode_rhs

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(nlch.galerkin, "ode_rhs", counted)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "rate-study.cfg"
    rc = main(["oracle-compare", "--config", str(cfg), "--set", "oracle.t=0.01",
               "--out", str(tmp_path)])
    assert rc == 0
    assert 0 < len(calls) < 300


def test_oracle_gap_examples(setup128):
    g, _, _ = setup128
    basis = make_basis(g, 6)
    ts = np.linspace(0.0, 0.3, 4)
    coeffs = np.random.default_rng(3).standard_normal((4, 18))
    exact = [reconstruct(row[:6], basis) for row in coeffs]
    assert oracle_gap(basis, ts, coeffs, exact) <= 1e-15
    # sampled fields twice the oracle's: the gap is ||phi|| / ||2 phi||
    doubled = [Field(g, 2.0 * f.values) for f in exact]
    assert oracle_gap(basis, ts, coeffs, doubled) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ComparisonError):
        oracle_gap(basis, ts[:3], coeffs, exact)
    with pytest.raises(DimensionError):
        oracle_gap(basis, ts, coeffs, [Field.constant(GridSpec(1, (1.0,), (64,)), 0.0)] * 4)


def test_coefficient_csv(tmp_path, setup128):
    g, b, p = setup128
    write_coefficients_csv(tmp_path / "c.csv", [0.0, 0.1], np.zeros((2, 9)), 3)
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,alpha_0,alpha_1,alpha_2,beta_0,beta_1,beta_2,gamma_0,gamma_1,gamma_2"
    assert len(lines) == 3


@pytest.mark.parametrize("h_name", sorted(H_FAMILIES))
@pytest.mark.parametrize("spec, amplitude", [
    (polynomial_potential(0.5), 1.3),
    (logarithmic_potential(0.3, 0.6), 1.3),
    (double_obstacle_potential(0.3), 1.3),
    (logarithmic_potential(0.3, 0.6), 0.5),
], ids=["polynomial", "logarithmic-outside", "double-obstacle", "logarithmic-inside"])
def test_jacobian_matches_central_differences(setup128, spec, amplitude, h_name):
    # every block is exercised: chi, eta > 0 and phi on both sides of the
    # kinks |r| = 1 of the default profile and of the obstacle's Yosida
    # derivative, but off them by more than the difference step reaches
    g, b, _ = setup128
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, eta=0.3, dt=1e-3, lam=1e-3, h=H_FAMILIES[h_name].h)
    basis = make_basis(g, 8)
    op = build_operator(basis, b, spec, params)
    x = g.axis_coordinates(0)
    phi0 = Field(g, amplitude * np.cos(np.pi * x) + 0.1 * np.cos(3 * np.pi * x))
    mu0 = Field(g, 0.3 * np.cos(2 * np.pi * x))
    sigma0 = Field(g, 0.6 + 0.2 * np.cos(np.pi * x))
    y0 = project_initial_data(phi0, mu0, sigma0, basis)
    phi = basis.functions @ y0[:8]
    assert np.min(np.abs(np.abs(phi) - 1.0)) > 1e-3
    jac = jacobian(0.0, y0, op)
    assert jac.shape == (24, 24)
    f = lambda y: ode_rhs(0.0, y, op)  # noqa: E731
    for j in range(y0.size):
        e = np.zeros_like(y0)
        e[j] = 1e-5
        col = (f(y0 + e) - f(y0 - e)) / 2e-5
        assert np.max(np.abs(jac[:, j] - col)) <= 1e-5 * (1.0 + np.max(np.abs(col)))


def test_integrate_passes_ode_rhs_single_states(setup128, monkeypatch):
    # the right-hand side is evaluated on one state of 3n coefficients at a time
    g, b, p = setup128
    params = ModelParams(eps=0.1, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                         sigma_s=0.8, eta=0.3, dt=1e-3, lam=1e-3)
    basis = make_basis(g, 8)
    op = build_operator(basis, b, p, params)
    init = _cosine_init(g)
    y0 = project_initial_data(init.phi0, init.mu0, init.sigma0, basis)
    shapes = []
    original = nlch.galerkin.ode_rhs

    def recorded(t, y, op):
        shapes.append(np.shape(y))
        return original(t, y, op)

    monkeypatch.setattr(nlch.galerkin, "ode_rhs", recorded)
    integrate(y0, op, 0.05, t_eval=[0.05])
    assert shapes and set(shapes) == {(24,)}


def test_oracle_compare_peak_traced_memory(tmp_path):
    # one rate-study oracle-compare allocates well under the 1.9 MB of a
    # (3n, 3n+1) block Jacobian; the first run pays the imports
    cfg = Path(__file__).resolve().parent.parent / "configs" / "rate-study.cfg"
    argv = ["oracle-compare", "--config", str(cfg), "--set", "oracle.t=0.01"]
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "traced")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_coefficient_csv_matches_the_row_by_row_writer(tmp_path):
    # the one-format writer against the f-string writer it replaced,
    # with a signed zero and extreme exponents
    times = [0.0, 0.1, 1.0 / 3.0]
    coeffs = np.array([[-0.0, 1e-300, 1e300, -2.5, np.pi, 1.0],
                       [0.0, -1e-300, -1e300, 5e-324, 1e308, -np.e],
                       [1.0 / 7.0, 2.0 / 3.0, 0.1, 0.2, 0.3, -0.0]])
    write_coefficients_csv(tmp_path / "c.csv", times, coeffs, 2)
    expected = "t,alpha_0,alpha_1,beta_0,beta_1,gamma_0,gamma_1\n" + "".join(
        f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n"
        for t, row in zip(times, coeffs))
    assert (tmp_path / "c.csv").read_bytes() == expected.encode()
