"""Self-contained property suite behind the `verify` CLI subcommand.

Each check exercises one module invariant on a small deterministic
problem and returns (passed, detail); ALL_CHECKS names them. The suite
ships with the package so a production install can be verified without
the test tree, and the pytest suite runs the same checks, so each
property has one copy.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics, galerkin, grid, kernel, model, potential


def _small_setup(cells=64, width=3.0, normalization=2.05):
    g = grid.GridSpec(1, (1.0,), (cells,))
    b = kernel.build(kernel.KernelSpec("gaussian", width=width, normalization=normalization), g)
    p = potential.polynomial_potential(0.5)
    return g, b, p


def check_grid_laplacian_symmetry():
    g, _, _ = _small_setup()
    rng = np.random.default_rng(1)
    f = grid.Field(g, rng.standard_normal(g.size))
    h = grid.Field(g, rng.standard_normal(g.size))
    lf, lh = grid.laplacian_neumann(f), grid.laplacian_neumann(h)
    sym = abs(grid.inner_h(lf, h) - grid.inner_h(f, lh))
    nsd = grid.inner_h(lf, f)
    ok = sym <= 1e-10 and nsd <= 0.0
    return ok, f"symmetry defect {sym:.2e}, quadratic form {nsd:.3e}"


def check_grid_norm_chain():
    # ||f||_* <= K0 ||f||_H with the inclusion constant K0 = 1
    g, _, _ = _small_setup()
    rng = np.random.default_rng(2)
    ok = True
    worst = 0.0
    for _ in range(20):
        f = grid.Field(g, rng.standard_normal(g.size))
        vs, h, v = grid.norm_vstar(f), grid.norm_h(f), grid.norm_v(f)
        ok = ok and vs <= h * (1 + 1e-8) and h <= v * (1 + 1e-12)
        worst = max(worst, vs / h)
    return ok, f"K0 = 1, worst ||f||_*/||f||_H = {worst:.6f}"


def check_grid_interpolation_inequality():
    g, _, _ = _small_setup()
    rng = np.random.default_rng(3)
    ok = True
    margin = np.inf
    for _ in range(20):
        f = grid.Field(g, rng.standard_normal(g.size))
        lhs = grid.norm_h(f) ** 2
        rhs = grid.norm_v(f) * grid.norm_vstar(f)
        ok = ok and lhs <= rhs * (1 + 1e-8)
        margin = min(margin, rhs / lhs)
    return ok, f"min (||f||_V ||f||_*) / ||f||_H^2 = {margin:.6f}"


def check_kernel_fast_equals_direct():
    worst = 0.0
    for dim, cells in ((1, (16,)), (1, (32,)), (1, (64,)), (2, (16, 16)), (2, (32, 32))):
        g = grid.GridSpec(dim, (1.0,) * dim, cells)
        b = kernel.build(kernel.KernelSpec("gaussian", width=0.3, normalization=1.7), g)
        rng = np.random.default_rng(4)
        v = grid.Field(g, rng.standard_normal(g.size))
        d = np.max(np.abs(kernel.convolve(b, v).values - kernel.convolve_direct(b, v).values))
        worst = max(worst, float(d))
    return worst <= 1e-12, f"max |fast - direct| = {worst:.2e}"


def check_kernel_norm_bounds():
    g = grid.GridSpec(1, (1.0,), (128,))
    b = kernel.build(kernel.KernelSpec("gaussian", width=0.2, normalization=2.0), g)
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        v = grid.Field(g, rng.standard_normal(g.size))
        jv = kernel.convolve(b, v)
        ok = ok and grid.norm_h(jv) <= b.a_sup * grid.norm_h(v) * (1 + 1e-10)
        ok = ok and grid.norm_h_grad(jv) <= 1.05 * b.b_sup * grid.norm_h(v)
    return ok, f"a^* = {b.a_sup:.4f}, b^* = {b.b_sup:.4f} bounds hold on random fields"


# every potential family, each with a sampling range past its barriers if it has any
FAMILIES = (
    (potential.polynomial_potential(0.5), -10.0, 10.0),
    (potential.polynomial_potential(0.0), -10.0, 10.0),
    (potential.logarithmic_potential(0.3, 0.6), -1.5, 1.5),
    (potential.double_obstacle_potential(0.25), -5.0, 5.0),
)


def check_potential_lipschitz():
    rng = np.random.default_rng(6)
    ok = True
    for spec, lo, hi in FAMILIES:
        for lam in (1.0, 0.1, 0.01):
            r = rng.uniform(lo, hi, 1000)
            s = rng.uniform(lo, hi, 1000)
            yr = potential.yosida(spec, lam, r)
            ys = potential.yosida(spec, lam, s)
            rr = potential.resolvent(spec, lam, r)
            rs = potential.resolvent(spec, lam, s)
            ok = ok and np.all(np.abs(yr - ys) <= np.abs(r - s) / lam * (1 + 1e-10) + 1e-13)
            ok = ok and np.all(np.abs(rr - rs) <= np.abs(r - s) * (1 + 1e-10) + 1e-13)
            order = np.argsort(r)
            ok = ok and np.all(np.diff(yr[order]) >= -1e-11)
    return ok, f"resolvent 1-Lipschitz, Yosida 1/lam-Lipschitz and monotone ({len(FAMILIES)} families)"


def check_potential_moreau():
    ok = True
    for spec, lo, hi in FAMILIES:
        for lam in (0.5, 0.1, 0.05, 0.01):
            for r in np.linspace(max(lo, -3.0), min(hi, 3.0), 7):
                m = potential.moreau(spec, lam, float(r))
                env = float(np.asarray(potential.moreau_envelope(spec, lam, float(r))))
                f1 = float(np.asarray(spec.f1(float(r))))
                ok = ok and m <= f1 + 1e-9 and m >= -1e-12 and abs(m - env) <= 1e-8
    return ok, "0 <= moreau <= F1 and quadrature agrees with the closed envelope"


def check_potential_graph_convergence():
    ok = True
    details = []
    for spec, r in ((potential.polynomial_potential(0.5), 1.5),
                    (potential.logarithmic_potential(0.3, 0.6), 0.7)):
        res = [abs(potential.resolvent(spec, lam, r) - r) for lam in (1e-1, 1e-2, 1e-3)]
        y = [abs(potential.yosida(spec, lam, r) - float(np.asarray(spec.f1_prime(r))))
             for lam in (1e-1, 1e-2, 1e-3)]
        ok = ok and res[0] > res[1] > res[2] and y[0] > y[1] > y[2]
        details.append(f"{spec.family}: resolvent gap {res[0]:.2e} -> {res[2]:.2e}, "
                       f"yosida gap {y[0]:.2e} -> {y[2]:.2e}")
    return ok, "; ".join(details)


def check_model_mass_balance():
    g, b, p = _small_setup()
    x = g.axis_coordinates(0)
    params = model.ModelParams(eps=0.05, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                               sigma_s=0.8, dt=1e-3, T=0.05, lam=1e-3)
    init = model.InitialData(
        grid.Field(g, 0.2 * np.cos(np.pi * x)),
        grid.Field.constant(g, 0.0),
        grid.Field(g, 0.6 + 0.2 * np.cos(np.pi * x)),
    )
    passed, worst = diagnostics.mass_balance(model.run(init, params, b, p).records)
    return passed, f"max per-step mass defect {worst:.2e}"


def check_model_lyapunov():
    g, b, p = _small_setup()
    x = g.axis_coordinates(0)
    params = model.ModelParams(eps=0.05, tau=0.1, dt=1e-3, T=0.2, lam=1e-3)
    init = model.InitialData(
        grid.Field(g, 0.3 * np.cos(np.pi * x)),
        grid.Field.constant(g, 0.0),
        grid.Field(g, 0.5 + 0.3 * np.cos(2 * np.pi * x)),
    )
    passed, worst = diagnostics.lyapunov_decay(model.run(init, params, b, p).records)
    return passed, f"max Lyapunov increment / |L(0)| {worst:.2e} over 200 steps"


def check_model_max_principle():
    g, b, p = _small_setup()
    rng = np.random.default_rng(7)
    params = model.ModelParams(eps=0.05, tau=0.1, P=0.5, A=0.25, B=0.5, C=0.5, chi=0.2,
                               eta=0.0, sigma_s=0.8, dt=1e-3, T=0.1, lam=1e-3)
    init = model.InitialData(
        grid.Field(g, 0.3 * np.cos(np.pi * g.axis_coordinates(0))),
        grid.Field.constant(g, 0.0),
        grid.Field(g, rng.uniform(0.0, 1.0, g.size)),
    )
    passed, (lo, hi) = diagnostics.max_principle(model.run(init, params, b, p).records)
    return passed, f"sigma range [{lo:.3e}, {hi:.6f}]"


def check_model_smoothing_rate():
    g, _, _ = _small_setup(cells=256)
    x = g.axis_coordinates(0)
    target = grid.Field(g, np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x))
    ss = [1e-1, 1e-2, 1e-3, 1e-4]
    errs = [grid.norm_h(grid.Field(g, model.make_smoothed_ic(target, s).values - target.values))
            for s in ss]
    bounds = [e / np.sqrt(s) for e, s in zip(errs, ss)]
    ok = all(b <= bounds[0] * 1.01 for b in bounds) and errs[-1] < errs[0]
    return ok, f"||v_s - v||/s^0.5 stays bounded: {[f'{b:.3f}' for b in bounds]}"


def check_galerkin_orthonormality():
    g = grid.GridSpec(1, (1.0,), (128,))
    basis = galerkin.make_basis(g, 24)
    gram = basis.functions.T @ basis.functions * basis.weight
    err = float(np.max(np.abs(gram - np.eye(24))))
    return err <= 1e-10, f"Gram defect {err:.2e}"


def check_galerkin_conv_symmetry():
    g, b, p = _small_setup(cells=128)
    basis = galerkin.make_basis(g, 16)
    params = model.ModelParams(eps=0.1, tau=0.1, dt=1e-3, T=0.1, lam=1e-3)
    op = galerkin.build_operator(basis, b, p, params)
    err = float(np.max(np.abs(op.mat_conv - op.mat_conv.T)))
    err_a = float(np.max(np.abs(op.mat_a - op.mat_a.T)))
    return max(err, err_a) <= 1e-10, f"asymmetry: convolution {err:.2e}, a-matrix {err_a:.2e}"


def check_distance_triangle():
    g, b, p = _small_setup()
    x = g.axis_coordinates(0)
    params = model.ModelParams(eps=0.05, tau=0.1, P=0.3, B=0.4, sigma_s=0.6, dt=1e-3,
                               T=0.02, lam=1e-3)
    trajs = []
    for amp in (0.1, 0.2, 0.3):
        init = model.InitialData(
            grid.Field(g, amp * np.cos(np.pi * x)),
            grid.Field.constant(g, 0.0),
            grid.Field(g, 0.5 + amp * np.cos(np.pi * x)),
        )
        trajs.append(model.run(init, params, b, p, record_diagnostics=False))
    d01 = diagnostics.distance(trajs[0], trajs[1])
    d12 = diagnostics.distance(trajs[1], trajs[2])
    d02 = diagnostics.distance(trajs[0], trajs[2])
    ok = d02.total() <= d01.total() + d12.total() + 1e-10
    for name in ("linf_h_phi", "l2_v_mu", "linf_vstar_combo", "l2_h_phi"):
        ok = ok and getattr(d02, name) <= getattr(d01, name) + getattr(d12, name) + 1e-12
    return ok, (f"d02 = {d02.total():.4e} <= d01 + d12 = {d01.total() + d12.total():.4e}, "
                "and per component")


ALL_CHECKS = [
    ("grid.laplacian_symmetric_nsd", check_grid_laplacian_symmetry),
    ("grid.norm_chain", check_grid_norm_chain),
    ("grid.interpolation_inequality", check_grid_interpolation_inequality),
    ("kernel.fast_equals_direct", check_kernel_fast_equals_direct),
    ("kernel.operator_norm_bounds", check_kernel_norm_bounds),
    ("potential.resolvent_yosida_lipschitz", check_potential_lipschitz),
    ("potential.moreau_envelope", check_potential_moreau),
    ("potential.graph_convergence", check_potential_graph_convergence),
    ("model.mass_balance", check_model_mass_balance),
    ("model.lyapunov_decay", check_model_lyapunov),
    ("model.max_principle", check_model_max_principle),
    ("model.smoothing_rate", check_model_smoothing_rate),
    ("galerkin.orthonormality", check_galerkin_orthonormality),
    ("galerkin.convolution_symmetry", check_galerkin_conv_symmetry),
    ("diagnostics.distance_triangle", check_distance_triangle),
]


def run_all():
    """Run every property check; returns True when all pass."""
    all_ok = True
    width = max(len(name) for name, _ in ALL_CHECKS)
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    print("all properties hold" if all_ok else "PROPERTY FAILURES")
    return all_ok
