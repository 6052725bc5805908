import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import nlch.grid
from nlch.errors import ConfigError, DimensionError, SolverError
from nlch.grid import (
    BACKWARD_TOL,
    Field,
    GridSpec,
    estimate_poincare_constant,
    grad_sq_integral,
    inner_h,
    laplacian_neumann,
    mean,
    norm_h,
    norm_h_grad,
    norm_v,
    norm_vstar,
    read_field,
    solve_shifted_diffusion,
    write_field,
    write_field_csv,
    write_table,
    _checked_neumann_solve,
    _lap_array,
    _spectral_solve,
)


def test_gridspec_invariants():
    g = GridSpec(1, (2.0,), (128,))
    assert g.spacing == (2.0 / 128,)
    assert g.cell_volume * g.size == pytest.approx(g.measure, rel=1e-15)
    g2 = GridSpec(2, (1.0, 0.5), (32, 16))
    assert g2.cell_volume * g2.size == pytest.approx(g2.measure, rel=1e-15)
    with pytest.raises(ConfigError):
        GridSpec(3, (1.0,) * 3, (8,) * 3)
    with pytest.raises(ConfigError):
        GridSpec(1, (1.0,), (3,))
    with pytest.raises(ConfigError):
        GridSpec(1, (-1.0,), (8,))


def test_equal_grids_share_their_cached_spectrum():
    # grids are equal and hash alike by (dim, extent, cells), whatever
    # number types built them, so one spectrum serves both
    g1, g2 = GridSpec(2, (1.0, 0.75), (12, 10)), GridSpec(2, [1, 0.75], [12.0, 10])
    assert g1 == g2 and hash(g1) == hash(g2) and g1 is not g2
    assert g1 != GridSpec(2, (1.0, 0.75), (10, 12)) and g1 != GridSpec(1, (1.0,), (12,))
    assert len({g1, g2}) == 1
    before = nlch.grid._neumann_spectrum.cache_info()
    lam = nlch.grid._neumann_spectrum(g1)
    assert nlch.grid._neumann_spectrum(g2) is lam
    after = nlch.grid._neumann_spectrum.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    with pytest.raises(AttributeError):
        g1.cells = (4, 4)


def test_field_validation(grid64):
    with pytest.raises(DimensionError):
        Field(grid64, np.zeros(5))
    with pytest.raises(ValueError):
        Field(grid64, np.full(grid64.size, np.nan))
    f = Field.constant(grid64, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # read-only buffer
    with pytest.raises(AttributeError):
        f.grid = grid64


def test_laplacian_constant_is_zero(grid256):
    f = Field.constant(grid256, 4.2)
    assert np.max(np.abs(laplacian_neumann(f).values)) == 0.0


def test_laplacian_eigenfunction_second_order():
    # cos(pi x / L) is a Neumann eigenfunction; the observed convergence
    # order of the max error under refinement must be at least 1.9.
    L = 1.0
    errs, hs = [], []
    for n in (64, 128, 256, 512):
        g = GridSpec(1, (L,), (n,))
        x = g.axis_coordinates(0)
        f = Field(g, np.cos(np.pi * x / L))
        lap = laplacian_neumann(f)
        exact = -((np.pi / L) ** 2) * np.cos(np.pi * x / L)
        errs.append(np.max(np.abs(lap.values - exact)))
        hs.append(g.spacing[0])
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_laplacian_zero_mean_random(grid64):
    # discrete divergence theorem; the float residual grows like eps/h^2,
    # so the 1e-12 budget is checked at a resolution where it is robust
    # across all seeds
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = Field(grid64, rng.standard_normal(grid64.size))
        assert abs(mean(laplacian_neumann(f))) <= 1e-12


def test_laplacian_1d_equals_the_general_path_bitwise():
    # the 1D slicing path against the per-axis path of a 2D grid on a field
    # constant along y, whose y differences are exact zeros
    n = 64
    g1 = GridSpec(1, (1.0,), (n,))
    g2 = GridSpec(2, (1.0, 1.0), (n, 4))
    v = np.random.default_rng(3).standard_normal(n)
    lap1 = laplacian_neumann(Field(g1, v)).values
    lap2 = laplacian_neumann(Field(g2, np.repeat(v, 4))).values.reshape(n, 4)
    assert all(np.array_equal(lap1, lap2[:, j]) for j in range(4))


def test_laplacian_2d_eigenfunction():
    g = GridSpec(2, (1.0, 2.0), (64, 64))
    X, Y = g.meshgrid()
    f = Field(g, np.cos(np.pi * X) * np.cos(np.pi * Y / 2.0))
    lam = np.pi**2 + (np.pi / 2.0) ** 2
    err = np.max(np.abs(laplacian_neumann(f).values + lam * f.values))
    assert err <= 5e-3 * lam
    assert abs(mean(laplacian_neumann(f))) <= 1e-12


def test_mean_examples(grid256):
    assert mean(Field.constant(grid256, 3.5)) == pytest.approx(3.5, abs=1e-14)
    x = grid256.axis_coordinates(0)
    assert abs(mean(Field(grid256, np.cos(np.pi * x)))) <= 1e-12
    rng = np.random.default_rng(1)
    f = Field(grid256, rng.standard_normal(grid256.size))
    g = Field(grid256, rng.standard_normal(grid256.size))
    assert mean(Field(grid256, f.values + g.values)) == pytest.approx(
        mean(f) + mean(g), abs=1e-13
    )


def test_norms(grid256):
    zero = Field.constant(grid256, 0.0)
    one = Field.constant(grid256, 1.0)
    assert norm_h(zero) == 0.0
    assert norm_h(one) == pytest.approx(np.sqrt(grid256.measure), rel=1e-14)
    x = grid256.axis_coordinates(0)
    f = Field(grid256, np.cos(np.pi * x))
    # exact integrals: ||cos||^2 = 1/2, ||(cos)'||^2 = pi^2/2 on [0, 1]
    assert norm_v(f) == pytest.approx(np.sqrt(0.5 + np.pi**2 / 2.0), abs=1e-3)
    with pytest.raises(DimensionError):
        inner_h(f, Field.constant(GridSpec(1, (1.0,), (128,)), 0.0))


def test_grad_norm_matches_laplacian_quadratic_form(grid256):
    # summation by parts: int |grad f|^2 = inner_h(-lap f, f) exactly
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = Field(grid256, rng.standard_normal(grid256.size))
        q = -inner_h(laplacian_neumann(f), f)
        assert grad_sq_integral(f) == pytest.approx(q, rel=1e-12)


def test_vstar_examples(grid256):
    assert norm_vstar(Field.constant(grid256, 0.0)) == 0.0
    # constants are fixed points of (I - lap)^(-1)
    assert norm_vstar(Field.constant(grid256, -2.5)) == pytest.approx(2.5, rel=1e-9)
    x = grid256.axis_coordinates(0)
    f = Field(grid256, np.cos(np.pi * x))
    assert norm_vstar(f) == pytest.approx(np.sqrt(1.0 / (2.0 * (1.0 + np.pi**2))), abs=1e-3)


def test_poincare_constant_stabilizes():
    vals = [estimate_poincare_constant(GridSpec(1, (1.0,), (n,))) for n in (64, 128, 256)]
    assert max(vals) / min(vals) <= 1.02
    # 1D interval of length 1: continuum value 1 + (L/pi)^2
    assert vals[-1] == pytest.approx(1.0 + 1.0 / np.pi**2, rel=1e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_interpolation_inequality(seed):
    g = GridSpec(1, (1.0,), (64,))
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal(g.size))
    lhs = norm_h(f) ** 2
    assert lhs <= norm_v(f) * norm_vstar(f) * (1 + 1e-8)


def test_field_io_roundtrip(tmp_path, grid64):
    rng = np.random.default_rng(6)
    f = Field(grid64, rng.standard_normal(grid64.size))
    path = tmp_path / "snap.nlchf"
    write_field(path, f)
    f2 = read_field(path)
    assert f2.grid == grid64
    assert np.array_equal(f2.values, f.values)

    g2 = GridSpec(2, (1.0, 2.0), (8, 4))
    f3 = Field(g2, rng.standard_normal(g2.size))
    path2 = tmp_path / "snap2.nlchf"
    write_field(path2, f3)
    back = read_field(path2)
    assert back.grid == g2
    assert np.array_equal(back.values, f3.values)

    write_field_csv(tmp_path / "snap.csv", f)
    lines = (tmp_path / "snap.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == grid64.size + 1

    # the one-write CSV equals formatting each row on its own, byte for byte
    g16 = GridSpec(2, (1.0, 3.0), (16, 24))
    wide = Field(g16, rng.standard_normal(g16.size) * 10.0 ** rng.uniform(-20, 20, g16.size))
    write_field_csv(tmp_path / "snap2.csv", wide)
    xs, ys = (c.reshape(-1) for c in g16.meshgrid())
    expected = "x,y,value\n" + "".join(f"{x:.17g},{y:.17g},{v:.17g}\n"
                                       for x, y, v in zip(xs, ys, wide.values))
    assert (tmp_path / "snap2.csv").read_bytes() == expected.encode()

    (tmp_path / "bad.nlchf").write_bytes(b"NOPE!!" + b"\0" * 64)
    with pytest.raises(ConfigError):
        read_field(tmp_path / "bad.nlchf")

    # a cut anywhere in the header or the values is a ConfigError naming the
    # file, never a struct.error; so is a trailing byte
    raw = path2.read_bytes()
    for size in [*range(len(raw)), len(raw) + 1]:
        (tmp_path / "cut.nlchf").write_bytes((raw + b"\0")[:size])
        with pytest.raises(ConfigError, match="cut.nlchf"):
            read_field(tmp_path / "cut.nlchf")


@pytest.mark.parametrize("header, rows, footer, expected", [
    # a sweep whose members all failed: the header and the footer only
    (["parameter", "total"], [], [("mode", "eps"), ("dt_floor", 0.1), ("incomplete", True)],
     "parameter,total\n# mode,eps\n# dt_floor,0.10000000000000001\n# incomplete,1\n"),
    (["pair", "d"], [("a_vs_b", 1.0 / 3.0), ("a_vs_c", -0.0)], (),
     "pair,d\na_vs_b,0.33333333333333331\na_vs_c,-0\n"),
    (["x", "y"], [(math.nan, math.inf), (-math.inf, 5e-324)], (),
     "x,y\nnan,inf\n-inf,4.9406564584124654e-324\n"),
    (["n", "used", "ok"], [(7, True, False), (0, False, True)], [("monotone_ok", False)],
     "n,used,ok\n7,1,0\n0,0,1\n# monotone_ok,0\n"),
])
def test_write_table_format(tmp_path, header, rows, footer, expected):
    write_table(tmp_path / "t.csv", header, rows, footer)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("grid", [GridSpec(1, (2.0,), (50,)), GridSpec(2, (1.0, 3.0), (16, 24))],
                         ids=["1d", "2d"])
def test_field_csv_is_write_table_of_its_columns(tmp_path, grid):
    # the grid's cached coordinate text serves every snapshot: each file
    # equals write_table of the coordinate and value columns, byte for byte
    rng = np.random.default_rng(3)
    for k in range(3):
        values = rng.standard_normal(grid.size) * 10.0 ** rng.uniform(-20, 20, grid.size)
        values[:2] = (-0.0, math.inf)
        columns = [c.reshape(-1) for c in grid.meshgrid()] + [values]
        write_table(tmp_path / "want.csv", [*"xy"[:grid.dim], "value"],
                    np.column_stack(columns).tolist())
        write_field_csv(tmp_path / "got.csv", Field(grid, values, check=False))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()



def test_norm_h_grad_2d():
    g = GridSpec(2, (1.0, 1.0), (32, 32))
    X, _ = g.meshgrid()
    f = Field(g, np.cos(np.pi * X))
    assert norm_h_grad(f) == pytest.approx(np.pi / np.sqrt(2.0), rel=2e-3)


@pytest.mark.parametrize("n", [64, 4096])
def test_shifted_diffusion_1d_matches_solve_banded_bitwise(n):
    g = GridSpec(1, (1.0,), (n,))
    rng = np.random.default_rng(n)
    d = rng.uniform(0.1, 10.0, n)
    rhs = rng.standard_normal(n)
    lap_coeff = 1e-3
    c = lap_coeff / g.spacing[0] ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -c
    ab[2, :-1] = -c
    ab[1, :] = d + 2.0 * c
    ab[1, 0] -= c
    ab[1, -1] -= c
    expected = solve_banded((1, 1), ab, rhs)
    assert np.array_equal(solve_shifted_diffusion(g, d, lap_coeff, rhs), expected)


@pytest.mark.parametrize("grid", [GridSpec(1, (1.0,), (64,)), GridSpec(2, (1.0, 1.0), (8, 8))])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shifted_diffusion_rejects_non_finite_input(grid, bad):
    d = np.ones(grid.size)
    rhs = np.ones(grid.size)
    d_bad, rhs_bad = d.copy(), rhs.copy()
    d_bad[3] = bad
    rhs_bad[5] = -bad
    with pytest.raises(SolverError, match="non-finite"):
        solve_shifted_diffusion(grid, d_bad, 1e-3, rhs)
    with pytest.raises(SolverError, match="non-finite"):
        solve_shifted_diffusion(grid, d, 1e-3, rhs_bad)


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.5, 0.25), (1.0, 1e-4)])
def test_neumann_solve_1d_gtsv_agrees_with_the_dct(n, alpha, beta):
    # both solutions meet the normwise backward-error bound of A = alpha I -
    # beta lap, and ||A^-1||_2 = 1/alpha, so they differ by at most
    # (2/alpha) BACKWARD_TOL (||b|| + ||A||_inf max ||x||)
    g = GridSpec(1, (1.0,), (n,))
    rows = np.random.default_rng(n).standard_normal((5, n))
    got = _checked_neumann_solve(g, rows, alpha, beta)
    dct = _spectral_solve(g, rows, alpha, beta)
    anorm = alpha + beta * 4.0 / g.spacing[0] ** 2
    for b, x, y in zip(rows, got, dct):
        xnorm = max(np.linalg.norm(x), np.linalg.norm(y))
        bound = BACKWARD_TOL * (np.linalg.norm(b) + anorm * xnorm)
        assert np.linalg.norm(x - y) <= 2.0 * bound / alpha
    # a stacked call is bitwise each row solved alone
    for b, x in zip(rows, got):
        assert np.array_equal(_checked_neumann_solve(g, b, alpha, beta), x)


@pytest.mark.parametrize("case", ["zero-row", "rows-stop-apart", "low-cap"])
def test_batched_cg_edge_cases(monkeypatch, case):
    # a constant diagonal, which the preconditioner inverts exactly, and two
    # of growing spread take different numbers of CG iterations
    grid = GridSpec(2, (1.0, 2.0), (12, 16))
    rng = np.random.default_rng(3)
    d = np.stack([np.full(grid.size, 2.0), rng.uniform(1.0, 3.0, grid.size),
                  rng.uniform(0.1, 50.0, grid.size)])
    rhs = rng.standard_normal(d.shape)
    lap_coeff = 1e-2
    cg = nlch.grid.cg

    def solve(d, rhs):
        # the solution and the iterations of each grid.cg call
        iterations = []

        def counted(*args, **kwargs):
            calls = []
            x = cg(*args, callback=calls.append, **kwargs)
            iterations.append(len(calls))
            return x

        monkeypatch.setattr(nlch.grid, "cg", counted)
        return solve_shifted_diffusion(grid, d, lap_coeff, rhs), iterations

    if case == "low-cap":
        monkeypatch.setattr(nlch.grid, "CG_ITER_FACTOR", 0)
        with pytest.raises(SolverError, match="CG stalled after cap 0"):
            solve(d, rhs)
        return
    if case == "zero-row":
        rhs[1] = 0.0
    # the batch passes the backward-error gate inside the solve
    x, _ = solve(d, rhs)
    alone = [solve(dr, r) for dr, r in zip(d, rhs)]
    for row, (x_row, _) in zip(x, alone):
        assert row.tobytes() == x_row.tobytes()
    counts = [n for _, (n,) in alone]
    if case == "zero-row":
        assert x[1].tobytes() == np.zeros(grid.size).tobytes() and counts[1] == 0
    else:
        assert counts[0] == 1 and len(set(counts)) == 3


def test_batched_cg_rows_are_scipy_cg_bit_for_bit():
    # each row repeats the arithmetic of scipy's cg on that row alone: dot
    # products by BLAS, the same updates, the same stopping test
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import cg as scipy_cg

    grid = GridSpec(2, (1.0, 2.0), (12, 16))
    rng = np.random.default_rng(4)
    d = rng.uniform(0.1, 50.0, (3, grid.size))
    rhs = rng.standard_normal(d.shape)
    c, n = 1e-2, grid.size
    d_mean = np.mean(d, axis=-1, keepdims=True)
    atol = 1e-12 * np.linalg.norm(rhs, axis=-1)
    x = nlch.grid.cg(lambda v: d * v - c * _lap_array(v, grid), rhs,
                     lambda r: _spectral_solve(grid, r, d_mean, c), atol, 500)
    for k in range(3):
        op = LinearOperator((n, n), dtype=float,
                            matvec=lambda v: d[k] * v - c * _lap_array(v, grid))
        pre = LinearOperator((n, n), dtype=float,
                             matvec=lambda r: _spectral_solve(grid, r, float(d_mean[k, 0]), c))
        want, info = scipy_cg(op, rhs[k], rtol=0.0, atol=atol[k], maxiter=500, M=pre)
        assert info == 0 and x[k].tobytes() == want.tobytes()
