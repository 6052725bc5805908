"""The Neumann solves (gtsv in 1D, DCT-II in 2D) against a sparse reference, and 2D runs."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from nlch.cli import main
from nlch.grid import (
    Field,
    GridSpec,
    estimate_poincare_constant,
    grad_sq_integral,
    inner_h,
    mean,
    solve_helmholtz,
)

GRIDS = [GridSpec(1, (1.0,), (256,)), GridSpec(2, (1.0, 2.0), (64, 96))]


def _sparse_laplacian(grid: GridSpec):
    """Mirrored-ghost Laplacian assembled as a sparse matrix (row-major)."""
    lap = sp.csr_matrix((grid.size, grid.size))
    for axis in range(grid.dim):
        n = grid.cells[axis]
        d1 = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1],
                      format="lil")
        d1[0, 0] = d1[-1, -1] = -1.0
        term = d1.tocsr() / grid.spacing[axis] ** 2
        for other in range(grid.dim):
            if other < axis:
                term = sp.kron(sp.identity(grid.cells[other]), term)
            elif other > axis:
                term = sp.kron(term, sp.identity(grid.cells[other]))
        lap = lap + term
    return lap.tocsc()


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _check_against_sparse(grid: GridSpec, f: np.ndarray, tol: float):
    """solve_helmholtz, as the Riesz inverse (I - lap)^(-1) and shifted, against spsolve."""
    lap = _sparse_laplacian(grid)
    eye = sp.identity(grid.size, format="csc")

    u = solve_helmholtz(Field(grid, f), 1.0, 1.0).values
    assert _rel(u, spsolve(eye - lap, f)) <= tol

    alpha, beta = 1.5, 0.25
    u = solve_helmholtz(Field(grid, f), alpha, beta).values
    assert _rel(u, spsolve(alpha * eye - beta * lap, f)) <= tol


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_spectral_solves_match_sparse_reference(grid):
    rng = np.random.default_rng(7)
    _check_against_sparse(grid, rng.standard_normal(grid.size), 1e-11)


@pytest.mark.parametrize("data", ["smooth", "random"])
def test_spectral_solves_pass_their_gate_on_fine_grids(data):
    # at 4096 cells cond(I - lap) ~ 7e7 and the relative residual of
    # smooth data is about 1e-9, no reachable gate; the backward error
    # stays near 1e-16 and the solutions stay well inside the forward
    # bound cond * machine eps ~ 1.5e-8
    grid = GridSpec(1, (1.0,), (4096,))
    x = grid.axis_coordinates(0)
    f = (np.cos(np.pi * x) + 0.3 if data == "smooth"
         else np.random.default_rng(11).standard_normal(grid.size))
    _check_against_sparse(grid, f, 1e-9)


@pytest.mark.parametrize("grid", GRIDS + [GridSpec(2, (1.0, 1.0), (32, 32))],
                         ids=lambda g: "x".join(map(str, g.cells)))
def test_poincare_closed_form_is_lowest_cosine_rayleigh_quotient(grid):
    # the lowest cosine mode along the longest axis is an exact discrete
    # eigenvector with zero mean, so it attains the Poincare supremum
    axis = int(np.argmax(grid.extent))
    x = grid.meshgrid()[axis]
    p = Field(grid, np.cos(np.pi * x / grid.extent[axis]))
    grad = grad_sq_integral(p)
    rayleigh = (inner_h(p, p) + grad) / (grad + mean(p) ** 2 * grid.measure)
    assert estimate_poincare_constant(grid) == pytest.approx(rayleigh, rel=1e-12)


@pytest.mark.parametrize("config", ["default.cfg", "separation.cfg", "rate-study.cfg"])
def test_shipped_configs_run_in_2d(tmp_path, config):
    cfg = Path(__file__).resolve().parent.parent / "configs" / config
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
               "--set", "grid.dim=2", "--set", "grid.cells=64", "--set", "model.T=0.005"])
    assert rc == 0
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0].startswith("t,mass_balance_residual,")
    assert len(lines) > 2
    assert max(abs(float(row.split(",")[1])) for row in lines[1:]) <= 1e-12
