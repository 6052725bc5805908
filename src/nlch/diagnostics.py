"""Observables, trajectory distances, and structural verdicts.

Each structural verdict (mass_balance, max_principle, lyapunov_decay,
separation) reads a run's DiagnosticsRecords against this module's
tolerance and returns (passed, measured); a run without records has no
verdict.

Distances between trajectories are computed snapshot-wise: L-infinity in
time is the maximum over stored snapshots of a spatial norm, L2 in time
is the trapezoid rule on the squared spatial norms. Snapshot times of
the two trajectories must align within half a step.

RowDistances is the one place such differences are normed: it takes each
row's distance to row 0, whether the rows are lockstep runs observed as
they step, two stored trajectories (``distance``) or, in a sweep, the
stored dt/2 floor reference appended as one more row. It keeps each
row's first-snapshot norms, from which ``stability`` reads the right-hand
side of its estimate.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ComparisonError, InapplicabilityError
from .grid import GridSpec, dual_norms, h_norms, v_norms, write_table
from .grid import norm_vstar  # noqa: F401  a traced call site
from .kernel import KernelBundle, nonlocal_energy_density, nonlocal_energy_rows
from .potential import PotentialSpec, f_eval, f_lambda_eval


# the largest per-step mass defect (DiagnosticsRecord.mass_balance_residual) a run passes with
MASS_BALANCE_TOL = 1e-12
# the largest per-step increase of a source-free run's Lyapunov functional, over |L(0)|
LYAPUNOV_TOL = 1e-10
# the rounding the maximum principle allows sigma outside [0, 1]
MAX_PRINCIPLE_TOL = 1e-10
# the separation margin: sup_t ||phi(t)||_inf passes at most ell - SEPARATION_MARGIN
SEPARATION_MARGIN = 1e-3


class DiagnosticsRecord(NamedTuple):
    """One row of the per-step time series; the fields, in order, are the
    columns of diagnostics.csv."""

    t: float
    mass_balance_residual: float
    lyapunov: float
    sigma_min: float
    sigma_max: float
    phi_supnorm: float
    energy_nonlocal: float
    newton_iters: int


def energy(state, bundle: KernelBundle, spec: PotentialSpec) -> float:
    """Free energy: interaction part plus the integral of F(phi).

    Returns +inf when phi leaves the domain of F (possible only for
    synthetic states; stepped states stay inside barriers).
    """
    fvals = f_eval(spec, state.phi.values)
    if not np.all(np.isfinite(fvals)):
        return math.inf
    e_nl = nonlocal_energy_density(bundle, state.phi)
    return e_nl + float(np.sum(fvals)) * state.phi.grid.cell_volume


def _lyapunov_rows(phi, mu, sigma, params, spec: PotentialSpec, grid: GridSpec,
                   e_nl, prox: np.ndarray | None) -> list:
    """Lyapunov functional of each row of (k, cells) stacks, given each row's
    interaction energy ``e_nl``; ``prox`` is the resolvent of phi or None."""
    # squared as grid.norm_h(row) ** 2 is, so records match lyapunov() bit for bit
    mu_sq, sigma_sq = ([n ** 2 for n in h_norms(grid, v)] for v in (mu, sigma))
    flam = f_lambda_eval(spec, params.lam_eff, phi, prox).sum(axis=-1).tolist()
    return [0.5 * params.eps * m + e + f * grid.cell_volume + 0.5 * s
            for m, s, e, f in zip(mu_sq, sigma_sq, e_nl, flam)]


def lyapunov(state, params, bundle: KernelBundle, spec: PotentialSpec) -> float:
    """Discrete Lyapunov functional of the source-free flow.

    (eps/2) ||mu||^2 + interaction energy + int F_lam(phi) + ||sigma||^2 / 2,
    with F_lam the Yosida-regularized potential at the run's lambda.
    """
    (value,) = _lyapunov_rows(*(f.values[None] for f in (state.phi, state.mu, state.sigma)),
                              params, spec, state.phi.grid,
                              [nonlocal_energy_density(bundle, state.phi)], None)
    return value


def make_record(t, phi, mu, sigma, params, bundle, spec, mass_defect, newton_iters,
                conv_phi: np.ndarray, prox: np.ndarray) -> list:
    """Diagnostics rows of a block of one run's stepped states.

    phi, mu, sigma, their J*phi and their resolvent of phi are (k, cells)
    stacks, one row per state; t, mass_defect and newton_iters hold one
    value per state. Each row's record is that of the state alone: row
    sums and extrema are exact per row, and inner products are np.vecdot
    on the rows, which is bitwise np.dot on each row.
    """
    e_nl = nonlocal_energy_rows(bundle, phi, conv_phi)
    return list(map(DiagnosticsRecord, t, mass_defect,
                    _lyapunov_rows(phi, mu, sigma, params, spec, bundle.grid, e_nl, prox),
                    sigma.min(axis=-1).tolist(), sigma.max(axis=-1).tolist(),
                    np.abs(phi).max(axis=-1).tolist(), e_nl, newton_iters))


def _recorded(records, column: str, least: int = 1) -> list:
    """One column of a run's records; fewer than ``least`` records raise."""
    if len(records) < least:
        raise InapplicabilityError(f"the verdict reads at least {least} diagnostics records, "
                                   f"got {len(records)}; run with record_diagnostics=True")
    return [getattr(r, column) for r in records]


def mass_balance(records) -> tuple[bool, float]:
    """The largest per-step mass defect; passes at most MASS_BALANCE_TOL."""
    worst = max(_recorded(records, "mass_balance_residual"))
    return worst <= MASS_BALANCE_TOL, worst


def max_principle(records) -> tuple[bool, tuple[float, float]]:
    """sigma's range (min sigma_min, max sigma_max); passes within MAX_PRINCIPLE_TOL of [0, 1]."""
    lo, hi = min(_recorded(records, "sigma_min")), max(_recorded(records, "sigma_max"))
    return lo >= -MAX_PRINCIPLE_TOL and hi <= 1.0 + MAX_PRINCIPLE_TOL, (lo, hi)


def lyapunov_decay(records) -> tuple[bool, float]:
    """The largest per-step increase of a source-free run's Lyapunov functional
    over |L(0)|; passes at most LYAPUNOV_TOL. It needs a step and L(0) != 0."""
    L = _recorded(records, "lyapunov", least=2)
    if L[0] == 0.0:
        raise InapplicabilityError("Lyapunov decay is judged relative to |L(0)|, which is 0")
    worst = max(b - a for a, b in zip(L, L[1:])) / abs(L[0])
    return worst <= LYAPUNOV_TOL, worst


def separation(records, ell: float) -> tuple[bool, float]:
    """The observed radius sup_t ||phi(t)||_inf; passes at most ell - SEPARATION_MARGIN."""
    r_star = max(_recorded(records, "phi_supnorm"))
    return r_star <= ell - SEPARATION_MARGIN, r_star


class TrajectoryDistance(NamedTuple):
    """Norms of the difference of two trajectories on a shared time grid;
    the fields, in order, are the columns of distances.csv and rates.csv."""

    linf_h_phi: float
    l2_h_phi: float
    l2_v_mu: float
    l2_h_mu: float
    linf_h_sigma: float
    l2_v_sigma: float
    linf_vstar_combo: float
    linf_vstar_phi: float

    def total(self, weights: dict | None = None) -> float:
        """Weighted sum of components; unit weights when none given."""
        if weights is None:
            weights = dict.fromkeys(self._fields, 1.0)
        return sum(w * getattr(self, name) for name, w in weights.items())


def check_alignment(t1, t2, dt: float):
    """Raise ComparisonError unless two snapshot time grids match within dt/2."""
    t1, t2 = np.asarray(t1), np.asarray(t2)
    if t1.size != t2.size:
        raise ComparisonError(
            f"trajectories store {t1.size} vs {t2.size} snapshots; resample or match strides"
        )
    if np.max(np.abs(t1 - t2)) > 0.5 * dt:
        raise ComparisonError("snapshot times misaligned by more than half a step")


def difference_norms(grid: GridSpec, dphi: np.ndarray, dmu: np.ndarray, dsig: np.ndarray,
                     eps, components) -> dict[str, list[float]]:
    """The spatial norms behind each TrajectoryDistance component, per row.

    dphi, dmu and dsig are (rows, cells) stacks of snapshot differences;
    eps, one value per row as a (rows, 1) column, weights the conserved
    combination eps*dmu + dphi. Each row's norms equal those
    of grid.norm_h, norm_v and norm_vstar on the row alone; the dual
    norms of all rows come from one batched solve, and the H norms of
    dphi, which two components read, are taken once.
    """
    h_phi = functools.cache(lambda: h_norms(grid, dphi))
    norms = {
        "linf_h_phi": h_phi,
        "l2_h_phi": h_phi,
        "l2_v_mu": lambda: v_norms(grid, dmu),
        "l2_h_mu": lambda: h_norms(grid, dmu),
        "linf_h_sigma": lambda: h_norms(grid, dsig),
        "l2_v_sigma": lambda: v_norms(grid, dsig),
        "linf_vstar_combo": lambda: dual_norms(grid, eps * dmu + dphi),
        "linf_vstar_phi": lambda: dual_norms(grid, dphi),
    }
    return {name: norms[name]() for name in components}


class RowDistances:
    """Distances of several runs to row 0, taken snapshot by snapshot.

    Called at every snapshot time with the indices of the rows present and
    their (rows, cells) stacks of phi, mu and sigma (run_rows' ``observe``
    signature), it norms each row's difference to row 0 in one
    difference_norms call and keeps only the norms. ``eps`` holds each
    row's weight of mu in the conserved combination eps*dmu + dphi.
    """

    def __init__(self, grid: GridSpec, components, eps):
        self.grid, self.components, self.eps = grid, components, eps
        self.times = []
        self.norms = {row: {name: [] for name in components} for row in range(1, len(eps))}

    def __call__(self, t, rows, phi, mu, sig):
        if rows[0] != 0:
            return  # row 0 failed; the caller raises its error
        self.times.append(t)
        if len(rows) == 1:
            return
        diffs = [v[1:] - v[0] for v in (phi, mu, sig)]
        eps = np.array([self.eps[row] for row in rows[1:]])[:, None]
        norms = difference_norms(self.grid, *diffs, eps, self.components)
        for j, row in enumerate(rows[1:]):
            for name, values in norms.items():
                self.norms[row][name].append(values[j])

    def first(self, row: int) -> dict[str, float]:
        """The row's spatial norms at the first snapshot."""
        return {name: values[0] for name, values in self.norms[row].items()}

    def distance(self, row: int) -> TrajectoryDistance:
        """The row's TrajectoryDistance to row 0; components not normed are nan."""
        norms = self.norms[row]
        out = {}
        for name in TrajectoryDistance._fields:
            if name not in norms:
                out[name] = math.nan
            elif name.startswith("linf"):
                out[name] = float(np.max(norms[name]))
            else:
                v = np.asarray(norms[name])
                out[name] = float(np.sqrt(np.trapezoid(v * v, self.times)))
        return TrajectoryDistance(**out)


def distance(traj1, traj2, eps: float | None = None,
             components: set[str] | None = None) -> TrajectoryDistance:
    """Difference norms between two trajectories on aligned snapshots.

    eps weights the conserved combination eps*mu + phi; it defaults to
    the first trajectory's relaxation parameter. When components is
    given, only those norms are computed (the dual norms need a linear
    solve); the rest are reported as nan. The two trajectories are rows
    0 and 1 of a RowDistances, fed one snapshot at a time, so the memory
    taken does not grow with the trajectories.
    """
    check_alignment(traj1.times, traj2.times, min(traj1.params.dt, traj2.params.dt))
    if eps is None:
        eps = traj1.params.eps
    if components is None:
        components = set(TrajectoryDistance._fields)
    tracker = RowDistances(traj1.phis[0].grid, components, [eps, eps])
    for t, *pairs in zip(traj1.times, zip(traj1.phis, traj2.phis),
                         zip(traj1.mus, traj2.mus), zip(traj1.sigmas, traj2.sigmas)):
        tracker(t, [0, 1], *(np.stack([a.values, b.values]) for a, b in pairs))
    return tracker.distance(1)


def write_diagnostics_csv(path, records):
    """diagnostics.csv: one column per DiagnosticsRecord field, one row per record."""
    write_table(path, DiagnosticsRecord._fields, records)


def write_distances_csv(path, rows: list[tuple[str, TrajectoryDistance]]):
    write_table(path, ["pair", *TrajectoryDistance._fields], [(label, *d) for label, d in rows])
