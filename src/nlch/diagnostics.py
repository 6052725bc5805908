"""Observables, trajectory distances, and theorem-check probes.

Distances between trajectories are computed snapshot-wise: L-infinity in
time is the maximum over stored snapshots of a spatial norm, L2 in time
is the trapezoid rule on the squared spatial norms. Snapshot times of
the two trajectories must align within half a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import ComparisonError
from .grid import Field, norm_h, norm_v, norm_vstar
from .kernel import KernelBundle, nonlocal_energy_density
from .potential import PotentialSpec, f_eval, f_lambda_eval


@dataclass
class DiagnosticsRecord:
    """One row of the per-step time series."""

    t: float
    mass_balance_residual: float
    lyapunov: float
    sigma_min: float
    sigma_max: float
    phi_supnorm: float
    energy_nonlocal: float
    newton_iters: int

    CSV_HEADER = "t,mass_balance_residual,lyapunov,sigma_min,sigma_max,phi_supnorm,energy_nonlocal,newton_iters"

    def csv_row(self) -> str:
        return (
            f"{self.t:.17g},{self.mass_balance_residual:.17g},{self.lyapunov:.17g},"
            f"{self.sigma_min:.17g},{self.sigma_max:.17g},{self.phi_supnorm:.17g},"
            f"{self.energy_nonlocal:.17g},{self.newton_iters}"
        )


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


def lyapunov(state, params, bundle: KernelBundle, spec: PotentialSpec,
             e_nl: float | None = None, prox: np.ndarray | None = None) -> float:
    """Discrete Lyapunov functional of the source-free flow.

    (eps/2) ||mu||^2 + interaction energy + int F_lam(phi) + ||sigma||^2 / 2,
    with F_lam the Yosida-regularized potential at the run's lambda.
    ``e_nl`` is the interaction energy and ``prox`` the resolvent of phi
    when the caller already has them.
    """
    if e_nl is None:
        e_nl = nonlocal_energy_density(bundle, state.phi)
    cellvol = state.phi.grid.cell_volume
    flam = f_lambda_eval(spec, params.lam_eff, state.phi.values, prox)
    return (
        0.5 * params.eps * norm_h(state.mu) ** 2
        + e_nl
        + float(np.sum(flam)) * cellvol
        + 0.5 * norm_h(state.sigma) ** 2
    )


def make_record(state, params, bundle, spec, mass_defect: float, newton_iters: int,
                conv_phi: np.ndarray, prox: np.ndarray) -> DiagnosticsRecord:
    """Diagnostics row of a stepped state from its J*phi and its resolvent of phi."""
    e_nl = nonlocal_energy_density(bundle, state.phi, conv_phi)
    return DiagnosticsRecord(
        t=state.t,
        mass_balance_residual=mass_defect,
        lyapunov=lyapunov(state, params, bundle, spec, e_nl, prox),
        sigma_min=float(state.sigma.values.min()),
        sigma_max=float(state.sigma.values.max()),
        phi_supnorm=float(np.max(np.abs(state.phi.values))),
        energy_nonlocal=e_nl,
        newton_iters=newton_iters,
    )


@dataclass(frozen=True)
class TrajectoryDistance:
    """Norms of the difference of two trajectories on a shared time grid."""

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
            weights = {f.name: 1.0 for f in dataclass_fields(self)}
        return sum(w * getattr(self, name) for name, w in weights.items())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


# Norm bundles of the error estimates (weights select the components
# entering each theorem's left-hand side).
EPS_RATE_WEIGHTS = {"linf_h_phi": 1.0, "l2_v_mu": 1.0, "linf_h_sigma": 1.0, "l2_v_sigma": 1.0}
TAU_RATE_WEIGHTS = {
    "linf_vstar_combo": 1.0,
    "l2_h_phi": 1.0,
    "l2_h_mu": 1.0,
    "linf_h_sigma": 1.0,
    "l2_v_sigma": 1.0,
}
JOINT_RATE_WEIGHTS = {
    "linf_vstar_phi": 1.0,
    "l2_h_phi": 1.0,
    "linf_h_sigma": 1.0,
    "l2_v_sigma": 1.0,
}


def stability_weights(tau: float) -> dict:
    """Left-hand-side bundle of the continuous-dependence estimate."""
    return {
        "linf_vstar_combo": 1.0,
        "l2_h_mu": 1.0,
        "linf_h_phi": math.sqrt(tau),
        "l2_h_phi": 1.0,
        "linf_h_sigma": 1.0,
        "l2_v_sigma": 1.0,
    }


def _check_alignment(traj1, traj2) -> np.ndarray:
    t1 = np.asarray(traj1.times)
    t2 = np.asarray(traj2.times)
    if t1.size != t2.size:
        raise ComparisonError(
            f"trajectories store {t1.size} vs {t2.size} snapshots; resample or match strides"
        )
    dt = min(traj1.params.dt, traj2.params.dt)
    if np.max(np.abs(t1 - t2)) > 0.5 * dt:
        raise ComparisonError("snapshot times misaligned by more than half a step")
    return t1


def distance(traj1, traj2, eps: float | None = None,
             components: set[str] | None = None) -> TrajectoryDistance:
    """Difference norms between two trajectories on aligned snapshots.

    eps weights the conserved combination eps*mu + phi; it defaults to
    the first trajectory's relaxation parameter. When components is
    given, only those norms are computed (the dual norms need one linear
    solve per snapshot); the rest are reported as nan.
    """
    ts = _check_alignment(traj1, traj2)
    if eps is None:
        eps = traj1.params.eps
    if components is None:
        components = {f.name for f in dataclass_fields(TrajectoryDistance)}
    grid = traj1.phis[0].grid

    acc = {name: [] for name in components}
    for k in range(len(ts)):
        dphi = Field(grid, traj1.phis[k].values - traj2.phis[k].values, check=False)
        dmu = Field(grid, traj1.mus[k].values - traj2.mus[k].values, check=False)
        dsig = Field(grid, traj1.sigmas[k].values - traj2.sigmas[k].values, check=False)
        if "linf_h_phi" in acc:
            acc["linf_h_phi"].append(norm_h(dphi))
        if "l2_h_phi" in acc:
            acc["l2_h_phi"].append(norm_h(dphi))
        if "l2_v_mu" in acc:
            acc["l2_v_mu"].append(norm_v(dmu))
        if "l2_h_mu" in acc:
            acc["l2_h_mu"].append(norm_h(dmu))
        if "linf_h_sigma" in acc:
            acc["linf_h_sigma"].append(norm_h(dsig))
        if "l2_v_sigma" in acc:
            acc["l2_v_sigma"].append(norm_v(dsig))
        if "linf_vstar_combo" in acc:
            combo = Field(grid, eps * dmu.values + dphi.values, check=False)
            acc["linf_vstar_combo"].append(norm_vstar(combo))
        if "linf_vstar_phi" in acc:
            acc["linf_vstar_phi"].append(norm_vstar(dphi))

    def l2t(vals):
        v = np.asarray(vals)
        return float(np.sqrt(np.trapezoid(v * v, ts)))

    out = {}
    for name in (f.name for f in dataclass_fields(TrajectoryDistance)):
        if name not in acc:
            out[name] = math.nan
        elif name.startswith("linf"):
            out[name] = float(np.max(acc[name]))
        else:
            out[name] = l2t(acc[name])
    return TrajectoryDistance(**out)


def theorem_probe_max_principle(traj, tol: float = 1e-10):
    """Scan all snapshots for violations of 0 <= sigma <= 1.

    Returns (passed, info) where info carries the global extrema and the
    first violating (t, flat cell index) if any.
    """
    lo, hi = math.inf, -math.inf
    first = None
    for t, sig in zip(traj.times, traj.sigmas):
        vals = sig.values
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
        if first is None:
            bad = np.where((vals < -tol) | (vals > 1.0 + tol))[0]
            if bad.size:
                first = (t, int(bad[0]), float(vals[bad[0]]))
    passed = lo >= -tol and hi <= 1.0 + tol
    return passed, {"sigma_min": lo, "sigma_max": hi, "first_violation": first}


def theorem_probe_separation(traj, ell: float):
    """Observed separation radius sup_t ||phi(t)||_inf versus the barrier."""
    r_star = max(float(np.max(np.abs(p.values))) for p in traj.phis)
    return r_star < ell - 1e-6, r_star


def write_diagnostics_csv(path, records):
    with open(path, "w") as fh:
        fh.write(DiagnosticsRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_distances_csv(path, rows: list[tuple[str, TrajectoryDistance]]):
    names = [f.name for f in dataclass_fields(TrajectoryDistance)]
    with open(path, "w") as fh:
        fh.write("pair," + ",".join(names) + "\n")
        for label, d in rows:
            fh.write(label + "," + ",".join(f"{getattr(d, n):.17g}" for n in names) + "\n")
