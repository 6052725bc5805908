"""Assumption audit: the one table of admission gates.

Every hypothesis a run depends on is one row of ``GATES``, a named
function that returns an ``AuditCheck``. ``derive_constants`` computes
the constants the rows read and never raises: a constant becomes a
verdict only in its row (C0 in A5 dominance, C_F in pol_growth).
``audit`` renders every row;
``model.validate_params`` raises the first failing row that reads the
parameters, so run admission and the audit verdict cannot disagree;
``config.build_params`` and the sweeps reach their gates through the same
rows. Results are never emitted without a persisted audit verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import AssumptionError
from .grid import estimate_poincare_constant, norm_h
from .kernel import EpsilonZero, KernelBundle, epsilon_zero
from .potential import (
    PotentialSpec,
    barrier_margin_values,
    check_dominance,
    check_growth,
    f_eval,
    normalization_offset,
)

if TYPE_CHECKING:
    from .model import InitialData, ModelParams

EPS0_SAFETY = 0.9


class DerivedConstants(NamedTuple):
    """Geometry and kernel constants consumed by the admission gates.

    ``eps0`` is None when C0 <= 0, and ``c_f`` for a barrier well."""

    c0: float
    c_omega: float
    eps0: EpsilonZero | None
    c_f: float | None


def derive_constants(bundle: KernelBundle, spec: PotentialSpec) -> DerivedConstants:
    """The constants of a kernel and a well, whatever they admit; never raises."""
    c0 = check_dominance(spec, bundle.a_star)
    c_omega = estimate_poincare_constant(bundle.grid)
    eps0 = epsilon_zero(bundle, c0) if c0 > 0 else None
    return DerivedConstants(c0=c0, c_omega=c_omega, eps0=eps0, c_f=check_growth(spec))


class AuditCheck(NamedTuple):
    name: str
    applicable: bool
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.applicable:
            status = "N/A "
        return f"[{status}] {self.name}: {self.detail}"


class AuditReport(NamedTuple):
    checks: list[AuditCheck]
    constants: DerivedConstants

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def render(self) -> str:
        lines = ["assumption audit", "----------------"]
        lines += [c.line() for c in self.checks]
        c = self.constants
        if c.eps0 is not None:  # C0 > 0
            lines.append("")
            lines.append(
                f"constants: C0 = {c.c0:.6g}, K0 = 1, C_Omega = {c.c_omega:.6g}, "
                f"eps0 = {c.eps0.value:.6g} "
                f"(branches {c.eps0.branch_ca:.4g}, {c.eps0.branch_astar:.4g}, {c.eps0.branch_k0:.4g})"
            )
            if c.c_f is not None:
                lines.append(f"           C_F = {c.c_f:.6g}")
        lines.append("")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


class GateInput(NamedTuple):
    """What the gates read. ``constants`` is derive_constants of the bundle
    and the spec; the initial-data rows read neither."""

    params: ModelParams
    bundle: KernelBundle | None = None
    spec: PotentialSpec | None = None
    constants: DerivedConstants | None = None
    init: InitialData | None = None


def a1_coefficients(g: GateInput) -> AuditCheck:
    bad = [n for n in ("P", "A", "B", "C", "chi", "eta") if getattr(g.params, n) < 0]
    return AuditCheck(
        "A1 nonnegative coefficients", True, not bad,
        "all of P, A, B, C, chi, eta >= 0" if not bad
        else f"negative: {', '.join(f'{n} = {getattr(g.params, n)}' for n in bad)}",
    )


def a2_h(g: GateInput) -> AuditCheck:
    """ModelParams admits only the profiles of model.H_FAMILIES, each
    bounded and Lipschitz: the row states the profile's closed forms."""
    name, profile = g.params.h_profile
    lo, hi = profile.range
    num, den = profile.lipschitz.as_integer_ratio()
    return AuditCheck("A2 h bounded and Lipschitz", True, True,
                      f"h = {name}: range [{lo:g}, {hi:g}], "
                      f"Lipschitz {num if den == 1 else f'{num}/{den}'}")


def a3_sigma_s(g: GateInput) -> AuditCheck:
    s = g.params.sigma_s
    return AuditCheck("A3 sigma_S in [0, 1]", True, bool(0.0 <= s <= 1.0),
                      f"range [{s:.3g}, {s:.3g}]")


def a4_split(g: GateInput) -> AuditCheck:
    """Each family's constructor admits only parameters (shift >= 0,
    0 < theta < theta0, c > 0) under which its split has these properties."""
    # `or` turns the -0.0 of a zero offset into 0.0, which prints as 0
    lower = -normalization_offset(g.spec) or 0.0
    return AuditCheck(
        "A4 potential split", True, True,
        f"F1 convex >= 0, F2'(0) = 0, 0 in dF1(0); F >= {lower:.4g} "
        "(normalization offset immaterial to the dynamics)",
    )


def a5_kernel(g: GateInput) -> AuditCheck:
    b = g.bundle
    return AuditCheck(
        "A5 kernel constants", True, all(np.isfinite(x) for x in (b.a_star, b.a_sup, b.b_sup)),
        f"a_* = {b.a_star:.6g}, a^* = {b.a_sup:.6g}, b^* = {b.b_sup:.6g}, c_a = {b.c_a:.6g}",
    )


def a5_dominance(g: GateInput) -> AuditCheck:
    name = "A5 dominance a_* + F'' >= C0 > 0"
    c0 = g.constants.c0
    if c0 <= 0:
        return AuditCheck(name, True, False,
                          f"A5-dominance: a_* + F''(r) has nonpositive infimum {c0:.6g} at r = 0")
    return AuditCheck(name, True, True, f"C0 = a_* + F''(0) = {c0:.6g}")


def a6_barrier(g: GateInput) -> AuditCheck:
    name = "A6 barrier divergence of F' - chi eta r"
    spec = g.spec
    if not spec.has_barrier:
        return AuditCheck(name, False, True, "not applicable (no barrier)")
    if spec.f1_prime is None:
        return AuditCheck(name, False, True, "double obstacle excluded from A6")
    margins = barrier_margin_values(spec, g.params.chi * g.params.eta, [1e-2, 1e-4, 1e-6])
    return AuditCheck(
        name, True, bool(margins[0] < margins[1] < margins[2] and margins[2] > 0),
        "margins at ell - {1e-2, 1e-4, 1e-6}: " + ", ".join(f"{m:.4g}" for m in margins),
    )


def a7_kernel_flag(g: GateInput) -> AuditCheck:
    return AuditCheck(
        "A7 kernel admissibility flag", True, g.bundle.spec.is_radially_nonincreasing(),
        "radial and non-increasing (W^2,1 regularity is user-asserted)",
    )


# the detail of a row that reads C0 when the A5 dominance row fails
_UNDECIDED_BY_A5 = "not applicable (C0 <= 0 fails A5 dominance)"


def eps_below_eps0(g: GateInput) -> AuditCheck:
    eps = g.params.eps
    if eps < 0:
        return AuditCheck("eps < eps0", True, False, f"eps = {eps:.6g} is negative")
    if eps == 0:
        return AuditCheck("eps < eps0", False, True, "not applicable (eps = 0)")
    if g.constants.eps0 is None:
        return AuditCheck("eps < eps0", False, True, _UNDECIDED_BY_A5)
    gate = EPS0_SAFETY * g.constants.eps0.value
    return AuditCheck("eps < eps0", True, eps < gate,
                      f"eps = {eps:.6g} vs {EPS0_SAFETY} * eps0 = {gate:.6g}")


def tau_below_tau0(g: GateInput) -> AuditCheck:
    tau = g.params.tau
    return AuditCheck("tau < tau0 = 1", tau != 0.0, 0.0 <= tau < 1.0, f"tau = {tau:.6g}")


def ip_chi(g: GateInput) -> AuditCheck:
    """Chemotaxis compatibility of the vanishing-viscosity limit (tau = 0)."""
    p = g.params
    if p.tau != 0.0:
        return AuditCheck("ip_chi", False, True, "not applicable (tau > 0)")
    if g.constants.c0 <= 0:
        return AuditCheck("ip_chi", False, True, _UNDECIDED_BY_A5)
    chi, eta, c_a, c0 = p.chi, p.eta, g.bundle.c_a, g.constants.c0
    lhs = (chi + eta + 4.0 * c_a * chi) ** 2
    rhs = 8.0 * c_a * c0 + 4.0 * chi * eta
    return AuditCheck(
        "ip_chi", True, bool(chi < np.sqrt(c_a) and lhs < rhs),
        f"chi = {chi:.4g} vs sqrt(c_a) = {np.sqrt(c_a):.4g}; "
        f"(chi+eta+4 c_a chi)^2 = {lhs:.6g} vs 8 c_a C0 + 4 chi eta = {rhs:.6g}",
    )


def pol_growth(g: GateInput) -> AuditCheck:
    if g.params.eps != 0.0:
        return AuditCheck("pol_growth", False, True, "not applicable (eps > 0)")
    c_f = g.constants.c_f
    if c_f is None:
        return AuditCheck("pol_growth", True, False,
                          f"{g.spec.family} potential has a bounded barrier domain; "
                          "the growth condition requires D(dF1) = R")
    return AuditCheck("pol_growth", True, True, f"C_F = {c_f:.6g}")


def eta_zero(g: GateInput) -> AuditCheck | None:
    """Row shown only in the eps = 0 limit."""
    if g.params.eps != 0.0:
        return None
    return AuditCheck("eta = 0 for eps = 0", True, g.params.eta == 0.0, f"eta = {g.params.eta}")


def ip_init(g: GateInput) -> AuditCheck:
    fvals = f_eval(g.spec, g.init.phi0.values)
    return AuditCheck(
        "ip_init F(phi0) integrable", True, bool(np.all(np.isfinite(fvals))),
        f"max F(phi0) = {np.max(fvals):.6g}, ||mu0||_H = {norm_h(g.init.mu0):.4g}",
    )


def ip_infty(g: GateInput) -> AuditCheck:
    lo, hi = float(g.init.sigma0.values.min()), float(g.init.sigma0.values.max())
    return AuditCheck(
        "ip_infty sigma0 in [0, 1]", g.params.eta == 0.0, 0.0 <= lo and hi <= 1.0,
        f"range [{lo:.4g}, {hi:.4g}] (gates the maximum principle when eta = 0)",
    )


# The ordered table. The second column marks the rows that run admission
# (model.validate_params) evaluates. It skips A2, which every ModelParams
# passes, the spec/kernel-only rows, which read nothing a run changes, and
# the initial-data rows, which model.run checks.
GATES = (
    (a1_coefficients, True),
    (a2_h, False),
    (a3_sigma_s, True),
    (a4_split, False),
    (a5_kernel, False),
    (a5_dominance, True),
    (a6_barrier, False),
    (a7_kernel_flag, False),
    (eps_below_eps0, True),
    (tau_below_tau0, True),
    (ip_chi, True),
    (pol_growth, True),
    (eta_zero, True),
    (ip_init, False),
    (ip_infty, False),
)
RUN_GATES = tuple(gate for gate, on_run in GATES if on_run)


def admit(checks) -> None:
    """Raise AssumptionError(name, detail) for the first failing applicable check."""
    for check in checks:
        if check is not None and check.applicable and not check.passed:
            raise AssumptionError(check.name, check.detail)


def audit(params: ModelParams, bundle, spec: PotentialSpec, init: InitialData) -> AuditReport:
    """Evaluate every row of the gate table; never raises on failures."""
    g = GateInput(params, bundle, spec, derive_constants(bundle, spec), init)
    checks = [check for check in (gate(g) for gate, _ in GATES) if check is not None]
    return AuditReport(checks=checks, constants=g.constants)
