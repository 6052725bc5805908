"""Command-line entry point: configuration, audit, runs, sweeps.

Subcommands:
  audit           evaluate the assumption audit and print the report
  simulate        integrate the configured system, write snapshots + CSV
  sweep-eps       vanishing-relaxation rate study (eps -> 0 at fixed tau)
  sweep-tau       vanishing-viscosity rate study (tau -> 0 at fixed eps)
  sweep-joint     joint limit along eps_k = tau_k^2
  stability       continuous-dependence ratio probe
  verify          run the packaged property suite
  oracle-compare  finite-difference stepper vs spectral Galerkin oracle

Exit codes: 0 success, 1 property/audit failure, 2 configuration error.
Every result directory receives config.resolved, audit.txt, and a
format-versioned manifest before any data files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, diagnostics  # asymptotics, galerkin, verify: imported where run
from .audit import audit as run_audit
from .config import build_grid, build_problem, load_config
from .errors import AssumptionError, ConfigError, NlchError, StepError
from .grid import write_field, write_field_csv, write_table
from .model import derive_constants, run  # noqa: F401  derive_constants: a traced call site

MANIFEST_VERSION = 1
# the keys of asymptotics.LIMITS, one sweep-<mode> command each
SWEEP_MODES = ("eps", "tau", "joint")
ORACLE_NOTE = ("Runs the stepper and the oracle at eps = tau = 0.1, whatever model.eps and "
               "model.tau say. The kernel must admit eps = 0.1 (0.1 < 0.9 eps0), as "
               "configs/rate-study.cfg does; the built-in default kernel gives "
               "0.9 eps0 = 0.0599, so without --config the audit fails (exit 1).")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlch", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"nlch {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("audit", "simulate", *(f"sweep-{mode}" for mode in SWEEP_MODES),
                 "stability", "verify", "oracle-compare"):
        p = sub.add_parser(name, description=ORACLE_NOTE if name == "oracle-compare" else None)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one configuration key (repeatable)")
        p.add_argument("--seed", type=int, default=0, help="seed for random-smoothed ICs")
        if name != "verify":
            p.add_argument("--out", default=None, help="output directory")
    return ap


def _write_manifest(out: Path, command: str, seed: int, files: list[str]):
    manifest = {
        "format": "nlch-run",
        "format_version": MANIFEST_VERSION,
        "command": command,
        "seed": seed,
        "files": sorted(files),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _audit(args, cfg):
    """The problem of a loaded configuration and its mandatory audit; writes nothing."""
    problem = build_problem(cfg, seed=args.seed)
    return problem, run_audit(problem.params, problem.bundle, problem.spec, problem.init)


def _prologue(args, command: str, cfg, report) -> Path:
    """Write a command's output directory and print the audit, before any results.

    The directory receives config.resolved, the audit verdict and a
    manifest of those two files; a command that goes on to write
    results rewrites the manifest. Returns the directory.
    """
    out = Path(args.out if args.out is not None else cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(cfg.resolved_text())
    (out / "audit.txt").write_text(report.render())
    print(report.render(), end="")
    _write_manifest(out, command, args.seed, ["config.resolved", "audit.txt"])
    if not report.passed:
        print(f"audit failed; {out} holds the verdict and no results", file=sys.stderr)
    return out


def _cmd_audit(args) -> int:
    cfg = load_config(args.config, args.set)
    _, report = _audit(args, cfg)
    _prologue(args, "audit", cfg, report)
    return 0 if report.passed else 1


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    stride = cfg["output.snapshot_stride"]
    if stride < 1:
        raise ConfigError(f"output.snapshot_stride must be >= 1, got {stride}")
    problem, report = _audit(args, cfg)
    out = _prologue(args, "simulate", cfg, report)
    if not report.passed:
        return 1
    failure = None
    try:
        traj = run(problem.init, problem.params, problem.bundle, problem.spec,
                   snapshot_stride=stride)
    except StepError as err:
        # persist the partial trajectory before reporting the failure
        traj = getattr(err, "partial", None)
        if traj is None:
            raise
        failure = err
    diagnostics.write_diagnostics_csv(out / "diagnostics.csv", traj.records)
    files = ["config.resolved", "audit.txt", "diagnostics.csv"]
    for k, (t, phi, sig) in enumerate(zip(traj.times, traj.phis, traj.sigmas)):
        for name, f in (("phi", phi), ("sigma", sig)):
            path = out / f"{name}_{k:05d}.nlchf"
            write_field(path, f)
            files.append(path.name)
        write_field_csv(out / f"phi_{k:05d}.csv", phi)
        files.append(f"phi_{k:05d}.csv")
    _write_manifest(out, "simulate", args.seed, files)
    if failure is not None:
        print(f"step {failure.step} failed in the {failure.phase} phase at "
              f"t = {failure.t:.6g}: {failure}; partial trajectory persisted in {out}",
              file=sys.stderr)
        return 1
    print(f"simulated T = {traj.times[-1]:.6g} with {len(traj.records) - 1} steps; "
          f"{len(traj.times)} snapshots in {out}")
    return 0


def _positive(cfg, key: str) -> float:
    """cfg[key], a command's final time or time step; a ConfigError unless finite and > 0."""
    t = cfg[key]
    if not 0 < t < np.inf:
        raise ConfigError(f"{key} must be finite and > 0, got {t}")
    return t


def _sweep_command(args) -> int:
    from . import asymptotics

    mode = args.command.removeprefix("sweep-")
    cfg = load_config(args.config, args.set)
    T, dt = _positive(cfg, "sweep.t"), _positive(cfg, "sweep.dt")
    values = asymptotics.sweep_values(cfg["sweep.values"])
    problem, audit_report = _audit(args, cfg)
    # the plan admits every system it runs, so one a gate refuses raises before any file
    plan = asymptotics.SweepPlan(
        mode, values, problem.params.with_params(T=T, dt=dt), problem.init, problem.bundle,
        problem.spec, m0_cap=cfg["sweep.m0"]) if audit_report.passed else None
    out = _prologue(args, args.command, cfg, audit_report)
    if plan is None:
        return 1
    report = asymptotics.sweep(plan)
    asymptotics.write_rates_csv(out / "rates.csv", report)
    diagnostics.write_distances_csv(
        out / "distances.csv",
        [(f"{mode}={v:g}_vs_limit", d)
         for v, d in zip(report.parameter_values, report.distances)],
    )
    _write_manifest(out, args.command, args.seed,
                    ["config.resolved", "audit.txt", "rates.csv", "distances.csv"])
    print(f"{mode}-sweep over {report.parameter_values}")
    for v, tot, use in zip(report.parameter_values, report.totals, report.used_in_fit):
        note = "" if use else "  (floored, excluded from fit)"
        print(f"  {v:10.4g}  error {tot:.6e}{note}")
    print(f"  dt-refinement floor: {report.floor:.3e}")
    if report.slope is not None:
        target = report.theoretical_slope - asymptotics.SLOPE_MARGIN
        print(f"fitted slope {report.slope:.4f} vs theoretical {report.theoretical_slope} "
              f"({'PASS' if report.rate_ok else 'FAIL'}: threshold {target:.2f})")
    print(f"monotone: {report.monotone_ok}; incomplete: {report.incomplete}")
    for note in report.notes:
        print("  note:", note)
    return 0 if report.passed else 1


def _cmd_stability(args) -> int:
    from . import asymptotics

    cfg = load_config(args.config, args.set)
    deltas = cfg["stability.deltas"]
    taus = cfg["stability.taus"]
    if not any(deltas):
        raise ConfigError("stability.deltas needs a nonzero delta")
    if not taus:
        raise ConfigError("stability.taus needs at least one tau")
    T = _positive(cfg, "stability.t")
    problem, report = _audit(args, cfg)
    params = problem.params.with_params(T=T)
    # every tau's base and perturbed runs are admitted before any file
    plans = [asymptotics.StabilityPlan(problem.init, params.with_params(tau=tau),
                                       problem.bundle, problem.spec, deltas)
             for tau in taus] if report.passed else None
    out = _prologue(args, "stability", cfg, report)
    if plans is None:
        return 1
    table, probes = [], []
    for plan in plans:
        probes.append(asymptotics.stability_probe(plan))
        for r in probes[-1]:
            table.append((plan.params.tau, r.delta, r.lhs, r.rhs, r.ratio))
            print(f"tau = {plan.params.tau:g}, delta = {r.delta:g}: lhs/rhs = {r.ratio:.4f}")
    if not asymptotics.tau_drift_ok(probes):
        print(f"ratios drift across tau by more than factor {asymptotics.TAU_DRIFT_FACTOR:g}")
    write_table(out / "stability.csv", ["tau", "delta", "lhs", "rhs", "ratio"], table)
    _write_manifest(out, "stability", args.seed,
                    ["config.resolved", "audit.txt", "stability.csv"])
    ok = asymptotics.stability_passed(probes)
    print("stability probe:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from . import verify

    cfg = load_config(args.config, args.set)
    _, report = _audit(args, cfg)  # surfaces configuration errors
    print(report.render(), end="")
    ok = verify.run_all()
    return 0 if (ok and report.passed) else 1


def _cmd_oracle_compare(args) -> int:
    from . import galerkin

    cfg = load_config(args.config, args.set)
    n = cfg["oracle.modes"]
    galerkin.make_basis(build_grid(cfg), n)  # the oracle's settings, checked before the run
    cfg.entries.update({
        "model.eps": 0.1, "model.tau": 0.1,
        "model.dt": _positive(cfg, "oracle.dt"), "model.T": _positive(cfg, "oracle.t"),
    })
    problem, report = _audit(args, cfg)
    out = _prologue(args, "oracle-compare", cfg, report)
    if not report.passed:
        return 1
    traj = run(problem.init, problem.params, problem.bundle, problem.spec,
               record_diagnostics=False)
    ts, coeffs, rel = galerkin.compare(traj, problem.bundle, problem.spec, n)
    galerkin.write_coefficients_csv(out / "oracle_coefficients.csv", ts, coeffs, n)
    _write_manifest(out, "oracle-compare", args.seed,
                    ["config.resolved", "audit.txt", "oracle_coefficients.csv"])
    ok = rel <= galerkin.ORACLE_GAP_TOL
    threshold = np.format_float_scientific(galerkin.ORACLE_GAP_TOL, trim="-", exp_digits=1)
    print(f"L2(0,T;H) relative difference stepper vs oracle: {rel:.6e} "
          f"({'PASS' if ok else 'FAIL'}: threshold {threshold})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "audit": _cmd_audit,
        "simulate": _cmd_simulate,
        **dict.fromkeys((f"sweep-{mode}" for mode in SWEEP_MODES), _sweep_command),
        "stability": _cmd_stability,
        "verify": _cmd_verify,
        "oracle-compare": _cmd_oracle_compare,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, AssumptionError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NlchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
