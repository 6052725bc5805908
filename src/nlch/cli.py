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
from .config import build_problem, load_config
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


def _prologue(args, command: str, cfg):
    """Problem, output directory and the mandatory audit of a loaded configuration.

    The directory receives config.resolved, the audit verdict and a
    manifest of those two files before any results; a command that goes
    on to write results rewrites the manifest. Returns (problem, out,
    audit report); the report's derived constants are reused by the runs.
    """
    problem = build_problem(cfg, seed=args.seed)
    out = Path(args.out if args.out is not None else cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(cfg.resolved_text())
    report = run_audit(problem.params, problem.bundle, problem.spec, problem.init)
    (out / "audit.txt").write_text(report.render())
    print(report.render(), end="")
    _write_manifest(out, command, args.seed, ["config.resolved", "audit.txt"])
    if not report.passed:
        print(f"audit failed; {out} holds the verdict and no results", file=sys.stderr)
    return problem, out, report


def _cmd_audit(args) -> int:
    *_, report = _prologue(args, "audit", load_config(args.config, args.set))
    return 0 if report.passed else 1


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    stride = cfg["output.snapshot_stride"]
    if stride < 1:
        raise ConfigError(f"output.snapshot_stride must be >= 1, got {stride}")
    problem, out, report = _prologue(args, "simulate", cfg)
    if not report.passed:
        return 1
    failure = None
    try:
        traj = run(problem.init, problem.params, problem.bundle, problem.spec,
                   snapshot_stride=stride, constants=report.constants)
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
    asymptotics.fixed_positive(mode, cfg["model.eps"], cfg["model.tau"])
    problem, out, audit_report = _prologue(args, args.command, cfg)
    if not audit_report.passed:
        return 1
    base = problem.params.with_params(T=T, dt=dt)
    plan = asymptotics.SweepPlan(
        mode=mode,
        values=values,
        base_params=base,
        init=problem.init,
        bundle=problem.bundle,
        spec=problem.spec,
        m0_cap=cfg["sweep.m0"],
    )
    report = asymptotics.sweep(plan, constants=audit_report.constants)
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
    ok = not report.incomplete and report.monotone_ok
    if report.slope is not None:
        target = report.theoretical_slope - 0.05
        rate_ok = report.slope >= target
        ok = ok and rate_ok
        print(f"fitted slope {report.slope:.4f} vs theoretical {report.theoretical_slope} "
              f"({'PASS' if rate_ok else 'FAIL'}: threshold {target:.2f})")
    else:
        ok = False
    print(f"monotone: {report.monotone_ok}; incomplete: {report.incomplete}")
    for note in report.notes:
        print("  note:", note)
    return 0 if ok else 1


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
    asymptotics.stability_eta(cfg["model.eta"])
    problem, out, report = _prologue(args, "stability", cfg)
    if not report.passed:
        return 1
    params = problem.params.with_params(T=T)
    table = []
    ok = True
    tau_ratios = []
    for tau in taus:
        rows = asymptotics.stability_probe(
            problem.init, params.with_params(tau=tau), problem.bundle, problem.spec,
            deltas, constants=report.constants,
        )
        if not asymptotics.ratios_consistent(rows):
            ok = False
        tau_ratios.append(np.mean([r.ratio for r in rows]))
        for r in rows:
            table.append((tau, r.delta, r.lhs, r.rhs, r.ratio))
            print(f"tau = {tau:g}, delta = {r.delta:g}: lhs/rhs = {r.ratio:.4f}")
    if len(tau_ratios) >= 2 and max(tau_ratios) > 2.0 * min(tau_ratios):
        ok = False
        print("ratios drift across tau by more than factor 2")
    write_table(out / "stability.csv", ["tau", "delta", "lhs", "rhs", "ratio"], table)
    _write_manifest(out, "stability", args.seed,
                    ["config.resolved", "audit.txt", "stability.csv"])
    print("stability probe:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from . import verify

    cfg = load_config(args.config, args.set)
    problem = build_problem(cfg, seed=args.seed)  # surfaces configuration errors
    report = run_audit(problem.params, problem.bundle, problem.spec, problem.init)
    print(report.render(), end="")
    ok = verify.run_all()
    return 0 if (ok and report.passed) else 1


def _cmd_oracle_compare(args) -> int:
    from . import galerkin

    cfg = load_config(args.config, args.set)
    if cfg["grid.dim"] != 1:
        raise ConfigError(f"grid.dim must be 1, got {cfg['grid.dim']}: "
                          "the spectral oracle is one-dimensional")
    n, cells = cfg["oracle.modes"], cfg["grid.cells"][0]
    if not 1 <= n <= cells:
        raise ConfigError(f"oracle.modes must lie in [1, grid.cells] = [1, {cells}], got {n}")
    cfg.entries.update({
        "model.eps": 0.1, "model.tau": 0.1,
        "model.dt": _positive(cfg, "oracle.dt"), "model.T": _positive(cfg, "oracle.t"),
    })
    problem, out, report = _prologue(args, "oracle-compare", cfg)
    if not report.passed:
        return 1
    traj = run(problem.init, problem.params, problem.bundle, problem.spec,
               constants=report.constants, record_diagnostics=False)
    ts, coeffs, rel = galerkin.compare(traj, problem.bundle, problem.spec, n)
    galerkin.write_coefficients_csv(out / "oracle_coefficients.csv", ts, coeffs, n)
    _write_manifest(out, "oracle-compare", args.seed,
                    ["config.resolved", "audit.txt", "oracle_coefficients.csv"])
    ok = rel <= 5e-3
    print(f"L2(0,T;H) relative difference stepper vs oracle: {rel:.6e} "
          f"({'PASS' if ok else 'FAIL'}: threshold 5e-3)")
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
