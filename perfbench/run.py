"""End-to-end benchmark of the nlch command line, with a traced per-layer run.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload simulate-1d --seed 1 --seconds 10 --trace 0

Every operation is one ``nlch`` command, called in-process through
``nlch.cli.main(argv)`` with a fresh ``--out`` directory. The load is a
closed loop: one client runs the commands back to back, as a command-line
user waits for each result. Sweep members run with the default single
worker. Each operation's output is checked at the tolerances the package
states; an operation that exits non-zero or fails a check counts as
failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation once untraced and once traced, and prints the per-layer numbers
(per traced operation) plus the tracing overhead. The last line of standard
output is one JSON object; a fuller record, with the run environment, every
operation and, for traced runs, every span, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
RESULTS = HERE / "results"
WORK = HERE / "work"

# The structural tolerances the package gates on (ROADMAP "Correctness").
MASS_BALANCE_TOL = 1e-12
MAX_PRINCIPLE_TOL = 1e-10  # tolerance of diagnostics.theorem_probe_max_principle
SEPARATION_MARGIN = 1e-3
SLOPE_MARGIN = 0.05  # the CLI passes a sweep when slope >= theoretical - 0.05
ORACLE_GAP_TOL = 5e-3

SETUP_SAMPLES = 7  # fresh interpreters timed per untraced run


class CheckFailed(Exception):
    """An operation exited 0 but its output broke a structural check."""


# ---------------------------------------------------------------- workloads
#
# A workload is a cycle of operations. Runs execute whole cycles only, so
# every run has the same mix of commands and the medians compare like with
# like. Each operation gets its own initial data, drawn from the workload
# seed.

def random_smoothed_ic(rng: random.Random) -> list[str]:
    """The package's seeded rough initial data."""
    return ["--set", "ic.family=random-smoothed", "--seed", str(rng.randrange(2 ** 31))]


def cosine_ic(rng: random.Random) -> list[str]:
    """The shipped cosine initial data, its amplitudes and means perturbed.

    The rate and oracle gates hold for smooth data; rough random data at
    these short horizons has not reached the asymptotic rate.
    """
    return ["--set", f"ic.phi_mean={rng.uniform(-0.05, 0.05):.6f}",
            "--set", f"ic.phi_amplitude={rng.uniform(0.15, 0.25):.6f}",
            "--set", f"ic.sigma_mean={rng.uniform(0.55, 0.65):.6f}",
            "--set", f"ic.sigma_amplitude={rng.uniform(0.15, 0.25):.6f}"]


SIM_1D = [
    ("default", ["simulate", "--config", "default.cfg"]),
    ("separation", ["simulate", "--config", "separation.cfg"]),
    ("double-obstacle", ["simulate", "--config", "default.cfg",
                         "--set", "potential.family=double-obstacle"]),
]
GRID_2D = ["--set", "grid.dim=2", "--set", "grid.cells=64", "--set", "model.T=0.01"]
SIM_2D = [(name, args + GRID_2D) for name, args in SIM_1D[:2]] + [
    ("rate-study", ["simulate", "--config", "rate-study.cfg"] + GRID_2D)]
SWEEP_TAU = [("sweep-tau", ["sweep-tau", "--config", "rate-study.cfg",
                            "--set", "sweep.t=0.004", "--set", "sweep.dt=4e-4"])]
ORACLE = [("oracle", ["oracle-compare", "--config", "rate-study.cfg", "--set", "oracle.t=0.01"])]

# name -> (cycle of (op name, CLI argv), initial data)
WORKLOADS = {
    # Newton stepping, resolvent solves, make_record and snapshot I/O; per-op
    # set-up is a large share. The double-obstacle op bypasses the resolvent
    # Newton iteration.
    "simulate-1d": (SIM_1D, random_smoothed_ic),
    # The two rate commands in one cycle. The sweep is dominated by dual
    # norms (distance -> norm_vstar -> CG) and has no Galerkin and no
    # make_record; the oracle comparison is the only command reaching
    # galerkin, with RK45 right-hand sides and the resolvent inside them.
    "rates": (SWEEP_TAU + ORACLE, cosine_ic),
    # Each rate command alone, to look at one layer at a time.
    "sweep-tau": (SWEEP_TAU, cosine_ic),
    "oracle": (ORACLE, cosine_ic),
    # The only one reaching the 2D CG path of solve_shifted_diffusion and
    # the 2D FFT convolution. On the package as it stands every op fails
    # with "SolverError: CG stalled", so this workload is run by name to
    # track that defect and is not listed in BENCHMARK.json, whose
    # workloads must pass.
    "simulate-2d": (SIM_2D, random_smoothed_ic),
}


def iter_ops(workload: str, seed: int):
    """The workload's endless sequence of operations, as (name, CLI argv)."""
    cycle, initial_data = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        for name, args in cycle:
            args = [str(CONFIGS / a) if a.endswith(".cfg") else a for a in args]
            yield name, [*args, *initial_data(rng)]


# ------------------------------------------------------------------- checks

def _read_csv(path: Path) -> tuple[list[dict], dict]:
    """Data rows and the ``# key,value`` footer of a CSV written by nlch."""
    data, footer = [], {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, value = line[1:].strip().split(",", 1)
                footer[key] = value
            else:
                data.append(line)
    return list(csv.DictReader(data)), footer


def check_simulate(name: str, argv: list[str], out: Path, stdout: str):
    from nlch.config import load_config

    cfg = load_config(argv[argv.index("--config") + 1],
                      [argv[i + 1] for i, a in enumerate(argv) if a == "--set"])
    rows, _ = _read_csv(out / "diagnostics.csv")
    n_steps = max(1, round(cfg["model.T"] / cfg["model.dt"]))
    if len(rows) != n_steps + 1:
        raise CheckFailed(f"diagnostics.csv has {len(rows)} rows, expected {n_steps + 1}")
    mass = max(float(r["mass_balance_residual"]) for r in rows)
    if not mass <= MASS_BALANCE_TOL:
        raise CheckFailed(f"mass balance residual {mass:.3e} > {MASS_BALANCE_TOL:g}")
    if cfg["model.eta"] == 0.0:
        lo = min(float(r["sigma_min"]) for r in rows)
        hi = max(float(r["sigma_max"]) for r in rows)
        if not (lo >= -MAX_PRINCIPLE_TOL and hi <= 1.0 + MAX_PRINCIPLE_TOL):
            raise CheckFailed(f"maximum principle: sigma in [{lo:.3e}, {hi:.3e}]")
    if name == "separation":
        sup = max(float(r["phi_supnorm"]) for r in rows)
        if not sup < 1.0 - SEPARATION_MARGIN:
            raise CheckFailed(f"separation: sup |phi| = {sup:.6f} >= {1 - SEPARATION_MARGIN}")
    return {"mass_balance_max": mass}


def check_sweep(name: str, argv: list[str], out: Path, stdout: str):
    _, footer = _read_csv(out / "rates.csv")
    if "fitted_slope" not in footer:
        raise CheckFailed("rates.csv has no fitted slope")
    slope = float(footer["fitted_slope"])
    target = float(footer["theoretical_slope"]) - SLOPE_MARGIN
    if not slope >= target:
        raise CheckFailed(f"fitted slope {slope:.4f} < {target:.2f}")
    if footer.get("monotone_ok") != "1" or footer.get("incomplete") != "0":
        raise CheckFailed(f"monotone_ok = {footer.get('monotone_ok')}, "
                          f"incomplete = {footer.get('incomplete')}")
    return {"fitted_slope": slope}


def check_oracle(name: str, argv: list[str], out: Path, stdout: str):
    marker = "relative difference stepper vs oracle:"
    lines = [ln for ln in stdout.splitlines() if marker in ln]
    if not lines:
        raise CheckFailed("oracle-compare printed no gap")
    gap = float(lines[-1].split(marker)[1].split()[0])
    if not gap <= ORACLE_GAP_TOL:
        raise CheckFailed(f"oracle gap {gap:.3e} > {ORACLE_GAP_TOL:g}")
    if not (out / "oracle_coefficients.csv").is_file():
        raise CheckFailed("oracle_coefficients.csv missing")
    return {"oracle_gap": gap}


CHECKS = {"simulate": check_simulate, "sweep-tau": check_sweep, "oracle-compare": check_oracle}


# ---------------------------------------------------------------- operation

class Runner:
    """Runs one CLI operation at a time and records how it ended."""

    HANDLERS = ("_cmd_simulate", "_sweep_command", "_cmd_oracle_compare")

    def __init__(self):
        import nlch.cli

        self.cli = nlch.cli
        self.error_class = None
        # cli.main turns package errors into an exit code; these wrappers on
        # the command handlers keep the class of the error that escaped.
        for attr in self.HANDLERS:
            setattr(nlch.cli, attr, self._recording(getattr(nlch.cli, attr)))

    def _recording(self, handler):
        def recorded(*args):
            try:
                return handler(*args)
            except Exception as err:
                self.error_class = type(err).__name__
                raise
        return recorded

    def run(self, name: str, argv: list[str]) -> dict:
        """Run one op; returns its record with wall and CPU seconds and outcome."""
        out = Path(tempfile.mkdtemp(prefix="op-", dir=WORK))
        stdout, stderr = io.StringIO(), io.StringIO()
        self.error_class = None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                cpu0, t0 = time.process_time(), time.perf_counter()
                try:
                    code = self.cli.main([*argv, "--out", str(out)])
                except Exception as err:  # noqa: BLE001 - record, keep the loop going
                    code, self.error_class = None, type(err).__name__
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            record = {"name": name, "argv": argv, "wall_s": wall, "cpu_s": cpu,
                      "exit_code": code, "error_class": self.error_class, "ok": False}
            if code == 0:
                try:
                    record["checked"] = CHECKS[argv[0]](name, argv, out, stdout.getvalue())
                    record["ok"] = True
                except CheckFailed as err:
                    record["error_class"], record["check"] = "CheckFailed", str(err)
            else:
                record["stderr_tail"] = stderr.getvalue()[-400:]
            return record
        finally:
            shutil.rmtree(out, ignore_errors=True)


# ------------------------------------------------------------------ metrics

def tail_percentile(walls: list[float]):
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(walls)
    if n < 20:  # with fewer samples that percentile lies below the median
        return None, None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


def build_problems(workload: str, seed: int):
    """Build each distinct problem of the workload once and derive its constants."""
    from nlch.config import build_problem, load_config
    from nlch.model import derive_constants

    for _, argv in itertools.islice(iter_ops(workload, seed), len(WORKLOADS[workload][0])):
        sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
        ic_seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
        problem = build_problem(load_config(argv[argv.index("--config") + 1], sets), seed=ic_seed)
        derive_constants(problem.bundle, problem.spec)


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing nlch and building the problems.

    Import can happen once per process, so each sample is a new process.
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.import_nlch(); run.build_problems({workload!r}, {seed})")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def end_to_end(records: list[dict], timed_wall: float, cpu: float,
               setup_samples: list[float]) -> dict:
    walls = [r["wall_s"] if r["ok"] else math.inf for r in records]
    passed = sum(r["ok"] for r in records)
    pct, tail = tail_percentile(walls)
    return {
        "ops_per_s": passed / timed_wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "op_tail_percentile": pct,
        "cpu_per_op_s": cpu / len(records),
        "fail_frac": (len(records) - passed) / len(records),
        "samples": len(records),
    }


# The bounded metrics of BENCHMARK.json; the rest of end_to_end() goes to
# the results file.
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "calls": "count/op", "self_s": "s/op", "iters": "count/op", "iters_per_solve": "count",
    "failures": "count/op", "newton_iters": "count/op", "resolvent_per_newton": "ratio",
    "newton_per_step": "count", "bytes": "B/op", "overhead_frac": "ratio",
}


def per_layer(tracer, n_ops: int, overhead: float) -> dict:
    """Per traced operation: calls, self time and counts of each layer."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(name):
        return totals[name]["self_s"] if name in totals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("grid.cg", "grid.norm_vstar", "grid.solve_shifted_diffusion",
                 "model.derive_constants", "audit.audit", "potential.resolvent.polynomial",
                 "potential.resolvent.logarithmic", "model.step", "diagnostics.make_record",
                 "diagnostics.distance", "galerkin.integrate", "galerkin.ode_rhs",
                 "kernel.convolve", "io.write"):
        m[f"{name}.calls"] = calls(name) / n_ops
        m[f"{name}.self_s"] = self_s(name) / n_ops
    for name in ("config.build_problem", "model.run", "asymptotics.sweep"):
        m[f"{name}.self_s"] = self_s(name) / n_ops
    m["grid.cg.iters"] = counts["grid.cg.iters"] / n_ops
    m["grid.cg.iters_per_solve"] = ratio(counts["grid.cg.iters"], calls("grid.cg"))
    m["grid.cg.failures"] = counts["grid.cg.failures"] / n_ops
    resolvents = calls("potential.resolvent.polynomial") + calls("potential.resolvent.logarithmic")
    m["potential.resolvent_per_newton"] = ratio(resolvents, counts["model.step.newton_iters"])
    m["model.step.newton_iters"] = counts["model.step.newton_iters"] / n_ops
    m["model.newton_per_step"] = ratio(counts["model.step.newton_iters"], calls("model.step"))
    m["io.write.bytes"] = counts["io.write.bytes"] / n_ops
    m["trace.overhead_frac"] = overhead
    return m


# -------------------------------------------------------------- environment

def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import nlch
    import numpy
    import scipy

    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(),
        "nlch": nlch.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "loadavg_at_start": os.getloadavg(),
        "load": "closed loop, one client, ops back to back, --workers 1",
    }


# --------------------------------------------------------------------- main

def import_nlch():
    """Import nlch from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nlch
    import nlch.cli  # noqa: F401 - pulls in every module a command uses

    if src.resolve() not in Path(nlch.__file__).resolve().parents:
        raise ImportError(f"nlch imported from {nlch.__file__}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_nlch()
    except ImportError as err:
        print(f"cannot import nlch from this checkout: {err}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    runner = Runner()
    cycle_len = len(WORKLOADS[args.workload][0])
    # Set-up is sampled in fresh interpreters spread over the run, so one
    # slow stretch of a shared machine does not set the median.
    setup_samples = [] if args.trace else [setup_sample(args.workload, args.seed)]
    setup_every = args.seconds / (SETUP_SAMPLES - 1)

    # Warm-up: the first cycle fills lazy imports and caches; it is checked
    # and counted in attempted/failed, but not timed.
    ops = iter_ops(args.workload, args.seed)
    warmup = [runner.run(*next(ops)) for _ in range(cycle_len)]

    tracer = None
    records, traced_records = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    while time.perf_counter() - t0 < args.seconds:
        for _ in range(cycle_len):
            name, op_argv = next(ops)
            records.append(runner.run(name, op_argv))
            if tracer is not None:
                tracer.op = len(traced_records)
                with tracer.installed():
                    traced_records.append(runner.run(name, op_argv))
        if (tracer is None and len(setup_samples) < SETUP_SAMPLES
                and time.perf_counter() - t0 >= len(setup_samples) * setup_every):
            setup_samples.append(setup_sample(args.workload, args.seed))
    # Set-up samples taken inside the window are not operation time.
    timed_wall = time.perf_counter() - t0 - sum(setup_samples[1:])
    cpu = time.process_time() - cpu0

    all_records = warmup + records + traced_records
    failed = [r for r in all_records if not r["ok"]]
    result = {"environment": env, "setup_samples_s": setup_samples,
              "failures": failed, "ops": all_records}
    if tracer is None:
        e2e = end_to_end(records, timed_wall, cpu, setup_samples)
        result["end_to_end"] = e2e
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
        tail = ("n/a" if e2e["op_tail_s"] is None
                else f"{e2e['op_tail_s']:.4f} s (p{e2e['op_tail_percentile']:.0f})")
        summary = (f"{e2e['samples']} timed ops, op_p50 {e2e['op_p50_s']:.4f} s, "
                   f"op_tail {tail}, fail_frac {e2e['fail_frac']:.3f}, "
                   f"ops/s {e2e['ops_per_s']:.4f}")
    else:
        overhead = (sum(r["wall_s"] for r in traced_records)
                    / sum(r["wall_s"] for r in records) - 1.0)
        layers = per_layer(tracer, len(traced_records), overhead)
        result["per_layer"] = layers
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
                   for k, v in layers.items()}
        summary = (f"{len(traced_records)} traced ops, {len(tracer.spans)} spans, "
                   f"overhead {overhead:+.3f}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.csv")

    print(f"{args.workload} seed {args.seed}: {summary}")
    for r in failed:
        print(f"  failed {r['name']}: exit {r['exit_code']} {r['error_class']} "
              f"{r.get('check', '')}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": _finite(v["value"]), "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


def _finite(x):
    """JSON has no infinity: an op median over mostly failed ops prints null."""
    return x if math.isfinite(x) else None


if __name__ == "__main__":
    sys.exit(main())
