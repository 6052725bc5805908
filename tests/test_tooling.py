"""The benchmark tracer must keep finding every call site it patches, the
README must keep listing every configuration key and module constant as
the code has them, and no module of the package may import a name it
does not use."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import nlch.grid
from nlch.asymptotics import SweepPlan
from nlch.cli import main
from nlch.config import SCHEMA, build_problem, load_config
from nlch.diagnostics import write_diagnostics_csv
from nlch.model import StepOutcome, _derive, _lockstep, _step_arrays, run
from nlch.potential import yosida_with_derivative

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_and_restores_every_site(monkeypatch):
    tracing = _tracing(monkeypatch)
    originals = {name: nlch.grid.__dict__[name] for name in ("_cg_solve", "cg", "norm_vstar")}
    # a call site that a refactor removed raises KeyError here
    with tracing.Tracer().installed():
        assert nlch.grid._cg_solve is not originals["_cg_solve"]
    for name, fn in originals.items():
        assert nlch.grid.__dict__[name] is fn


def test_tracer_only_imports_are_traced_call_sites(monkeypatch):
    # an import kept only for the tracer must name a (module, attribute) pair
    # that SITES patches; once the tracer patches elsewhere, the import is dead
    tracing = _tracing(monkeypatch)
    patched = {site for sites in tracing.SITES.values() for site in sites}
    marked = re.compile(r"^from \S+ import (.+?)  # noqa: F401  (?:(.+): )?a traced call site$")
    found = []
    for path in sorted((ROOT / "src" / "nlch").glob("*.py")):
        for line in path.read_text().splitlines():
            if "traced call site" not in line:
                continue
            match = marked.match(line)
            assert match, f"{path.name}: unparsed tracer import {line!r}"
            names = match.group(2) or match.group(1)
            found += [(f"nlch.{path.stem}", name.strip()) for name in names.split(",")]
    assert found
    assert [site for site in found if site not in patched] == []


def test_cli_compares_against_no_float_literal():
    # every pass/fail threshold is a constant of the module that computes the
    # number it judges; a float in one of the CLI's comparisons, directly,
    # inside arithmetic or through a local name, is a verdict decided twice
    found = []
    for fn in ast.walk(ast.parse((ROOT / "src" / "nlch" / "cli.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        assigned = {target.id: node.value for node in ast.walk(fn) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}

        def floats(node, seen=()):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                    yield sub.value
                elif isinstance(sub, ast.Name) and sub.id in assigned and sub.id not in seen:
                    yield from floats(assigned[sub.id], (*seen, sub.id))

        found += [(fn.name, value) for node in ast.walk(fn) if isinstance(node, ast.Compare)
                  for operand in (node.left, *node.comparators) for value in floats(operand)]
    assert found == []


def test_structural_tolerances_are_compared_only_in_diagnostics():
    # each structural rule is written once, in nlch.diagnostics; elsewhere a
    # tolerance may name itself in a message, never in an order comparison
    names = {"MASS_BALANCE_TOL", "LYAPUNOV_TOL", "MAX_PRINCIPLE_TOL", "SEPARATION_MARGIN"}
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    owner = ROOT / "src" / "nlch" / "diagnostics.py"
    found = []
    for path in sorted([*(ROOT / "src" / "nlch").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        if path == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Compare) and any(isinstance(op, order) for op in node.ops)):
                continue
            named = {getattr(sub, "id", getattr(sub, "attr", None))
                     for operand in (node.left, *node.comparators) for sub in ast.walk(operand)}
            if named & names:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_package_modules_use_every_import():
    # module-level imports only; a line marked "# noqa: F401" is a traced call
    # site, which test_tracer_only_imports_are_traced_call_sites checks
    unused = []
    for path in sorted((ROOT / "src" / "nlch").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module_level = [top for top in tree.body
                        if not isinstance(top, (ast.FunctionDef, ast.ClassDef))]
        imports = [node for top in module_level for node in ast.walk(top)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _assert_one_resolvent_span_per_newton_iterate(monkeypatch, config, family):
    tracing = _tracing(monkeypatch)
    problem = build_problem(load_config(str(ROOT / "configs" / config), ["model.T=0.02"]))
    with tracing.Tracer().installed() as tracer:
        traj = run(problem.init, problem.params, problem.bundle, problem.spec)
    newton_iters = sum(rec.newton_iters for rec in traj.records)
    labels = [span[0] for span in tracer.spans]
    assert labels.count(f"potential.resolvent.{family}") == newton_iters + 1
    assert tracer.layer_totals()["model.step"]["calls"] == 20


def test_tracer_sees_one_polynomial_resolvent_per_newton_iterate(monkeypatch):
    # the closed-form root still goes through _resolvent_newton, so the
    # per-layer resolvent metrics keep counting real calls
    _assert_one_resolvent_span_per_newton_iterate(monkeypatch, "default.cfg", "polynomial")


def test_tracer_sees_one_logarithmic_resolvent_per_newton_iterate(monkeypatch):
    # the logarithmic iteration's early return on a converged residual
    # still leaves one span per Newton iterate
    _assert_one_resolvent_span_per_newton_iterate(monkeypatch, "separation.cfg", "logarithmic")


def test_traced_lockstep_sweep_counts_every_rows_newton_iterations(monkeypatch, tmp_path):
    # the benchmark's sweep-tau settings: the dt/2 floor takes 20 steps of
    # its own, the limit reference and the five members 10 lockstep steps
    tracing = _tracing(monkeypatch)
    settings = ["grid.cells=64", "sweep.t=0.004", "sweep.dt=4e-4"]
    cfg = load_config(str(ROOT / "configs" / "rate-study.cfg"), settings)
    with tracing.Tracer().installed() as tracer:
        rc = main(["sweep-tau", "--config", str(ROOT / "configs" / "rate-study.cfg"),
                   "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)])
    assert rc == 0
    assert tracer.layer_totals()["model.step"]["calls"] == 30

    # each run alone records its own per-step iteration counts
    problem = build_problem(cfg)
    plan = SweepPlan(mode="tau", values=cfg["sweep.values"],
                     base_params=problem.params.with_params(T=cfg["sweep.t"], dt=cfg["sweep.dt"]),
                     init=problem.init, bundle=problem.bundle, spec=problem.spec)
    limit = plan.limit_params()
    runs = [(plan.init, limit), (plan.init, limit.with_params(dt=limit.dt / 2.0))]
    runs += [(init, params) for _, params, init in plan.members]
    per_row = sum(rec.newton_iters for init, params in runs
                  for rec in run(init, params, plan.bundle, plan.spec, validate=False).records)
    assert tracer.counts["model.step.newton_iters"] == per_row


def test_traced_internals_keep_their_contract(monkeypatch):
    # perfbench/tracing.py reads .newton_iters off item 4 of what
    # _step_arrays returns, and wraps diagnostics.make_record, which
    # run_rows calls once per block of recorded states
    problem = build_problem(load_config(str(ROOT / "configs" / "default.cfg"), ["model.T=0.05"]))
    params, bundle, spec = problem.params, problem.bundle, problem.spec
    phi, mu, sig = (f.values for f in (problem.init.phi0, problem.init.mu0, problem.init.sigma0))
    rows = _lockstep([params])
    out = _step_arrays(phi, mu, sig, bundle.convolve_array(phi),
                       yosida_with_derivative(spec, params.lam_eff, phi), rows, bundle, spec,
                       _derive(phi, mu, rows, bundle))
    assert isinstance(out[4], StepOutcome) and out[4].newton_iters >= 1
    assert all(isinstance(v, np.ndarray) for v in out[:3])

    tracing = _tracing(monkeypatch)
    with tracing.Tracer().installed() as tracer:
        traj = run(problem.init, params, bundle, spec, snapshot_stride=25)
    totals = tracer.layer_totals()
    # states 0-50, cut at the snapshots 0, 25 and 50 and after 8 states
    assert totals["diagnostics.make_record"]["calls"] == 9
    assert totals["model.step"]["calls"] == 50
    assert tracer.counts["model.step.newton_iters"] == sum(r.newton_iters for r in traj.records)


def test_tracer_counts_cg_iterations_through_the_first_use_import(monkeypatch):
    # nlch.grid._cg_solve calls the batched CG through the module attribute
    # nlch.grid.cg, so the tracer's iteration counter, which wraps that
    # attribute, sees each batched iteration
    tracing = _tracing(monkeypatch)
    problem = build_problem(load_config(str(ROOT / "configs" / "default.cfg"), [
        "grid.dim=2", "grid.extent=1.0,1.0", "grid.cells=12,12", "model.T=0.002"]))
    with tracing.Tracer().installed() as tracer:
        run(problem.init, problem.params, problem.bundle, problem.spec)
    solves = tracer.layer_totals()["grid.cg"]["calls"]
    assert solves > 0 and tracer.counts["grid.cg.iters"] >= solves


def test_readme_configuration_list_is_the_schema():
    # every key in README's Configuration list, spelled out, and no other
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    keys = re.findall(r"`([a-z]+\.[A-Za-z0-9_]+)`", "\n".join(items))
    assert sorted(keys) == sorted(SCHEMA)


def test_readme_module_constants_are_the_code():
    # every `nlch.<module>.<NAME> = <value>` of README's paragraph of module
    # constants is an attribute of that module with that value
    text = (ROOT / "README.md").read_text()
    paragraph = text.split("\nSettings that no run varies", 1)[1].split("\n\n", 1)[0]
    settings = [item for item in re.findall(r"`([^`]*)`", paragraph) if "=" in item]
    assert settings
    for item in settings:
        match = re.fullmatch(r"nlch\.(\w+)\.(\w+)\s*=\s*(.+)", item, flags=re.S)
        assert match, item
        module, name, value = match.groups()
        assert getattr(importlib.import_module(f"nlch.{module}"), name) == ast.literal_eval(value), item


def test_readme_diagnostics_columns_are_the_written_header(tmp_path):
    # README's diagnostics.csv entry lists the header write_diagnostics_csv writes
    text = (ROOT / "README.md").read_text()
    item = re.search(r"^- `diagnostics\.csv`: per step (`[^`]*`)", text, flags=re.M).group(1)
    write_diagnostics_csv(tmp_path / "d.csv", [])
    header = (tmp_path / "d.csv").read_text().splitlines()[0]
    assert re.sub(r"\s+", "", item.strip("`")) == header
