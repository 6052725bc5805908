"""The benchmark tracer must keep finding every call site it patches."""

import importlib
from pathlib import Path

import nlch.grid
from nlch.config import build_problem, load_config
from nlch.model import run

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
