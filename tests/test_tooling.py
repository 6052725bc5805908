"""The benchmark tracer must keep finding every call site it patches."""

import importlib
from pathlib import Path

import nlch.grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {name: nlch.grid.__dict__[name] for name in ("_cg_solve", "cg", "norm_vstar")}
    # a call site that a refactor removed raises KeyError here
    with tracing.Tracer().installed():
        assert nlch.grid._cg_solve is not originals["_cg_solve"]
    for name, fn in originals.items():
        assert nlch.grid.__dict__[name] is fn
