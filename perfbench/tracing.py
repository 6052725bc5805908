"""Span tracing for the nlch benchmark, installed from outside the package.

The nlch modules import names directly (``from .grid import norm_vstar``),
so a layer is traced by replacing the name in every namespace that calls
it, not only where it is defined. ``Tracer.installed()`` swaps in timing
wrappers and puts the originals back on exit, so untraced operations run
the unmodified code.

Each span records its name, start, end, parent span, operation id and
self time (its duration minus the time covered by its child spans).
Spans stay in memory and are written out once, after the timed loop.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import os
import time
from collections import defaultdict

# span name -> (module, attribute) call sites that receive the wrapper
SITES = {
    "config.build_problem": [("nlch.cli", "build_problem")],
    "audit.audit": [("nlch.cli", "run_audit")],
    "model.derive_constants": [("nlch.cli", "derive_constants"),
                               ("nlch.model", "derive_constants"),
                               ("nlch.audit", "derive_constants"),
                               ("nlch.asymptotics", "derive_constants")],
    "model.run": [("nlch.cli", "run"), ("nlch.asymptotics", "run")],
    "model.step": [("nlch.model", "_step_arrays")],
    "grid.solve_shifted_diffusion": [("nlch.model", "solve_shifted_diffusion")],
    "grid.norm_vstar": [("nlch.grid", "norm_vstar"),
                        ("nlch.diagnostics", "norm_vstar"),
                        ("nlch.asymptotics", "norm_vstar")],
    "grid.cg": [("nlch.grid", "_cg_solve")],
    "potential.resolvent": [("nlch.potential", "_resolvent_newton")],
    "kernel.convolve": [("nlch.kernel", "_FastConvolution.apply")],
    "diagnostics.make_record": [("nlch.diagnostics", "make_record")],
    "diagnostics.distance": [("nlch.asymptotics", "distance")],
    "asymptotics.sweep": [("nlch.asymptotics", "sweep")],
    "galerkin.integrate": [("nlch.galerkin", "integrate")],
    "galerkin.ode_rhs": [("nlch.galerkin", "ode_rhs")],
    "io.write": [("nlch.cli", "write_field"),
                 ("nlch.cli", "write_field_csv"),
                 ("nlch.diagnostics", "write_diagnostics_csv"),
                 ("nlch.diagnostics", "write_distances_csv"),
                 ("nlch.asymptotics", "write_rates_csv"),
                 ("nlch.galerkin", "write_coefficients_csv")],
}

# scipy's cg as nlch.grid calls it: counted per iteration through its
# callback, without a span of its own (the grid.cg span encloses it)
CG_ITERATION_SITE = ("nlch.grid", "cg")

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "self_s")


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children]

    def _wrap(self, name, fn, after=None, failures=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failures is not None:
                    counts[failures] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (label, start, end, parent, self.op,
                                   end - start - frame[1])
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrapper_for(self, name, fn):
        """The traced replacement of ``fn``, with the counters its layer needs."""
        counts = self.counts
        if name == "grid.cg":
            # a solve that misses its residual target raises SolverError
            return self._wrap(name, fn, failures="grid.cg.failures")
        if name == "potential.resolvent":
            return self._wrap(lambda a: f"potential.resolvent.{a[0].family}", fn)
        if name == "model.step":
            def count_newton(args, kwargs, result):
                counts["model.step.newton_iters"] += result[4].newton_iters
            return self._wrap(name, fn, count_newton)
        if name == "io.write":
            def count_bytes(args, kwargs, result):
                counts["io.write.bytes"] += os.path.getsize(args[0])
            return self._wrap(name, fn, count_bytes)
        return self._wrap(name, fn)

    def _counting_cg(self, cg):
        """scipy's cg with an iteration-counting callback chained in front."""
        counts = self.counts

        def counted(*args, callback=None, **kwargs):
            def count_iteration(xk):
                counts["grid.cg.iters"] += 1
                if callback is not None:
                    callback(xk)
            return cg(*args, callback=count_iteration, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Replace every call site in SITES with its traced wrapper."""
        saved = []

        def patch(module_name, attr, make):
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, make(original))

        try:
            for name, sites in SITES.items():
                for module_name, attr in sites:
                    patch(module_name, attr, lambda fn: self._wrapper_for(name, fn))
            patch(*CG_ITERATION_SITE, self._counting_cg)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Span count and summed self time per span name."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _start, _end, _parent, _op, self_s in self.spans:
            totals[name]["calls"] += 1
            totals[name]["self_s"] += self_s
        return totals

    def write(self, path):
        """Write the spans as CSV, one row per span; ``parent`` is a row index."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            out.writerows(self.spans)
