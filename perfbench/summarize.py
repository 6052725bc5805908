"""Summarize the result files of ``run.py`` per workload: medians and quartiles.

    python3 perfbench/summarize.py > perfbench/baseline.json

Reads every ``perfbench/results/<workload>-seed<n>-trace<t>.json`` and
prints, per workload, the median, quartiles and run count of each
end-to-end metric (untraced runs) and of each per-layer metric (traced
runs), failures counted by operation, exit code and error class, and
the environment of the first run.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def _summary(values: list[float]) -> dict:
    """Median and quartiles over runs; a run that had no finite value is skipped."""
    values = [v for v in values if v is not None and math.isfinite(v)]
    if not values:
        return {"median": None, "runs": 0}
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def summarize(results_dir: Path = RESULTS) -> dict:
    runs: dict[str, dict[int, list[dict]]] = {}
    for path in sorted(results_dir.glob("*-seed*-trace[01].json")):
        result = json.loads(path.read_text())
        env = result["environment"]
        runs.setdefault(env["workload"], {0: [], 1: []})[env["trace"]].append(result)
    out = {}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = by_trace[trace]
            if not results:
                continue
            names = [k for k, v in results[0][key].items() if isinstance(v, (int, float))]
            entry[key] = {
                "seeds": sorted(r["environment"]["seed"] for r in results),
                "metrics": {n: _summary([r[key][n] for r in results]) for n in names},
                "attempted": sum(len(r["ops"]) for r in results),
                "failures": dict(Counter(
                    f"{f['name']}: exit {f['exit_code']} {f['error_class']}"
                    for r in results for f in r["failures"])),
            }
        first = (by_trace[0] or by_trace[1])[0]["environment"]
        entry["environment"] = {k: v for k, v in first.items() if k not in ("seed", "trace")}
        out[workload] = entry
    return out


if __name__ == "__main__":
    json.dump(summarize(Path(sys.argv[1]) if len(sys.argv) > 1 else RESULTS),
              sys.stdout, indent=1)
    sys.stdout.write("\n")
