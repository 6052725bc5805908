"""Each command imports only the scipy submodules it runs.

Every nlch command starts a fresh interpreter, so start-up is paid per
command. scipy.integrate (which loads scipy.optimize), scipy.fft and
scipy.special are imported on first use; each check runs in a new
interpreter, since this test process has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special")


def _fresh(code):
    """Run ``code`` in a new interpreter on the source tree; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(argv=None):
    """[exit code, deferred modules loaded] after importing nlch.cli and running ``argv``."""
    return _fresh(
        "import contextlib, io, json, sys\n"
        "import nlch.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = 0 if {argv!r} is None else nlch.cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {DEFERRED!r} if m in sys.modules]]))\n")


def test_import_loads_no_deferred_scipy_module():
    assert _loaded_after() == [0, []]


def test_1d_cosine_simulate_loads_no_deferred_scipy_module(tmp_path):
    argv = ["simulate", "--config", str(ROOT / "configs" / "default.cfg"),
            "--set", "model.T=0.01", "--out", str(tmp_path)]
    assert _loaded_after(argv) == [0, []]


def test_oracle_compare_loads_scipy_integrate(tmp_path):
    argv = ["oracle-compare", "--config", str(ROOT / "configs" / "rate-study.cfg"),
            "--set", "oracle.t=0.002", "--out", str(tmp_path)]
    code, loaded = _loaded_after(argv)
    assert code == 0 and "scipy.integrate" in loaded
