"""Each command imports only the modules it runs, on one BLAS thread.

Every nlch command starts a fresh interpreter, so start-up is paid per
command. Importing nlch sets OPENBLAS_NUM_THREADS=1 before numpy loads,
unless the caller set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS or imported numpy first, so numpy's OpenBLAS and the
copy in scipy's _flapack start no worker thread. nlch's own oracle and
property suite, nlch.galerkin and nlch.verify, are imported by the two
commands that run them: oracle-compare loads nlch.galerkin, verify
loads both; the sweeps and stability load nlch.asymptotics, whose
sweep-<mode> commands cli names itself, one per key of
asymptotics.LIMITS. nlch's records are NamedTuples or __slots__
classes, which are built without generating code, so no 1D command but
verify loads dataclasses. The modules that define NamedTuples, but
nlch.audit, whose GateInput names imports made only for type checkers,
evaluate their annotations at import, so typing compiles no ForwardRef
when it builds a record. No command calls numpy's LAPACK (the module
numpy.linalg._umath_linalg, behind np.roots and np.linalg.lstsq): the
growth constant and the rate fit are closed forms, and the only LAPACK
a command runs is scipy's. No 1D command but verify loads a scipy
package: nlch.grid loads LAPACK's compiled _flapack module alone, not
scipy.linalg, whose
import pulls in scipy._lib._array_api and with it numpy.f2py, and the
oracle's BDF integrator runs on that module's getrf/getrs.
scipy.integrate (which loads scipy.optimize) and scipy.fft are imported
on first use. A 2D run loads one scipy package, scipy.fft, for the
DCT preconditioner of its CG, with what it imports (scipy.special,
scipy._lib._array_api, numpy.random): its convolution and its CG are
numpy code, so neither scipy.sparse nor scipy.linalg is loaded. Nor
does a 1D command load numpy.random: random-smoothed data is drawn from
the standard library's random.Random, so numpy.random's import of
secrets, and through hmac of OpenSSL's _hashlib, is not paid. Each
check runs in a new interpreter, since this test process has loaded
these modules already.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special",
            "scipy.linalg", "scipy.sparse", "scipy._lib._array_api", "numpy.f2py",
            "numpy.random", "secrets", "_hashlib", "dataclasses", "nlch.asymptotics",
            "nlch.galerkin", "nlch.verify")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code, **env_vars):
    """Run ``code`` in a new interpreter on the source tree; its last stdout line as JSON.

    The child's environment has none of the BLAS thread variables but those
    in ``env_vars``, so a setting of the calling shell cannot mask nlch's default.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | env_vars
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


COMMANDS_1D = [
    pytest.param(["audit", "--config", "default.cfg"], [], id="audit"),
    pytest.param(["simulate", "--config", "default.cfg"], [], id="simulate-default"),
    pytest.param(["simulate", "--config", "separation.cfg"], [], id="simulate-separation"),
    pytest.param(["simulate", "--config", "rate-study.cfg"], [], id="simulate-rate-study"),
    pytest.param(["simulate", "--config", "default.cfg",
                  "--set", "potential.family=double-obstacle"], [], id="simulate-double-obstacle"),
    pytest.param(["simulate", "--config", "default.cfg",
                  "--set", "ic.family=random-smoothed"], [], id="simulate-random-smoothed"),
    *(pytest.param([f"sweep-{mode}", "--config", "rate-study.cfg", "--set", "sweep.t=0.002"],
                   ["nlch.asymptotics"], id=f"sweep-{mode}") for mode in ("eps", "tau", "joint")),
    pytest.param(["stability", "--config", "rate-study.cfg", "--set", "stability.t=0.002"],
                 ["nlch.asymptotics"], id="stability"),
    pytest.param(["oracle-compare", "--config", "rate-study.cfg", "--set", "oracle.t=0.002"],
                 ["nlch.galerkin"], id="oracle-compare"),
]
SHORT_1D = ["--set", "grid.cells=64", "--set", "model.T=0.01", "--set", "sweep.dt=5e-4"]


def _short_1d(argv, out):
    return [str(CONFIGS / a) if a.endswith(".cfg") else a for a in argv] + SHORT_1D \
        + ["--out", str(out)]


@pytest.mark.parametrize("argv, loaded", COMMANDS_1D)
def test_1d_commands_load_no_deferred_module(tmp_path, argv, loaded):
    # but the one deferred to the command itself: oracle-compare runs
    # nlch.galerkin, the sweeps and stability nlch.asymptotics
    assert _loaded_after(_short_1d(argv, tmp_path)) == [0, loaded]


def test_no_command_calls_numpys_lapack(tmp_path):
    # numpy.linalg reaches LAPACK through _umath_linalg alone; a stub that
    # raises on any attribute access makes each call of it an error
    ids = [p.id for p in COMMANDS_1D] + ["simulate-2d"]
    runs = [_short_1d(p.values[0], tmp_path / p.id) for p in COMMANDS_1D]
    runs.append(["simulate", "--config", str(CONFIGS / "default.cfg"), "--set", "grid.dim=2",
                 "--set", "grid.cells=16", "--set", "model.T=0.01",
                 "--out", str(tmp_path / "simulate-2d")])
    codes = _fresh(
        "import contextlib, io, json\n"
        "import numpy.linalg._linalg\n"
        "class NoLapack:\n"
        "    def __getattribute__(self, name):\n"
        "        raise RuntimeError(f'numpy LAPACK called: {name}')\n"
        "numpy.linalg._linalg._umath_linalg = NoLapack()\n"
        "import nlch.cli\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            codes.append(nlch.cli.main(argv))\n"
        "    except Exception as err:\n"
        "        codes.append(repr(err))\n"
        "print(json.dumps(codes))\n")
    assert dict(zip(ids, codes)) == dict.fromkeys(ids, 0)


def test_the_parser_names_one_sweep_command_per_limit():
    # cli names the sweep-* commands itself, so it need not import nlch.asymptotics
    import nlch.asymptotics
    import nlch.cli

    sub = next(a for a in nlch.cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [c for c in sub.choices if c.startswith("sweep-")] \
        == [f"sweep-{mode}" for mode in nlch.asymptotics.LIMITS]


RECORD_MODULES = ("asymptotics", "config", "diagnostics", "galerkin", "kernel", "model",
                  "potential")


def test_record_annotations_are_not_strings():
    # a string field annotation is compiled into a ForwardRef when the record is built
    records = {name: [obj for obj in vars(importlib.import_module(f"nlch.{name}")).values()
                      if isinstance(obj, type) and issubclass(obj, tuple)
                      and hasattr(obj, "_fields") and obj.__module__ == f"nlch.{name}"]
               for name in RECORD_MODULES}
    assert all(records.values())
    assert [f"{r.__qualname__}.{field}" for found in records.values() for r in found
            for field, kind in r.__annotations__.items() if isinstance(kind, str)] == []


def test_verify_loads_the_oracle_and_the_property_suite():
    code, loaded = _loaded_after(["verify", "--set", "grid.cells=64"])
    assert code == 0 and {"nlch.galerkin", "nlch.verify"} <= set(loaded)


def test_2d_simulate_loads_scipy_fft_only(tmp_path):
    argv = ["simulate", "--config", str(CONFIGS / "default.cfg"), "--set", "grid.dim=2",
            "--set", "grid.cells=32", "--set", "model.T=0.01", "--out", str(tmp_path)]
    code, loaded = _loaded_after(argv)
    assert code == 0 and "scipy.fft" in loaded
    assert "scipy.sparse" not in loaded and "scipy.linalg" not in loaded
    assert "nlch.galerkin" not in loaded and "nlch.verify" not in loaded


def test_2d_convolution_loads_no_scipy_package():
    # the convolution plan is numpy's rfftn/irfftn on every grid
    assert _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from nlch.grid import GridSpec\n"
        "from nlch.kernel import KernelSpec, build\n"
        "grid = GridSpec(2, (1.0, 1.0), (24, 16))\n"
        "build(KernelSpec('gaussian', width=0.3), grid).convolve_array(np.ones((2, grid.size)))\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n") == []


def test_grid_dgtsv_is_scipy_lapack_dgtsv():
    # whichever of nlch.grid and scipy.linalg comes first, both hold one function
    for first, second in (("nlch.grid", "scipy.linalg"), ("scipy.linalg", "nlch.grid")):
        assert _fresh(f"import json, {first}, {second}\n"
                      "print(json.dumps(nlch.grid.dgtsv is scipy.linalg.lapack.dgtsv))\n"), first


def _blas_after_import(first="", **env_vars):
    """[BLAS thread variables, OS threads or None, _flapack loaded] after ``first`` and nlch."""
    return _fresh(
        f"import json, os, sys\n{first}import nlch\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        f"blas = {{k: os.environ[k] for k in {BLAS_THREAD_VARS!r} if k in os.environ}}\n"
        "print(json.dumps([blas, threads, 'scipy.linalg._flapack' in sys.modules]))\n",
        **env_vars)


def test_import_starts_one_blas_thread():
    blas, threads, flapack = _blas_after_import()
    assert blas == {"OPENBLAS_NUM_THREADS": "1"} and flapack
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1  # neither numpy's OpenBLAS nor _flapack's started a worker


@pytest.mark.parametrize("first, env_vars", [
    pytest.param("", {"OPENBLAS_NUM_THREADS": "2"}, id="openblas-set"),
    pytest.param("", {"OMP_NUM_THREADS": "2"}, id="omp-set"),
    pytest.param("", {"GOTO_NUM_THREADS": "2"}, id="goto-set"),
    pytest.param("import numpy\n", {}, id="numpy-first"),
])
def test_a_callers_blas_setting_or_numpy_is_left_alone(first, env_vars):
    blas, _, _ = _blas_after_import(first, **env_vars)
    assert blas == env_vars
