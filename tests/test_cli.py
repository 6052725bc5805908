import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlch.cli
import nlch.model
from nlch.cli import main
from nlch.config import (
    RunConfig,
    build_problem,
    load_config,
    parse_config,
    standard_normals,
)
from nlch.diagnostics import DiagnosticsRecord, mass_balance
from nlch.errors import ConfigError, StepError
from nlch.grid import read_field

FAST = [
    "--set", "grid.cells=64",
    "--set", "model.T=0.01",
    "--set", "model.dt=1e-3",
]


def test_parse_config_basics():
    cfg = parse_config("""
# a comment
model.eps = 0.02   # trailing comment
grid.cells = 64
ic.phi_modes = 1,3
""")
    assert cfg["model.eps"] == 0.02
    assert cfg["grid.cells"] == (64,)
    assert cfg["ic.phi_modes"] == (1, 3)

    with pytest.raises(ConfigError, match="line 2"):
        parse_config("\nnot a pair\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model.epz = 0.1\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("model.eps = abc\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("", overrides=["nope=1"])


def test_resolved_text_roundtrip():
    cfg = parse_config("")
    text = cfg.resolved_text()
    cfg2 = parse_config(text)
    assert cfg2.entries == cfg.entries


def test_build_problem_default():
    problem = build_problem(parse_config(""))
    assert problem.grid.cells == (256,)
    assert problem.bundle.a_star > 0
    assert problem.params.eps == 0.01


def test_config_rejects_bad_params():
    for line in ("model.B = -1", "model.sigma_s = 2.0", "model.sigma_s = nan",
                 "potential.family = bogus", "model.eps = nan", "model.T = inf",
                 "potential.lambda = 0", "potential.lambda = -1e-3"):
        with pytest.raises(ConfigError):
            build_problem(parse_config(line + "\n"))


def test_cli_audit_default(tmp_path, capsys):
    rc = main(["audit", "--out", str(tmp_path)] + FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert (tmp_path / "audit.txt").exists()
    assert (tmp_path / "config.resolved").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format_version"] == 1


@pytest.mark.parametrize("h, statement", [
    ("default", "range [0, 1], Lipschitz 1/2"),
    ("one", "range [1, 1], Lipschitz 0"),
    ("tanh", "range [0, 1], Lipschitz 1/2"),
])
def test_cli_audit_states_h_and_the_growth_constant_at_eps_zero(tmp_path, capsys, h, statement):
    # no golden audit has eps = 0 (where pol_growth applies) or a non-default h
    rc = main(["audit", "--out", str(tmp_path), "--set", "model.eps=0", "--set", f"model.h={h}"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"[PASS] A2 h bounded and Lipschitz: h = {h}: {statement}" in lines
    assert "[PASS] pol_growth: C_F = 1.38935" in lines


def test_cli_audit_eps_too_large(tmp_path, capsys):
    rc = main(["audit", "--out", str(tmp_path), "--set", "model.eps=0.2"] + FAST)
    assert rc == 1
    out = capsys.readouterr().out
    assert "eps < eps0" in out
    assert "FAIL" in out
    assert "0.2" in out  # offending value reported


def test_cli_audit_ip_chi_violation(tmp_path, capsys):
    rc = main(["audit", "--out", str(tmp_path), "--set", "model.tau=0",
               "--set", "model.chi=10"] + FAST)
    assert rc == 1
    out = capsys.readouterr().out
    assert "ip_chi" in out


def test_cli_unknown_key_is_config_error(tmp_path, capsys):
    rc = main(["audit", "--out", str(tmp_path), "--set", "model.typo=1"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_negative_B_exit_2(tmp_path, capsys):
    rc = main(["verify", "--set", "model.B=-0.5"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_simulate_T0(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path), "--set", "grid.cells=64",
               "--set", "model.T=0"])
    assert rc == 0
    f = read_field(tmp_path / "phi_00000.nlchf")
    assert f.grid.cells == (64,)
    assert (tmp_path / "diagnostics.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "phi_00000.nlchf" in manifest["files"]


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["simulate", "--out", str(out), "--seed", "3",
                   "--set", "ic.family=random-smoothed"] + FAST)
        assert rc == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "phi_00000.nlchf").read_bytes() == (out2 / "phi_00000.nlchf").read_bytes()
    last1 = sorted(out1.glob("phi_*.nlchf"))[-1]
    last2 = sorted(out2.glob("phi_*.nlchf"))[-1]
    assert last1.read_bytes() == last2.read_bytes()


def test_cli_negative_seed_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--out", str(out), "--seed", "-1",
               "--set", "ic.family=random-smoothed"] + FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --seed must be a nonnegative integer, got -1")
    assert not out.exists()


def test_standard_normals_are_reproducible():
    assert standard_normals(3, 257).tobytes() == standard_normals(3, 257).tobytes()
    assert not np.array_equal(standard_normals(3, 257), standard_normals(4, 257))
    assert standard_normals(3, 0).shape == (0,)


def test_standard_normals_match_scalar_box_muller():
    n = 7
    data = random.Random(5).randbytes(16 * n)
    u = [(int.from_bytes(data[8 * k:8 * k + 8], "little") >> 11) * 2.0 ** -53
         for k in range(2 * n)]
    expected = [math.sqrt(-2.0 * math.log(1.0 - u[k])) * math.cos(2.0 * math.pi * u[n + k])
                for k in range(n)]
    np.testing.assert_allclose(standard_normals(5, n), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("byte, radius", [(0x00, 0.0), (0xFF, math.sqrt(106 * math.log(2)))])
def test_standard_normals_at_the_extreme_uniforms(monkeypatch, byte, radius):
    # all-zero words give u1 = 1, all-one words u1 = 2^-53: log never sees 0
    monkeypatch.setattr(random.Random, "randbytes", lambda self, k: bytes([byte]) * k)
    z = standard_normals(0, 3)
    np.testing.assert_allclose(np.abs(z), radius, rtol=1e-12)


@pytest.mark.parametrize("seed, n", [(0, 2 ** 16), (3, 2 ** 16), (4, 2 ** 16 + 1)])
def test_standard_normals_moments(seed, n):
    # standard errors at n = 2^16: mean 0.004, variance 0.006, kurtosis 0.019
    z = standard_normals(seed, n)
    assert z.shape == (n,) and np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03
    assert abs(np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3.0) < 0.1


def test_cli_simulate_reports_the_failed_step(tmp_path, monkeypatch, capsys):
    # step 40 fails; the last snapshot (stride 25) is at t = 0.025
    original = nlch.model._step_arrays
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 40:
            raise StepError("injected failure", phase="Newton")
        return original(*args)

    monkeypatch.setattr(nlch.model, "_step_arrays", failing)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "step 40 failed in the Newton phase at t = 0.04: injected failure" in err
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 40  # header, the initial state and 39 accepted steps
    assert sorted(p.name for p in tmp_path.glob("phi_*.nlchf")) == ["phi_00000.nlchf",
                                                                   "phi_00001.nlchf"]


def test_cli_simulate_gated_on_audit(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path), "--set", "model.eps=0.2"] + FAST)
    assert rc == 1
    assert (tmp_path / "audit.txt").exists()
    assert not list(tmp_path.glob("*.nlchf"))  # no results without a passing audit


@pytest.mark.parametrize("command", ["simulate", "sweep-tau", "stability"])
def test_cli_failed_audit_writes_the_manifest(tmp_path, capsys, command):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path),
               "--set", "model.eps=0.2"] + FAST)
    assert rc == 1
    files = ["audit.txt", "config.resolved", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["files"] == files[:2]


@pytest.mark.parametrize("command", ["audit", "simulate", "sweep-eps", "sweep-tau",
                                     "sweep-joint", "stability", "verify", "oracle-compare"])
def test_cli_removed_knobs_are_rejected(tmp_path, capsys, command):
    out = [] if command == "verify" else ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *out, "--workers", "1"])
    assert exc.value.code == 2
    rc = main([command, *out, "--set", "scheme.ordering=jacobi"])
    assert rc == 2
    assert "unknown key 'scheme.ordering'" in capsys.readouterr().err
    rc = main([command, *out, "--set", "sweep.check_floor=true"])
    assert rc == 2
    assert "unknown key 'sweep.check_floor'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sweep-tau", "--snapshots", "5"], ["verify", "--out", "d"],
                                  ["simulate", "--snapshots", "5"]])
def test_cli_rejects_flags_the_command_ignores(argv):
    # no command takes --snapshots (output.snapshot_stride is the stride), and
    # verify writes no directory
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_calls_share_one_parser_and_see_only_their_own_arguments(monkeypatch):
    # argparse copies the --set default before appending, so the cached
    # parser carries nothing from one call into the next
    seen = []
    monkeypatch.setattr(nlch.cli, "_cmd_audit", lambda args: seen.append(args) or 0)
    for argv in (["--set", "model.eps=0.01", "--set", "model.tau=0.2", "--seed", "3"],
                 ["--set", "grid.cells=64"], [], ["--seed", "7"]):
        assert main(["audit", *argv]) == 0
    assert [(a.set, a.seed, a.config, a.out) for a in seen] == [
        (["model.eps=0.01", "model.tau=0.2"], 3, None, None), (["grid.cells=64"], 0, None, None),
        ([], 0, None, None), ([], 7, None, None)]
    assert nlch.cli._parser() is nlch.cli._parser()


@pytest.mark.parametrize("setting, message", [
    ("model.newton_tol=1e-8", "unknown key 'model.newton_tol'"),
    ("model.newton_cap=10", "unknown key 'model.newton_cap'"),
    ("output.csv=false", "unknown key 'output.csv'"),
    ("output.snapshot_stride=0", "output.snapshot_stride must be >= 1, got 0"),
    ("output.snapshot_stride=-3", "output.snapshot_stride must be >= 1, got -3"),
])
def test_cli_simulate_rejects_removed_and_invalid_settings(tmp_path, capsys, setting, message):
    # the Newton tolerance and cap are model constants, simulate always writes
    # its CSVs, and a stride below 1 is refused rather than read as 1
    rc = main(["simulate", "--out", str(tmp_path), "--set", setting] + FAST)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("case", ["config", "kernel-table-missing", "kernel-table-unparsable",
                                  "ic-file-missing", "ic-file-magic-only"])
def test_cli_unreadable_files_are_configuration_errors(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    unparsable = tmp_path / "table.csv"
    unparsable.write_text("a,b\n")
    magic_only = tmp_path / "magic.nlchf"
    magic_only.write_bytes(b"NLCHF1")
    tabulated = ["--set", "kernel.family=tabulated", "--set"]
    ic_file = ["--set", "ic.family=file", "--set"]
    path, argv = {
        "config": (missing, ["--config", str(missing)]),
        "kernel-table-missing": (missing, tabulated + [f"kernel.table={missing}"]),
        "kernel-table-unparsable": (unparsable, tabulated + [f"kernel.table={unparsable}"]),
        "ic-file-missing": (missing, ic_file + [f"ic.phi_file={missing}"]),
        "ic-file-magic-only": (magic_only, ic_file + [f"ic.phi_file={magic_only}"]),
    }[case]
    rc = main(["simulate", "--out", str(tmp_path / "out")] + argv + FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(path) in err


@pytest.mark.parametrize("name, settings", [
    ("tabulated", ["kernel.family=tabulated", "kernel.table={table}"]),
    ("newtonian", ["kernel.family=newtonian", "kernel.delta=0.1", "kernel.cutoff=0.5",
                   "kernel.normalization=1.0", "model.eps=0.001"]),
    ("h-one", ["model.h=one"]),
    ("h-tanh", ["model.h=tanh"]),
    ("random-smoothed", ["ic.family=random-smoothed", "ic.smooth=0.02"]),
    ("random-smoothed-2d", ["ic.family=random-smoothed", "ic.smooth=0.02",
                            "grid.dim=2", "grid.cells=32"]),
])
def test_cli_simulate_runs_each_advertised_family(tmp_path, name, settings):
    # the shipped eps = 0.01 fails eps < eps0 for the newtonian kernel
    table = tmp_path / "kernel.csv"
    radii = np.linspace(0.0, 1.5, 16)
    np.savetxt(table, np.column_stack([radii, np.exp(-radii ** 2)]), delimiter=",",
               header="radius,value")
    argv = ["simulate", "--out", str(tmp_path / "out"), "--set", "model.T=0.01"]
    for item in settings:
        argv += ["--set", item.format(table=table)]
    assert main(argv) == 0
    assert len((tmp_path / "out" / "diagnostics.csv").read_text().splitlines()) == 1 + 11


@pytest.mark.parametrize("command", ["sweep-eps", "sweep-joint"])
def test_cli_barrier_well_sweep_is_a_configuration_error(tmp_path, capsys, command):
    # the eps = 0 limit system fails the pol_growth row of the gate table
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path),
               "--set", "potential.family=logarithmic"] + FAST)
    assert rc == 2
    assert "configuration error: pol_growth: logarithmic potential" in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("command, setting, message", [
    ("sweep-eps", "model.tau=0", "tau > 0: eps sweep needs fixed tau > 0"),
    ("sweep-tau", "model.eps=0", "eps > 0: tau sweep needs fixed eps > 0"),
])
def test_cli_sweep_needs_its_fixed_parameter_positive(tmp_path, capsys, command, setting,
                                                      message):
    # the relaxation parameter a limit does not zero is held fixed, and must be > 0;
    # the configuration says so before any file is written
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path), "--set", setting,
               "--set", "grid.cells=32", "--set", "sweep.t=0.002", "--set", "sweep.dt=5e-4"])
    assert rc == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_stability_smoke(tmp_path, capsys):
    rc = main([
        "stability", "--out", str(tmp_path),
        "--set", "grid.cells=64",
        "--set", "stability.t=0.02",
        "--set", "stability.taus=0.1,0.05",
        "--set", "model.eta=0",
    ])
    assert rc == 0
    assert (tmp_path / "stability.csv").exists()
    out = capsys.readouterr().out
    assert "lhs/rhs" in out


@pytest.mark.parametrize("setting, message", [
    ("stability.deltas=0", "stability.deltas needs a nonzero delta"),
    ("stability.deltas=", "stability.deltas needs a nonzero delta"),
    ("stability.taus=", "stability.taus needs at least one tau"),
])
def test_cli_stability_with_nothing_to_probe_is_a_configuration_error(tmp_path, capsys,
                                                                       setting, message):
    # a probe of no delta or no tau would otherwise pass on an empty stability.csv
    rc = main(["stability", "--out", str(tmp_path), "--set", setting])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize("setting, message", [
    ("sweep.values=", "sweep needs at least one value"),
    ("sweep.values=1e-2,1e-9", "sweep values must be >= 1e-8"),
    ("sweep.values=1e-3,1e-2", "sweep values must be strictly decreasing"),
])
def test_cli_bad_sweep_values_are_rejected_before_any_file(tmp_path, capsys, setting, message):
    # the values used to be checked only after the audit was written
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    out = tmp_path / "run"
    rc = main(["sweep-tau", "--config", str(cfg), "--out", str(out), "--set", setting])
    assert rc == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_overflowing_step_fails_without_numpy_warnings(tmp_path):
    # the inf residual norm is reported as the failed step, not also as a RuntimeWarning
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "nlch.cli", "simulate", "--config", str(root / "configs" / "default.cfg"),
         "--set", "model.P=1e300", "--out", str(tmp_path)],
        cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "step 1 failed in the Newton phase" in done.stderr
    assert "not finite (inf)" in done.stderr
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("command, setting", [
    ("sweep-tau", "sweep.t=0"),
    ("sweep-eps", "sweep.t=-0.1"),
    ("stability", "stability.t=0"),
    ("oracle-compare", "oracle.t=0"),
    ("sweep-tau", "sweep.dt=0"),
    ("sweep-joint", "sweep.dt=-0.001"),
    ("oracle-compare", "oracle.dt=0"),
    ("sweep-tau", "sweep.t=inf"),
    ("sweep-tau", "sweep.dt=inf"),
    ("stability", "stability.t=inf"),
    ("oracle-compare", "oracle.t=inf"),
    ("oracle-compare", "oracle.dt=inf"),
])
def test_cli_zero_horizons_are_configuration_errors(tmp_path, capsys, command, setting):
    # a run of no time compares initial data alone: sweep-tau fitted a rate to
    # it, stability read a ratio of 1 and oracle-compare crashed in the
    # integrator; a step of no time fails the same way, before any file; an
    # infinite horizon or step used to fail only after the audit was written
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path), "--set", setting])
    assert rc == 2
    key, value = setting.split("=")
    assert f"{key} must be finite and > 0, got {float(value)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, setting, message", [
    ("sweep-eps", "potential.family=logarithmic", "pol_growth: logarithmic potential has a "
     "bounded barrier domain; the growth condition requires D(dF1) = R"),
    ("sweep-tau", "model.chi=5", "ip_chi: chi = 5 vs sqrt(c_a) = 1"),
    ("sweep-tau", "sweep.m0=1e-6", "init-boundedness: monitored quantity tau^1/2 |phi0|_V + "
     "|F(phi0)|_L1 = 0.323681 exceeds M0 = 1e-06"),
    ("stability", "stability.taus=0.1,1.5", "tau < tau0 = 1: tau = 1.5"),
], ids=["eps-pol_growth", "tau-ip_chi", "tau-m0", "stability-tau0"])
def test_cli_runs_a_gate_refuses_write_nothing(tmp_path, capsys, command, setting, message):
    # the audit passes, and the sweep's limit system or its M0 monitor, or the
    # probe at one tau, is refused; each used to leave a passing audit.txt, and
    # stability ran and printed tau = 0.1 before refusing tau = 1.5
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path), "--set", setting,
               "--set", "grid.cells=64", "--set", "stability.t=0.02"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert f"configuration error: {message}" in err
    assert out == ""  # no audit report and no lhs/rhs line
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("settings, message", [
    (["grid.dim=2", "grid.cells=32"], "grid.dim must be 1, got 2"),
    (["oracle.modes=0"], "oracle.modes must lie in [1, grid.cells] = [1, 256], got 0"),
    (["grid.cells=16"], "oracle.modes must lie in [1, grid.cells] = [1, 16], got 32"),
])
def test_cli_oracle_settings_are_checked_before_the_run(tmp_path, capsys, settings, message):
    # each used to fail only after the stepper had run, the 2D one for seconds
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main(["oracle-compare", "--config", str(cfg), "--out", str(tmp_path)]
              + [arg for s in settings for arg in ("--set", s)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("amplitude", [0.999, 0.9999])
def test_cli_simulate_steps_next_to_the_barrier(tmp_path, amplitude):
    # the logarithmic well's stepper converges from data within 1e-3 and 1e-4
    # of the barrier, conserves mass and keeps every state inside (-1, 1)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "separation.cfg"
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
               "--set", "grid.cells=64", "--set", "model.T=0.02",
               "--set", f"ic.phi_amplitude={amplitude}"])
    assert rc == 0
    rows = np.genfromtxt(tmp_path / "diagnostics.csv", delimiter=",", names=True)
    assert len(rows) == 21
    assert (rows["phi_supnorm"] < 1.0).all()
    assert mass_balance([DiagnosticsRecord(*row) for row in rows.tolist()])[0]
    assert (rows["newton_iters"] < nlch.model.NEWTON_CAP).all()


def test_cli_stability_runs_the_configured_eta(tmp_path, capsys):
    # the stability estimate needs eta = 0; a configured eta > 0 is refused,
    # not silently replaced by 0, and before any file is written
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path),
               "--set", "model.eta=0.1"])
    assert rc == 2
    assert "eta = 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_audit_fails_the_dominance_row(tmp_path, capsys):
    # a_* = 0.428 leaves C0 = a_* + F''(0) = -0.572 on the default quartic well
    rc = main(["audit", "--out", str(tmp_path), "--set", "kernel.normalization=0.5"])
    assert rc == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] A5 dominance a_* + F'' >= C0 > 0: A5-dominance: a_* + F''(r) "
                      "has nonpositive infimum -0.571804 at r = 0"]
    text = (tmp_path / "audit.txt").read_text()
    assert not any(line.startswith("constants:") for line in text.splitlines())
    assert text.endswith("verdict: FAIL\n")


def test_cli_audit_rows_reading_c0_are_not_applicable_when_a5_fails(tmp_path, capsys):
    # eps < eps0 and ip_chi (at tau = 0) read C0: with A5 failing they
    # decide nothing, and render as not applicable rather than as passes
    rc = main(["audit", "--out", str(tmp_path), "--set", "kernel.normalization=0.5",
               "--set", "model.tau=0"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] A5 dominance a_* + F'' >= C0 > 0: A5-dominance: a_* + F''(r) "
        "has nonpositive infimum -0.571804 at r = 0"]
    assert "[N/A ] eps < eps0: not applicable (C0 <= 0 fails A5 dominance)" in lines
    assert "[N/A ] ip_chi: not applicable (C0 <= 0 fails A5 dominance)" in lines
    assert not any("skipped" in line for line in lines)


def test_cli_sweep_smoke(tmp_path, capsys):
    rc = main([
        "sweep-eps", "--out", str(tmp_path),
        "--set", "grid.cells=64",
        "--set", "sweep.values=3e-2,1e-2,3e-3",
        "--set", "sweep.t=0.02",
        "--set", "sweep.dt=1e-3",
        "--set", "model.eta=0",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "fitted slope" in out
    assert (tmp_path / "rates.csv").exists()


def test_shipped_configs_audit_clean(tmp_path):
    # audit.txt is byte-identical to the golden file of each shipped config,
    # and of one failing case
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    golden = Path(__file__).resolve().parent / "golden"
    cases = [(cfg, cfg.stem, [], 0) for cfg in sorted(cfg_dir.glob("*.cfg"))]
    cases.append((cfg_dir / "default.cfg", "default-eps0.2", ["--set", "model.eps=0.2"], 1))
    for cfg, name, extra, expected_rc in cases:
        out = tmp_path / name
        rc = main(["audit", "--config", str(cfg), "--out", str(out)] + extra)
        assert rc == expected_rc, name
        assert (out / "audit.txt").read_bytes() == (golden / f"audit-{name}.txt").read_bytes(), name


@pytest.mark.parametrize("name, cfg, extra", [
    ("default", "default.cfg", []),
    ("separation", "separation.cfg", []),
    ("double-obstacle", "default.cfg", ["--set", "potential.family=double-obstacle"]),
])
def test_simulate_diagnostics_match_golden(tmp_path, name, cfg, extra):
    # the golden rows were written before the stepper's hot path was trimmed;
    # only the polynomial well's F1' = r*r*r (within 1 ulp of r**3) may move
    # the last bits, so default.cfg is compared to 1e-12 and the rest exactly
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    golden = Path(__file__).resolve().parent / "golden" / f"diagnostics-{name}.csv"
    rc = main(["simulate", "--config", str(cfg_dir / cfg), "--out", str(tmp_path),
               "--set", "model.T=0.05"] + extra)
    assert rc == 0
    out = tmp_path / "diagnostics.csv"
    if name != "default":
        assert out.read_bytes() == golden.read_bytes()
        return
    got = np.genfromtxt(out, delimiter=",", names=True)
    want = np.genfromtxt(golden, delimiter=",", names=True)
    assert got.dtype.names == want.dtype.names and got.shape == want.shape == (51,)
    for col in want.dtype.names:
        assert np.max(np.abs(got[col] - want[col])) <= 1e-12, col
    assert np.array_equal(got["newton_iters"], want["newton_iters"])


@pytest.mark.parametrize("command, files", [
    ("sweep-eps", {"rates.csv": "rates-eps.csv", "distances.csv": "distances-eps.csv"}),
    ("sweep-tau", {"rates.csv": "rates-tau.csv", "distances.csv": "distances-tau.csv"}),
    ("sweep-joint", {"rates.csv": "rates-joint.csv", "distances.csv": "distances-joint.csv"}),
    ("stability", {"stability.csv": "stability-rate-study.csv"}),
])
def test_sweep_outputs_match_golden(tmp_path, command, files):
    # short horizons on rate-study.cfg; every file is compared byte for byte
    cfg = Path(__file__).resolve().parents[1] / "configs" / "rate-study.cfg"
    golden = Path(__file__).resolve().parent / "golden"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path),
               "--set", "grid.cells=64", "--set", "sweep.t=0.01",
               "--set", "sweep.dt=5e-4", "--set", "stability.t=0.02"])
    assert rc == 0
    for name, golden_name in files.items():
        assert (tmp_path / name).read_bytes() == (golden / golden_name).read_bytes(), name


def test_cli_oracle_compare_smoke(tmp_path, capsys):
    rc = main([
        "oracle-compare", "--out", str(tmp_path),
        "--set", "grid.cells=128",
        "--set", "kernel.width=3.0",
        "--set", "kernel.normalization=2.05",
        "--set", "oracle.modes=12",
        "--set", "oracle.t=0.1",
        "--set", "oracle.dt=5e-4",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "stepper vs oracle" in out
    assert (tmp_path / "oracle_coefficients.csv").exists()


def test_cli_oracle_compare_on_the_defaults_fails_the_eps_row(tmp_path, capsys):
    # the command fixes eps = 0.1, which the default kernel does not admit
    rc = main(["oracle-compare", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] eps < eps0: eps = 0.1 vs 0.9 * eps0 = 0.0599116"]
    assert not (tmp_path / "oracle_coefficients.csv").exists()


def test_cli_verify_subcommand(capsys):
    rc = main(["verify", "--set", "grid.cells=64"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "all properties hold" in out


def test_cli_file_ic_roundtrip(tmp_path):
    # export snapshots from one run, feed them back as file ICs
    src = tmp_path / "src"
    rc = main(["simulate", "--out", str(src), "--set", "grid.cells=64",
               "--set", "model.T=0"])
    assert rc == 0
    rc = main([
        "audit", "--out", str(tmp_path / "re"),
        "--set", "grid.cells=64",
        "--set", "ic.family=file",
        "--set", f"ic.phi_file={src / 'phi_00000.nlchf'}",
        "--set", f"ic.mu_file={src / 'phi_00000.nlchf'}",
        "--set", f"ic.sigma_file={src / 'sigma_00000.nlchf'}",
    ])
    assert rc == 0
