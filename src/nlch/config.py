"""Flat key=value run configuration.

The format is one `section.key = value` pair per line, `#` comments,
blank lines ignored. Unknown keys are hard errors: there is no silent
typo tolerance. Values are typed by the schema below; lists use commas.
A parsed configuration is a plain dict from every SCHEMA key to its
typed value.
"""

import math
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .audit import GateInput, a1_coefficients, a3_sigma_s
from .errors import ConfigError
from .grid import Field, GridSpec, read_field
from .kernel import KernelSpec, build
from .model import H_FAMILIES, InitialData, ModelParams, make_smoothed_ic
from .potential import (
    double_obstacle_potential,
    logarithmic_potential,
    polynomial_potential,
)


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"{s.strip()} is not finite")
    return x


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_finite(p) for p in s.split(",") if p.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(",") if p.strip())


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    "grid.dim": (int, 1),
    "grid.extent": (_parse_floats, (1.0,)),
    "grid.cells": (_parse_ints, (256,)),
    "kernel.family": (str, "gaussian"),
    "kernel.width": (float, 1.0),
    "kernel.delta": (float, 0.1),
    "kernel.cutoff": (float, math.inf),
    "kernel.normalization": (float, 2.5),
    "kernel.table": (str, ""),
    "potential.family": (str, "polynomial"),
    "potential.theta": (float, 0.3),
    "potential.theta0": (float, 0.6),
    "potential.c": (float, 0.25),
    "potential.lambda": (float, 1e-3),
    "potential.convexity_shift": (float, 0.5),
    "model.eps": (float, 0.01),
    "model.tau": (float, 0.1),
    "model.P": (float, 0.5),
    "model.A": (float, 0.25),
    "model.B": (float, 0.5),
    "model.C": (float, 0.5),
    "model.chi": (float, 0.2),
    "model.eta": (float, 0.0),
    "model.sigma_s": (float, 0.8),
    "model.h": (str, "default"),
    "model.dt": (float, 1e-3),
    "model.T": (float, 0.25),
    "ic.family": (str, "cosine"),
    "ic.phi_mean": (_finite, 0.0),
    "ic.phi_amplitude": (_finite, 0.3),
    "ic.phi_modes": (_parse_ints, (1, 2)),
    "ic.mu_value": (_finite, 0.0),
    "ic.sigma_mean": (_finite, 0.6),
    "ic.sigma_amplitude": (_finite, 0.2),
    "ic.smooth": (float, 0.01),
    "ic.phi_file": (str, ""),
    "ic.mu_file": (str, ""),
    "ic.sigma_file": (str, ""),
    "output.dir": (str, "out"),
    "output.snapshot_stride": (int, 10),
    "sweep.values": (_parse_floats, (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)),
    "sweep.t": (float, 0.25),
    "sweep.dt": (float, 2e-4),
    "sweep.m0": (float, 100.0),
    "stability.deltas": (_parse_floats, (1e-2, 1e-3)),
    "stability.taus": (_parse_floats, (0.1, 0.01)),
    "stability.t": (float, 0.25),
    "oracle.modes": (int, 32),
    "oracle.t": (float, 0.5),
    "oracle.dt": (float, 2.5e-4),
}


def resolved_text(cfg: dict) -> str:
    """The configuration as sorted key = value lines, which parse_config reads back."""
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in sorted(cfg.items()))


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _typed(key: str, val: str, where: str):
    """The schema-typed value of one entry; ``where`` prefixes the errors."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return SCHEMA[key][0](val)
    except Exception as err:
        raise ConfigError(f"{where}: bad value for {key}: {err}") from None


def parse_config(text: str, overrides: list[str] | None = None) -> dict:
    """Parse key=value text plus --set overrides; unknown keys are errors."""
    entries = {k: v for k, (_, v) in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        entries[key] = _typed(key, val, f"line {lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, val = (p.strip() for p in item.split("=", 1))
        entries[key] = _typed(key, val, "--set")
    return entries


def _read(what: str, path: str, reader):
    """reader(path), with a missing or unparsable file as a ConfigError naming it."""
    try:
        return reader(path)
    except (OSError, ValueError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ConfigError(f"cannot read {what} {path}: {reason}") from None


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    if path is None:
        return parse_config("", overrides)
    return parse_config(_read("config", path, lambda p: Path(p).read_text()), overrides)


def build_grid(cfg: dict) -> GridSpec:
    dim = cfg["grid.dim"]
    extent = cfg["grid.extent"]
    cells = cfg["grid.cells"]
    if len(extent) == 1 and dim == 2:
        extent = extent * 2
    if len(cells) == 1 and dim == 2:
        cells = cells * 2
    return GridSpec(dim=dim, extent=extent, cells=cells)


def build_kernel_spec(cfg: dict) -> KernelSpec:
    family = cfg["kernel.family"]
    table = None
    if family == "tabulated":
        path = cfg["kernel.table"]
        if not path:
            raise ConfigError("tabulated kernel needs kernel.table = <csv path>")
        data = _read("kernel table", path, lambda p: np.loadtxt(p, delimiter=",", comments="#"))
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError("kernel table must be two-column CSV (radius, value)")
        table = (tuple(data[:, 0]), tuple(data[:, 1]))
    return KernelSpec(
        family=family,
        width=cfg["kernel.width"],
        delta=cfg["kernel.delta"],
        cutoff=cfg["kernel.cutoff"],
        normalization=cfg["kernel.normalization"],
        table=table,
    )


def build_potential(cfg: dict):
    family = cfg["potential.family"]
    if family == "polynomial":
        return polynomial_potential(shift=cfg["potential.convexity_shift"])
    if family == "logarithmic":
        return logarithmic_potential(cfg["potential.theta"], cfg["potential.theta0"])
    if family == "double-obstacle":
        return double_obstacle_potential(cfg["potential.c"])
    raise ConfigError(f"unknown potential family {family!r}")


def build_params(cfg: dict) -> ModelParams:
    h_name = cfg["model.h"]
    if h_name not in H_FAMILIES:
        raise ConfigError(f"unknown proliferation profile {h_name!r}")
    params = ModelParams(
        eps=cfg["model.eps"],
        tau=cfg["model.tau"],
        P=cfg["model.P"],
        A=cfg["model.A"],
        B=cfg["model.B"],
        C=cfg["model.C"],
        chi=cfg["model.chi"],
        eta=cfg["model.eta"],
        sigma_s=cfg["model.sigma_s"],
        h=H_FAMILIES[h_name].h,
        lam=cfg["potential.lambda"],
        dt=cfg["model.dt"],
        T=cfg["model.T"],
    )
    # the sign and range rules are rows of the gate table
    for gate in (a1_coefficients, a3_sigma_s):
        check = gate(GateInput(params))
        if not check.passed:
            raise ConfigError(f"{check.name}: {check.detail}")
    return params


def _cosine_field(grid: GridSpec, mean_value: float, amplitude: float,
                  modes: tuple[int, ...]) -> Field:
    vals = np.full(grid.size, float(mean_value))
    coords = grid.meshgrid()
    for k, m in enumerate(modes):
        axis = k % grid.dim
        x = coords[axis].reshape(-1)
        vals = vals + amplitude / (k + 1) * np.cos(m * np.pi * x / grid.extent[axis])
    return Field(grid, vals)


def standard_normals(seed: int, n: int) -> np.ndarray:
    """``n`` standard normal draws, seeded by a nonnegative ``seed``.

    Box–Muller on 53-bit uniforms from the standard library's Mersenne
    Twister, ``random.Random(seed)``, whose bytes are read as
    little-endian words. Only the cosine branch is used, so each draw
    takes two uniforms; the first lies in (0, 1], so its log is finite.
    """
    if seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {seed}")
    words = np.frombuffer(random.Random(seed).randbytes(16 * n), dtype="<u8").reshape(2, n)
    u = (words >> np.uint64(11)) * 2.0 ** -53  # [0, 1)
    return np.sqrt(-2.0 * np.log(1.0 - u[0])) * np.cos(2.0 * np.pi * u[1])


def build_initial_data(cfg: dict, grid: GridSpec, seed: int = 0) -> InitialData:
    family = cfg["ic.family"]
    if family == "file":
        fields = {}
        for name in ("phi", "mu", "sigma"):
            path = cfg[f"ic.{name}_file"]
            if not path:
                raise ConfigError(f"ic.family = file needs ic.{name}_file")
            f = _read("initial data", path, read_field)
            if f.grid != grid:
                raise ConfigError(f"ic file {path} grid does not match the run grid")
            fields[name] = f
        return InitialData(phi0=fields["phi"], mu0=fields["mu"], sigma0=fields["sigma"])
    if family == "constants":
        return InitialData(
            phi0=Field.constant(grid, cfg["ic.phi_mean"]),
            mu0=Field.constant(grid, cfg["ic.mu_value"]),
            sigma0=Field.constant(grid, cfg["ic.sigma_mean"]),
        )
    if family == "cosine":
        phi0 = _cosine_field(grid, cfg["ic.phi_mean"], cfg["ic.phi_amplitude"], cfg["ic.phi_modes"])
        sigma0 = _cosine_field(grid, cfg["ic.sigma_mean"], cfg["ic.sigma_amplitude"], (1,))
        return InitialData(
            phi0=phi0,
            mu0=Field.constant(grid, cfg["ic.mu_value"]),
            sigma0=sigma0,
        )
    if family == "random-smoothed":
        phi_noise, sigma_noise = standard_normals(seed, 2 * grid.size).reshape(2, grid.size)
        s = cfg["ic.smooth"]
        phi0 = make_smoothed_ic(Field(grid, phi_noise), s)
        phi0 = Field(grid, cfg["ic.phi_mean"] + cfg["ic.phi_amplitude"] * phi0.values
                     / max(np.max(np.abs(phi0.values)), 1e-300))
        sig_raw = make_smoothed_ic(Field(grid, sigma_noise), s)
        amp = cfg["ic.sigma_amplitude"] / max(np.max(np.abs(sig_raw.values)), 1e-300)
        sigma0 = Field(grid, np.clip(cfg["ic.sigma_mean"] + amp * sig_raw.values, 0.0, 1.0))
        return InitialData(
            phi0=phi0,
            mu0=Field.constant(grid, cfg["ic.mu_value"]),
            sigma0=sigma0,
        )
    raise ConfigError(f"unknown ic family {family!r}")


class Problem(NamedTuple):
    """Everything needed to run: grid, kernel bundle, potential, params, data."""

    grid: GridSpec
    bundle: object
    spec: object
    params: ModelParams
    init: InitialData


def build_problem(cfg: dict, seed: int = 0) -> Problem:
    grid = build_grid(cfg)
    bundle = build(build_kernel_spec(cfg), grid)
    spec = build_potential(cfg)
    params = build_params(cfg)
    init = build_initial_data(cfg, grid, seed=seed)
    return Problem(grid=grid, bundle=bundle, spec=spec, params=params, init=init)
