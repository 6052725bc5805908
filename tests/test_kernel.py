import numpy as np
import pytest
import scipy.fft

import nlch.kernel
from nlch.errors import ConfigError, DimensionError
from nlch.grid import Field, GridSpec, inner_h, norm_h
from nlch.kernel import (
    KernelSpec,
    build,
    convolve,
    convolve_direct,
    epsilon_zero,
    nonlocal_energy_density,
)


def brute_force_convolve(spec, grid, values):
    """Independent oracle: explicit double loop over cell centers."""
    coords = np.stack([c.reshape(-1) for c in grid.meshgrid()], axis=1)
    out = np.zeros(grid.size)
    for i in range(grid.size):
        r = np.sqrt(np.sum((coords[i] - coords) ** 2, axis=1))
        out[i] = np.sum(spec.profile(r) * values) * grid.cell_volume
    return out


def brute_force_energy(spec, grid, values):
    coords = np.stack([c.reshape(-1) for c in grid.meshgrid()], axis=1)
    total = 0.0
    for i in range(grid.size):
        r = np.sqrt(np.sum((coords[i] - coords) ** 2, axis=1))
        total += np.sum(spec.profile(r) * (values[i] - values) ** 2) * grid.cell_volume**2
    return 0.25 * total


_FAMILIES = [
    KernelSpec("gaussian", width=0.3, normalization=1.5),
    KernelSpec("newtonian", delta=0.05, cutoff=0.4, normalization=0.7),
    KernelSpec("tabulated", table=((0.0, 0.2, 0.5, 1.0), (2.0, 1.2, 0.4, 0.1))),
]


@pytest.mark.parametrize("spec", _FAMILIES, ids=lambda s: s.family)
@pytest.mark.parametrize(
    "cells", [(256,), (64,), (50,), (70,), (100,), (24, 16), (36, 50)], ids=str)
def test_numpy_fft_plan_is_bitwise_the_scipy_plan(monkeypatch, spec, cells):
    # each batched row is bitwise its own call. A 1D plan built and applied
    # with scipy.fft's transforms in place of numpy's gives the same bits;
    # in 2D numpy's irfftn differs from scipy's in the last bits, so the
    # plan is checked against the direct quadrature instead
    grid = GridSpec(len(cells), (1.0,) * len(cells), cells)
    rng = np.random.default_rng(7)
    rows = [rng.standard_normal(grid.size), rng.uniform(-1.0, 1.0, grid.size),
            np.ones(grid.size), 1e-3 * rng.standard_normal(grid.size)]
    batch = np.stack(rows)
    bundle = build(spec, grid)
    numpy_plan = bundle.fast
    got = [numpy_plan.apply(v) for v in rows]
    for a, b in zip(got, numpy_plan.apply(batch)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    if len(cells) == 2:
        for v, a in zip(rows, got):
            direct = convolve_direct(bundle, Field(grid, v)).values
            assert np.max(np.abs(a - direct)) <= 1e-12
        return
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(nlch.kernel, name, getattr(scipy.fft, name))
    scipy_plan = build(spec, grid).fast
    want = [scipy_plan.apply(v) for v in rows] + [scipy_plan.apply(batch)]
    for a, b in zip(got + [numpy_plan.apply(batch)], want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_next_fast_len_is_scipys():
    ns = range(1, 5001)
    assert [nlch.kernel.next_fast_len(n) for n in ns] == [scipy.fft.next_fast_len(n) for n in ns]


def test_a_field_is_convolved_one(grid64):
    spec = KernelSpec("gaussian", width=0.3, normalization=1.5)
    b = build(spec, grid64)
    ones = Field.constant(grid64, 1.0)
    assert np.max(np.abs(convolve(b, ones).values - b.a_field.values)) <= 1e-12


def test_zero_normalization(grid64):
    b = build(KernelSpec("gaussian", width=0.3, normalization=0.0), grid64)
    assert np.all(b.a_field.values == 0.0)
    assert b.a_star == 0.0 and b.a_sup == 0.0 and b.b_sup == 0.0
    assert b.c_a == 1.0


def test_omega_restriction_brute_force():
    # zero extension outside the domain, checked against a literal double sum
    for dim, cells in ((1, (16,)), (2, (8, 8))):
        grid = GridSpec(dim, (1.0,) * dim, cells)
        spec = KernelSpec("gaussian", width=0.3, normalization=1.3)
        b = build(spec, grid)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(grid.size)
        expected = brute_force_convolve(spec, grid, v)
        got = convolve(b, Field(grid, v)).values
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_1d_convolution_equals_the_padded_rfftn_path_bitwise(grid256):
    from scipy.fft import irfftn, rfftn

    b = build(KernelSpec("gaussian", width=0.3, normalization=1.5), grid256)
    fast = b.fast
    v = np.random.default_rng(4).standard_normal(grid256.size)
    vpad = np.zeros(fast._pad)
    vpad[:grid256.size] = v
    shift = grid256.size - 1
    expected = irfftn(rfftn(vpad) * fast._khat, s=fast._pad)[shift:shift + grid256.size]
    assert np.array_equal(b.convolve_array(v), expected)


def test_convolve_basics(grid64):
    b = build(KernelSpec("gaussian", width=0.3, normalization=1.5), grid64)
    zero = Field.constant(grid64, 0.0)
    assert np.all(convolve(b, zero).values == 0.0)

    rng = np.random.default_rng(2)
    v = Field(grid64, rng.standard_normal(grid64.size))
    w = Field(grid64, rng.standard_normal(grid64.size))
    assert inner_h(convolve(b, v), w) == pytest.approx(inner_h(v, convolve(b, w)), abs=1e-11)

    c = Field.constant(grid64, -1.7)
    assert np.max(np.abs(convolve(b, c).values + 1.7 * b.a_field.values)) <= 1e-12

    other = GridSpec(1, (1.0,), (32,))
    with pytest.raises(DimensionError):
        convolve(b, Field.constant(other, 1.0))


def test_energy_density(grid64):
    spec = KernelSpec("gaussian", width=0.3, normalization=1.5)
    b = build(spec, grid64)
    assert nonlocal_energy_density(b, Field.constant(grid64, 2.0)) == pytest.approx(0.0, abs=1e-12)
    assert nonlocal_energy_density(b, Field.constant(grid64, 0.0)) == 0.0

    grid32 = GridSpec(1, (1.0,), (32,))
    b32 = build(spec, grid32)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(32)
    assert nonlocal_energy_density(b32, Field(grid32, v)) == pytest.approx(
        brute_force_energy(spec, grid32, v), abs=1e-10
    )
    # lower bound (a_* - a^*)/2 ||phi||^2
    f = Field(grid32, v)
    assert nonlocal_energy_density(b32, f) >= (b32.a_star - b32.a_sup) / 2 * norm_h(f) ** 2 - 1e-12


class _FakeBundle:
    def __init__(self, a_sup, b_sup, c_a):
        self.a_sup, self.b_sup, self.c_a = a_sup, b_sup, c_a


def test_epsilon_zero_formula():
    e = epsilon_zero(_FakeBundle(a_sup=1.0, b_sup=0.0, c_a=1.0), C0=1.0)
    assert e.branch_ca == pytest.approx(0.25)
    assert e.branch_astar == pytest.approx(1.0)
    assert e.branch_k0 == pytest.approx(2.0 / 3.0)
    assert e.value == pytest.approx(0.25)

    # large C0: the c_a branch is the binding one
    big = epsilon_zero(_FakeBundle(a_sup=1.0, b_sup=0.0, c_a=1.0), C0=100.0)
    assert big.value == pytest.approx(big.branch_ca)

    with pytest.raises(ConfigError):
        epsilon_zero(_FakeBundle(1.0, 0.0, 1.0), C0=0.0)


def test_kernel_families():
    grid = GridSpec(1, (1.0,), (64,))
    with pytest.raises(ConfigError):
        KernelSpec("newtonian", delta=0.0)
    newt = build(KernelSpec("newtonian", delta=0.05, cutoff=0.5, normalization=0.2), grid)
    assert np.isfinite(newt.a_sup) and newt.a_star >= 0.0
    assert newt.c_a >= 1.0

    radii = np.linspace(0.0, 1.5, 40)
    vals = np.exp(-radii)
    tab = KernelSpec("tabulated", table=(tuple(radii), tuple(vals)), normalization=1.0)
    assert tab.is_radially_nonincreasing()
    bt = build(tab, grid)
    ones = Field.constant(grid, 1.0)
    assert np.max(np.abs(convolve(bt, ones).values - bt.a_field.values)) <= 1e-12

    with pytest.raises(ConfigError):
        KernelSpec("tabulated", table=((0.0, 0.1), (1.0,)))
    with pytest.raises(ConfigError, match="unknown kernel family 'unknown-family'"):
        KernelSpec("unknown-family")


def test_bundle_constants_sane(bundle_wide):
    assert bundle_wide.c_a == max(bundle_wide.a_sup - bundle_wide.a_star, 1.0)
    assert bundle_wide.a_star > 0
    assert bundle_wide.a_sup >= bundle_wide.a_star
