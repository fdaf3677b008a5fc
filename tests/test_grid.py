"""Grid, transform, and norm tests.

Expected values are either definitional or computed with independent
quadrature/direct-sum oracles written inline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylab.grid import (
    Field,
    _from_spectrum,
    _spectrum,
    apply_bessel,
    inverse,
    l2_norm,
    make_grid,
    sobolev_norm,
    tail_mass_fraction,
    transform,
    weighted_pairing,
)


def test_make_grid_nodes_and_frequencies():
    g = make_grid(1, np.pi, 8)
    assert np.allclose(g.x_axis, -np.pi + (np.pi / 4) * np.arange(8))
    assert np.array_equal(np.sort(g.k_int), np.arange(-4, 4))
    assert np.allclose(np.sort(g.xi_axis), np.arange(-4, 4))


def test_make_grid_rejects_odd_N():
    with pytest.raises(ValueError):
        make_grid(1, np.pi, 7)


@pytest.mark.parametrize("bad", [dict(n=3, L=1.0, N=16), dict(n=1, L=-1.0, N=16), dict(n=1, L=1.0, N=4)])
def test_make_grid_rejects_invalid(bad):
    with pytest.raises(ValueError):
        make_grid(**bad)


def test_make_grid_2d():
    g = make_grid(2, 10.0, 64)
    assert g.shape == (64, 64)
    assert np.isclose(g.xi_axis[1] - g.xi_axis[0], np.pi / 10.0)
    assert g.dense_eligible  # 64^4 = 2^24 entries


def test_dense_eligibility_cap():
    assert make_grid(1, np.pi, 4096).dense_eligible
    assert make_grid(1, np.pi, 8192).dense_eligible  # 8192^2 == 2^26 exactly
    assert not make_grid(1, np.pi, 16384).dense_eligible
    assert not make_grid(2, np.pi, 128).dense_eligible  # 128^4 == 2^28


def test_transform_constant():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.ones_like(x))
    uhat = transform(u).coeffs
    k0 = np.argwhere(g.k_int == 0).item()
    assert np.isclose(uhat[k0], 2 * np.pi)
    rest = np.delete(uhat, k0)
    assert np.max(np.abs(rest)) < 1e-12


def test_transform_plane_wave():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(3j * x))
    uhat = transform(u).coeffs
    k3 = np.argwhere(g.k_int == 3).item()
    assert np.isclose(uhat[k3], 2 * np.pi)
    rest = np.delete(uhat, k3)
    assert np.max(np.abs(rest)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.sampled_from([1, 2]))
def test_transform_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    g = make_grid(n, 2.5, 16)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u = Field(g, vals)
    back = inverse(transform(u))
    err = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
    assert err < 1e-12


CACHED_MESHES = (
    "x_axis",
    "k_int",
    "xi_axis",
    "x_mesh",
    "xi_mesh",
    "x_radius",
    "xi_norm",
    "bessel_base",
    "nyquist_mask",
    "phase",
    "dealias_mask",
)


@pytest.mark.parametrize("n", [1, 2])
def test_cached_meshes_are_read_only_and_shared(n):
    g = make_grid(n, 2.0, 16)
    for name in CACHED_MESHES:
        first = getattr(g, name)
        assert not first.flags.writeable, name
        assert getattr(g, name) is first, name


@pytest.mark.parametrize("n", [1, 2])
def test_fft_seam_transforms_last_n_axes(n):
    # a stack of fields shares one call; each slice is the DFT of that field
    rng = np.random.default_rng(3)
    g = make_grid(n, 2.0, 16)
    stack = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    spec = g.fftn(stack)
    for i in range(3):
        assert np.allclose(spec[i], np.fft.fftn(stack[i]), rtol=0, atol=1e-12)
    assert np.allclose(g.ifftn(spec), stack, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, N", [(1, 48), (1, 4096), (2, 32), (2, 64)])
def test_fft_seam_stacked_rows_match_single_calls_bit_for_bit(n, N):
    # evolve stacks its per-pair transforms into one call and relies on each
    # row coming out exactly as the single-array call would give it
    rng = np.random.default_rng(5)
    g = make_grid(n, 2.0, N)
    for lead in ((2,), (3,), (2, 3)):
        stack = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape)
        rows = stack.reshape((-1,) + g.shape)
        for transform_ in (g.fftn, g.ifftn):
            got = transform_(stack).reshape(rows.shape)
            for row, v in zip(got, rows):
                assert np.array_equal(row, transform_(v))


@pytest.mark.parametrize("n, N, rows", [(1, 4096, 2), (2, 256, 2), (2, 512, 3)])
def test_fft_seam_in_place_matches_out_of_place_bit_for_bit(n, N, rows):
    # the row stacks of the evolution operator and the stored frames of a march
    # are transformed in their own storage
    rng = np.random.default_rng(7)
    g = make_grid(n, 2.0, N)
    stack = rng.standard_normal((rows,) + g.shape) + 1j * rng.standard_normal((rows,) + g.shape)
    for transform_ in (g.fftn, g.ifftn):
        ref = transform_(stack)
        work = stack.copy()
        assert transform_(work, overwrite_x=True) is work
        assert np.array_equal(work, ref)
        # a strided view is transformed in its own storage too
        work = np.repeat(stack, 2, axis=0)
        view = work[::2]
        assert transform_(view, overwrite_x=True) is view
        assert np.array_equal(view, ref) and np.array_equal(work[1::2], stack)
        # scipy transforms a byte-swapped array in a copy, which is written back
        work = stack.astype(">c16")
        assert transform_(work, overwrite_x=True) is work
        assert np.array_equal(work, ref)


@pytest.mark.parametrize("n", [1, 2])
def test_parseval(n):
    rng = np.random.default_rng(7)
    g = make_grid(n, 3.0, 32)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u = Field(g, vals)
    coeffs = transform(u).coeffs
    lhs = np.sum(np.abs(coeffs) ** 2) / (2 * g.L) ** n
    rhs = g.dx**n * np.sum(np.abs(vals) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-12


def test_bessel_identity_and_plane_wave():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(3j * x))
    assert np.max(np.abs(apply_bessel(u, 0.0).values - u.values)) < 1e-12
    v = apply_bessel(u, 2.0)
    assert np.max(np.abs(v.values - 10.0 * u.values)) < 1e-10 * 10


def test_bessel_round_trip():
    rng = np.random.default_rng(11)
    g = make_grid(1, np.pi, 64)
    # band-limited random field
    u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    w = apply_bessel(apply_bessel(u, 1.0), -1.0)
    assert np.max(np.abs(w.values - u.values)) < 1e-10


def test_sobolev_norm_constant():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.ones_like(x))
    assert np.isclose(sobolev_norm(u, 0.0) ** 2, 2 * np.pi, rtol=1e-12)


def test_sobolev_norm_plane_wave_s1():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(3j * x))
    assert np.isclose(sobolev_norm(u, 1.0) ** 2, 2 * np.pi * 10.0, rtol=1e-12)


def test_sobolev0_matches_quadrature_oracle():
    # trapezoid quadrature of |u|^2 for a periodic smooth bump; on a periodic
    # uniform grid the trapezoid rule is the plain node sum
    g = make_grid(1, 10.0, 256)
    u = Field.from_function(g, lambda x: np.exp(-(x**2)))
    quad = np.sqrt(g.dx * np.sum(np.abs(u.values) ** 2))
    assert abs(sobolev_norm(u, 0.0) - quad) < 1e-10
    assert abs(l2_norm(u) - quad) < 1e-15


def test_weighted_pairing_unit_weight_is_l2():
    rng = np.random.default_rng(3)
    g = make_grid(1, 5.0, 64)
    u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    val = weighted_pairing(u, lambda r: np.ones_like(r), 0.0)
    assert np.isclose(val, l2_norm(u) ** 2, rtol=1e-10)


def test_weighted_pairing_zero_field():
    g = make_grid(1, 5.0, 64)
    assert weighted_pairing(Field.zero(g), lambda r: 1.0 / (1.0 + r**2), 0.0) == 0.0


def test_weighted_pairing_direct_sum_oracle():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(3j * x))
    val = weighted_pairing(u, lambda r: 1.0 / (1.0 + r**2), 0.0)
    oracle = g.dx * np.sum(1.0 / (1.0 + g.x_axis**2))  # |u| = 1 pointwise
    assert np.isclose(val, oracle, rtol=1e-12)


def test_weighted_pairing_rejects_nonpositive_weight():
    # a weight must be finite and strictly positive at every node: a negative,
    # a NaN or an infinite value is refused, not summed into the pairing
    g = make_grid(1, 5.0, 64)
    u = Field.from_function(g, lambda x: np.exp(-(x**2)))
    for weight in (
        lambda r: r - 1.0,
        lambda r: np.where(r > 1, np.nan, 1.0),
        lambda r: np.where(r > 1, np.inf, 1.0),
    ):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            weighted_pairing(u, weight, 0.0)


def test_tail_mass_fraction():
    g = make_grid(1, 20.0, 512)
    u = Field.from_function(g, lambda x: np.exp(-(x**2)))
    assert tail_mass_fraction(u, 10.0) < 1e-12
    v = Field.from_function(g, lambda x: np.exp(1j * x))
    assert tail_mass_fraction(v, 10.0) > 0.4


@pytest.mark.parametrize(
    "grid, frames",
    [
        ((1, 40 * np.pi, 1024), (4,)),  # 64 KiB
        ((1, 40 * np.pi, 1024), (32,)),  # 512 KiB
        ((2, 8.0, 64), (2,)),  # 128 KiB
        ((2, 8.0, 128), (4,)),  # 1 MiB
        ((2, 8.0, 256), ()),  # one 1 MiB array
    ],
    ids=["1d-small", "1d-large", "2d-small", "2d-large", "2d-single"],
)
def test_spectrum_pair_in_place_matches_expressions_bit_for_bit(grid, frames):
    # the products are written into the transform's own output; on both sides
    # of numpy's 256 KiB temporary-elision threshold the bits are those of the
    # expressions
    g = make_grid(*grid)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((*frames, *g.shape)) + 1j * rng.standard_normal((*frames, *g.shape))
    assert _spectrum(g, v).tobytes() == ((g.dx**g.n) * g.phase * g.fftn(v)).tobytes()
    assert _from_spectrum(g, v).tobytes() == (g.ifftn(v * g.phase) / (g.dx**g.n)).tobytes()
