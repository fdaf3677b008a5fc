"""Quantization, composition, change of quantization, and positivity diagnostics."""

import itertools

import numpy as np
import pytest
import sympy as sp

from weylab import calculus
from weylab.calculus import (
    apply_fast,
    compose_symbols,
    poisson_bracket,
    positivity_diagnostic,
    quantize_dense,
)
from weylab.grid import Field, Grid, apply_bessel, make_grid
from weylab.hamilton import qdelta_symbol
from weylab.symbol.catalog import CATALOG, catalog, catalog_names
from weylab.symbol.core import FuncSymbol, SympySymbol, bessel_symbol, kn_to_weyl_expr, phase_symbols
from weylab.symbol.kdv import VectorFieldSystem, build_kdv_type


def brute_force_dense(a, g, tag):
    """O(N^{3n}) reference assembly of the quantization matrix."""
    pts_x = g.x_mesh.reshape(-1, g.n)
    pts_xi = g.xi_mesh.reshape(-1, g.n)
    size = g.size
    mat = np.zeros((size, size), complex)
    for j in range(size):
        for l in range(size):
            mid = 0.5 * (pts_x[j] + pts_x[l]) if tag == "weyl" else pts_x[j]
            vals = a.eval(np.broadcast_to(mid, pts_xi.shape), pts_xi)
            if a.zero_nyquist:
                vals = np.where(g.nyquist_mask.ravel(), 0.0, vals)
            phase = np.exp(1j * (pts_x[j] - pts_x[l]) @ pts_xi.T)
            mat[j, l] = np.mean(phase * vals)
    return mat


def gaussian_probe(g, k=2.0, width=None):
    width = width or g.L / 6.0
    if g.n == 1:
        return Field.from_function(g, lambda x: np.exp(-(x**2) / (2 * width**2)) * np.exp(1j * k * x))
    return Field.from_function(
        g,
        lambda x, y: np.exp(-(x**2 + y**2) / (2 * width**2)) * np.exp(1j * k * x),
    )


# -- dense quantization -----------------------------------------------------------


@pytest.mark.parametrize("tag", ["weyl", "kn"])
def test_dense_assembly_matches_brute_force_1d(tag):
    xs, xis = phase_symbols(1)
    a = SympySymbol(xs[0] * xis[0] + xis[0] ** 2 / 10, 1, 2.0, zero_nyquist=False)
    g = make_grid(1, np.pi, 16)
    fast = quantize_dense(a, g, tag).matrix
    ref = brute_force_dense(a, g, tag)
    assert np.max(np.abs(fast - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("tag", ["weyl", "kn"])
def test_dense_assembly_matches_brute_force_2d(tag):
    xs, xis = phase_symbols(2)
    a = SympySymbol(
        xis[0] ** 2 - xis[1] ** 2 + xs[0] * xis[1], 2, 2.0, zero_nyquist=False
    )
    g = make_grid(2, 2.0, 8)
    fast = quantize_dense(a, g, tag).matrix
    ref = brute_force_dense(a, g, tag)
    assert np.max(np.abs(fast - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def four_branch_dense(a, g, tag):
    """The former assembly, one branch per dimension and tag, transforming with
    np.fft; kept as the reference for the one n-generic path."""
    XI = g.xi_mesh.reshape(-1, g.n)

    def samples(x_pts):
        vals = a.eval(x_pts[:, None, :], XI[None, :, :])
        if a.zero_nyquist:
            vals = np.array(vals)
            vals[:, g.nyquist_mask.ravel()] = 0.0
        return vals

    N = g.N
    half = -g.L + 0.5 * g.dx * np.arange(2 * N - 1)
    if g.n == 1:
        jj, ll = np.indices((N, N))
        if tag == "weyl":
            return np.fft.ifft(samples(half[:, None]), axis=1)[jj + ll, (jj - ll) % N]
        return np.fft.ifft(samples(g.x_axis[:, None]), axis=1)[jj, (jj - ll) % N]
    j1, j2 = np.divmod(np.arange(N * N), N)
    j1, j2, l1, l2 = j1[:, None], j2[:, None], j1[None, :], j2[None, :]
    if tag == "weyl":
        mids = np.stack(np.meshgrid(half, half, indexing="ij"), axis=-1).reshape(-1, 2)
        G = np.fft.ifft2(samples(mids).reshape(2 * N - 1, 2 * N - 1, N, N), axes=(2, 3))
        return G[j1 + l1, j2 + l2, (j1 - l1) % N, (j2 - l2) % N]
    G = np.fft.ifft2(samples(g.x_mesh.reshape(-1, 2)).reshape(N, N, N, N), axes=(2, 3))
    return G[j1, j2, (j1 - l1) % N, (j2 - l2) % N]


DENSE_CASES = [
    ("airy", lambda: catalog("airy"), (1, np.pi, 64)),
    ("gaussian_kdv", lambda: catalog("gaussian_kdv", eps=0.05), (1, 4.0, 64)),
    ("bessel", lambda: bessel_symbol(1.5, 1), (1, 3.0, 32)),
    ("zk", lambda: catalog("zk"), (2, 3.0, 16)),
    ("ultrahyperbolic", lambda: catalog("ultrahyperbolic", eps=0.05), (2, 6.0, 16)),
]


@pytest.mark.parametrize("tag", ["weyl", "kn"])
@pytest.mark.parametrize("build,grid", [c[1:] for c in DENSE_CASES], ids=[c[0] for c in DENSE_CASES])
def test_dense_assembly_matches_four_branch_reference(build, grid, tag):
    # 1D: scipy's and numpy's ifft agree bit for bit; 2D: their ifft2 differ
    # at about 1e-16 on unit-scale data
    a, g = build(), make_grid(*grid)
    got = quantize_dense(a, g, tag).matrix
    ref = four_branch_dense(a, g, tag)
    if g.n == 1:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def one_shot_dense(a, g, tag):
    """The former assembly: the whole (midpoint, lag) kernel from one transform
    call, then the matrix gathered from it in row blocks; kept as the
    bit-for-bit reference for the slab-wise assembly."""
    n, N = g.n, g.N
    if tag == "weyl":
        axis = -g.L + 0.5 * g.dx * np.arange(2 * N - 1)
    else:
        axis = g.x_axis
    mids = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    if a.x_independent:
        row = g.ifftn(calculus._symbol_samples(a, g, mids[:1])).reshape(1, g.size)
        kernel = np.broadcast_to(row, (len(mids), g.size))
    else:
        kernel = g.ifftn(calculus._symbol_samples(a, g, mids)).reshape(len(mids), g.size)
    nodes = np.indices(g.shape).reshape(n, -1)
    mat = np.empty((g.size, g.size), dtype=complex)
    block = max(1, (1 << 22) // g.size)
    for start in range(0, g.size, block):
        j = nodes[:, start : start + block, None]
        l = nodes[:, None, :]
        mat[start : start + block] = kernel[
            np.ravel_multi_index(j + l if tag == "weyl" else j, (axis.size,) * n),
            np.ravel_multi_index((j - l) % N, g.shape),
        ]
    return mat


def midpoint_rows_per_index(g, tag):
    """Midpoints (kernel rows) per first-axis midpoint index."""
    return (2 * g.N - 1 if tag == "weyl" else g.N) ** (g.n - 1)


def kdv_full(n):
    xs, _ = phase_symbols(n)
    bump = sp.Rational(1, 10) * sp.exp(-sum(v**2 for v in xs))
    coeffs = [[1 + bump]] if n == 1 else [[1 + bump, bump], [0, 1 - bump]]
    return build_kdv_type(VectorFieldSystem(n, coeffs)).full


def slab_symbols(n):
    xs, xis = phase_symbols(n)
    varying = xs[0] * xis[-1] + sp.exp(-xs[-1] ** 2) * xis[0] ** 2
    return {
        "x-dependent": SympySymbol(varying, n, 2.0, zero_nyquist=False),
        "x-independent": catalog("airy") if n == 1 else catalog("zk"),
        "func": FuncSymbol(lambda X, XI: np.cos(X[..., 0]) * XI[..., -1] ** 2 + X[..., -1] * XI[..., 0], n, 2.0),
        "kdv-full": kdv_full(n),
    }


@pytest.mark.parametrize("per_slab", [None, 3], ids=["default-slab", "3-per-slab"])
@pytest.mark.parametrize("kind", ["x-dependent", "x-independent", "func", "kdv-full"])
@pytest.mark.parametrize("tag", ["weyl", "kn"])
@pytest.mark.parametrize("n, N", [(1, 16), (2, 10)], ids=["1d", "2d"])
def test_slab_assembly_matches_one_shot_bit_for_bit(n, N, tag, kind, per_slab, monkeypatch):
    # N = 16 (1D) and 10 (2D): 3 first-axis indices per slab split the 2N - 1
    # Weyl and the N KN midpoint indices unevenly
    g = make_grid(n, 3.0, N)
    if per_slab is not None:
        entries = per_slab * midpoint_rows_per_index(g, tag) * g.size
        monkeypatch.setattr(calculus, "SLAB_ENTRIES", entries)
    a = slab_symbols(n)[kind]
    assert np.array_equal(quantize_dense(a, g, tag).matrix, one_shot_dense(a, g, tag))


def test_dense_assembly_transforms_through_the_grid_seam(monkeypatch):
    calls = []

    class CountingGrid(Grid):
        def ifftn(self, values, *, overwrite_x=False):
            calls.append(values.shape)
            return super().ifftn(values, overwrite_x=overwrite_x)

    # one call per slab of at most 3 first-axis midpoint indices
    for (n, N), tag in itertools.product([(1, 16), (2, 10)], ["weyl", "kn"]):
        g = CountingGrid(n, 2.0, N)
        per_index = midpoint_rows_per_index(g, tag)
        midpoints = (2 * N - 1 if tag == "weyl" else N) ** n
        monkeypatch.setattr(calculus, "SLAB_ENTRIES", 3 * per_index * g.size)
        varying = catalog("gaussian_kdv") if n == 1 else catalog("ultrahyperbolic", eps=0.3)
        calls.clear()
        quantize_dense(varying, g, tag)
        assert all(shape[1:] == g.shape for shape in calls)
        assert sum(shape[0] for shape in calls) == midpoints
        assert max(shape[0] for shape in calls) <= 3 * per_index
        assert len(calls) > 1


def test_dense_assembly_memory_is_the_matrix_plus_one_slab(traced_peak):
    # the one-shot kernel held 2^{n+1} times the matrix (124 MB for this 16 MB
    # matrix); the slabs of the default size add a few MB
    a = catalog("ultrahyperbolic", eps=0.5, matrix=np.eye(2))
    quantize_dense(a, Grid(2, 6.0, 8), "weyl")  # build the closures untraced
    g = Grid(2, 6.0, 32)
    ops = []
    peak = traced_peak(lambda: ops.append(quantize_dense(a, g, "weyl")), g)
    assert peak <= 1.5 * ops[0].matrix.nbytes


@pytest.mark.parametrize("tag", ["weyl", "kn"])
@pytest.mark.parametrize(
    "a, N",
    [
        (bessel_symbol(1.0, 1), 32),
        (catalog("airy"), 32),
        (bessel_symbol(1.0, 2), 12),
        (catalog("zk"), 12),
    ],
    ids=["bessel-1d", "airy", "bessel-2d", "zk"],
)
def test_dense_x_independent_one_row_matches_every_midpoint(a, N, tag):
    # the x_independent flag does not change the assembly: the same symbol
    # without it gives the same bits
    assert a.x_independent
    full = FuncSymbol(a._eval, a.n, a.order, zero_nyquist=a.zero_nyquist)
    g = make_grid(a.n, 3.0, N)
    assert np.array_equal(quantize_dense(a, g, tag).matrix, quantize_dense(full, g, tag).matrix)


def test_weyl_real_symbol_self_adjoint():
    g = make_grid(1, np.pi, 128)
    for name, kw in [("airy", {}), ("gaussian_kdv", dict(eps=0.05))]:
        op = quantize_dense(catalog(name, **kw), g, "weyl")
        assert op.adjoint_residual <= 1e-10
    g2 = make_grid(2, np.pi, 16)
    assert quantize_dense(catalog("zk"), g2, "weyl").adjoint_residual <= 1e-10


def test_dense_multiplier_equals_bessel():
    g = make_grid(1, np.pi, 64)
    rng = np.random.default_rng(1)
    u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    for s in (0.0, 1.5, -2.0):
        op = quantize_dense(bessel_symbol(s, 1), g, "weyl")
        ref = apply_bessel(u, s)
        err = np.max(np.abs(op.apply(u).values - ref.values)) / np.max(np.abs(ref.values))
        assert err <= 1e-10


def test_dense_spatial_symbol_is_diagonal():
    xs, _ = phase_symbols(1)
    a = SympySymbol(1 + xs[0] ** 2, 1, 0.0, zero_nyquist=False)
    g = make_grid(1, 3.0, 32)
    mat = quantize_dense(a, g, "weyl").matrix
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.diag(mat).real, 1 + g.x_axis**2)


def test_weyl_xxi_action_vs_refined_quadrature():
    # Op^w(x xi) acting on a centered Gaussian, against a 4x-refined grid
    xs, xis = phase_symbols(1)
    a = SympySymbol(xs[0] * xis[0], 1, 1.0, zero_nyquist=False)
    g = make_grid(1, 8.0, 64)
    gf = make_grid(1, 8.0, 256)
    u = gaussian_probe(g, k=1.0, width=1.0)
    uf = gaussian_probe(gf, k=1.0, width=1.0)
    coarse = quantize_dense(a, g, "weyl").apply(u).values
    fine = quantize_dense(a, gf, "weyl").apply(uf).values[::4]
    err = np.max(np.abs(coarse - fine)) / np.max(np.abs(fine))
    assert err < 1e-6


def test_dense_rejects_ineligible_grid():
    g = make_grid(1, np.pi, 16384)
    with pytest.raises(ValueError):
        quantize_dense(catalog("airy"), g, "weyl")


# -- fast application -------------------------------------------------------------


def test_apply_fast_multiplier_path_exact():
    g = make_grid(1, np.pi, 64)
    u = gaussian_probe(g, k=3.0)
    fast = apply_fast(catalog("airy"), u)
    dense = quantize_dense(catalog("airy"), g, "kn").apply(u)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


def test_apply_fast_pointwise_path():
    xs, _ = phase_symbols(1)
    a = SympySymbol(1 / (1 + xs[0] ** 2), 1, 0.0, zero_nyquist=False)
    g = make_grid(1, 4.0, 32)
    u = gaussian_probe(g)
    fast = apply_fast(a, u)
    assert np.allclose(fast.values, u.values / (1 + g.x_axis**2))


def test_apply_fast_separable_matches_dense():
    # every catalog entry, and the bumped gaussian_kdv, against the dense KN matrix
    cases = [(catalog("gaussian_kdv", eps=0.3), make_grid(1, 10.0, 64))]
    for name in catalog_names():
        a = catalog(name, eps=0.3) if "eps" in CATALOG[name].params else catalog(name)
        cases.append((a, make_grid(1, 10.0, 64) if a.n == 1 else make_grid(2, 6.0, 24)))
    for a, g in cases:
        u = gaussian_probe(g, k=2.0)
        fast = apply_fast(a, u)
        dense = quantize_dense(a, g, "kn").apply(u)
        err = np.max(np.abs(fast.values - dense.values))
        assert err <= 1e-10 * np.max(np.abs(dense.values)), a.label


def test_apply_fast_general_matches_dense():
    xs, xis = phase_symbols(1)
    a = SympySymbol(xs[0] * xis[0] + sp.exp(-xs[0] ** 2) * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    g = make_grid(1, 10.0, 64)
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(a, u)
    dense = quantize_dense(a, g, "kn").apply(u)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


@pytest.mark.parametrize("n", [1, 2])
def test_apply_fast_xi_dependent_symbols_match_dense(n):
    # each symbol vanishes at xi = 0 and xi = e1 for every x, yet depends on xi
    xs, xis = phase_symbols(n)
    if n == 1:
        expr = sp.exp(-xs[0] ** 2) * xis[0] * (xis[0] - 1)
        g = make_grid(1, 10.0, 64)
    else:
        expr = sp.exp(-xs[0] ** 2) * xis[1]
        g = make_grid(2, 6.0, 24)
    a = SympySymbol(expr, n, float(sp.Poly(expr, *xis).total_degree()), zero_nyquist=False)
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(a, u)
    dense = quantize_dense(a, g, "kn").apply(u)
    assert np.max(np.abs(dense.values)) > 0.1 * np.max(np.abs(u.values))
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


def test_apply_fast_expanded_product_matches_dense():
    # (xi + x)^3 splits only once expanded: xi^3 and the pairs x, x^2, x^3
    xs, xis = phase_symbols(1)
    a = SympySymbol((xis[0] + xs[0]) ** 3, 1, 3.0)
    a0, pairs = a.split
    assert a0 == xis[0] ** 3 and {f for f, _ in pairs} == {xs[0], xs[0] ** 2, xs[0] ** 3}
    g = make_grid(1, 10.0, 64)
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(a, u)
    dense = quantize_dense(a, g, "kn").apply(u)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


@pytest.mark.parametrize("n", [1, 2])
def test_apply_fast_complex_kdv_type_matches_dense(n):
    # the split is exact KN for complex symbols too
    xs, _ = phase_symbols(n)
    bump = sp.Rational(1, 10) * sp.exp(-sum(v**2 for v in xs))
    if n == 1:
        coeffs, g = [[1 + bump]], make_grid(1, 10.0, 64)
    else:
        coeffs, g = [[1 + bump, bump], [0, 1 - bump]], make_grid(2, 6.0, 24)
    a = build_kdv_type(VectorFieldSystem(n, coeffs)).full
    assert not a.real_valued and a.split is not None
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(a, u)
    dense = quantize_dense(a, g, "kn").apply(u)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


def test_apply_fast_split_above_dense_budget():
    # (1 + eps e^{-x^2}) xi^3 is (1 + eps e^{-x^2}) D^3 in KN; no dense grid needed
    g = make_grid(1, 10.0, 16384)
    assert not g.dense_eligible
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(catalog("gaussian_kdv", eps=0.3), u)
    ref = (1 + 0.3 * np.exp(-g.x_axis**2)) * apply_fast(catalog("airy"), u).values
    assert np.max(np.abs(fast.values - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- composition -----------------------------------------------------------------


def test_compose_canonical_commutation():
    xs, xis = phase_symbols(1)
    sym_xi = SympySymbol(xis[0], 1, 1.0, zero_nyquist=False)
    sym_x = SympySymbol(xs[0], 1, 0.0)
    c = compose_symbols(sym_xi, sym_x, K=1)
    assert sp.expand(c.expr - (xs[0] * xis[0] - sp.I / 2)) == 0

    # dense-operator confirmation on a localized probe
    g = make_grid(1, 8.0, 64)
    u = gaussian_probe(g, k=2.0, width=1.0)
    lhs = quantize_dense(sym_xi, g, "weyl").compose(quantize_dense(sym_x, g, "weyl")).apply(u)
    rhs = quantize_dense(c, g, "weyl").apply(u)
    err = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(lhs.values))
    assert err <= 1e-8


def test_compose_multipliers_is_product():
    _, xis = phase_symbols(1)
    a = SympySymbol(xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    b = bessel_symbol(-1.0, 1)
    for K in (0, 1, 2, 3):
        c = compose_symbols(a, b, K=K)
        assert sp.simplify(c.expr - a.expr * b.expr) == 0


def test_compose_associative_on_polynomials():
    xs, xis = phase_symbols(1)
    sym_xi = SympySymbol(xis[0], 1, 1.0, zero_nyquist=False)
    sym_x = SympySymbol(xs[0], 1, 0.0)
    left = compose_symbols(compose_symbols(sym_xi, sym_x, K=4), sym_x, K=4)
    right = compose_symbols(sym_xi, compose_symbols(sym_x, sym_x, K=4), K=4)
    assert sp.expand(left.expr - right.expr) == 0


def test_compose_truncation_order_gain():
    # residual || (Op(a)Op(b) - Op(a #_K b)) u || on wavepackets with spectrum
    # in the shell |xi| in [k0, 2 k0] shrinks by a factor >= k0/4 per order.
    # Probes must vanish to machine precision at the torus seam, otherwise the
    # unwrapped-midpoint convention injects a K-independent floor.
    xs, xis = phase_symbols(1)
    a = SympySymbol((1 + sp.exp(-xs[0] ** 2)) * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    b = SympySymbol(
        sp.exp(-xs[0] ** 2 / 4) * sp.exp(-xis[0] ** 2 / 512), 1, 0.0, zero_nyquist=False
    )
    g = make_grid(1, 2 * np.pi, 512)
    k0 = 16.0
    A = quantize_dense(a, g, "weyl")
    B = quantize_dense(b, g, "weyl")
    packets = [
        Field.from_function(g, lambda x, kk=kk: np.exp(-(x**2) / 2) * np.exp(1j * kk * x))
        for kk in (k0, 1.5 * k0, 2 * k0)
    ]
    composed = [quantize_dense(compose_symbols(a, b, K=K), g, "weyl") for K in (0, 1, 2, 3)]
    for u in packets:
        ref = A.apply(B.apply(u)).values
        scale = np.max(np.abs(ref))
        residuals = [np.max(np.abs(ref - CK.apply(u).values)) / scale for CK in composed]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert hi / lo >= k0 / 4.0


# -- change of quantization --------------------------------------------------------


def _kn_to_weyl(a_kn: SympySymbol) -> SympySymbol:
    # the Weyl symbol of Op_KN(a_kn), as VectorFieldSystem takes it
    return SympySymbol(kn_to_weyl_expr(a_kn.expr, a_kn.n), a_kn.n, a_kn.order, zero_nyquist=a_kn.zero_nyquist)


def test_change_quantization_vector_field():
    # Op_KN(b xi) = b(x) D has Weyl symbol b xi + (i/2) b'(x); the series
    # stops at its xi-degree 1.  The sign is fixed by the dense-operator
    # oracle below.
    xs, xis = phase_symbols(1)
    b = 1 + sp.Rational(1, 2) * sp.exp(-xs[0] ** 2)
    a_kn = SympySymbol(b * xis[0], 1, 1.0, zero_nyquist=False)
    w = _kn_to_weyl(a_kn)
    expected = b * xis[0] + sp.I / 2 * sp.diff(b, xs[0])
    assert sp.expand(w.expr - expected) == 0

    g = make_grid(1, 8.0, 64)
    u = gaussian_probe(g, k=2.0, width=1.0)
    ref = quantize_dense(a_kn, g, "kn").apply(u)
    got = quantize_dense(w, g, "weyl").apply(u)
    err = np.max(np.abs(ref.values - got.values)) / np.max(np.abs(ref.values))
    assert err <= 1e-10


def test_change_quantization_x_independent_unchanged():
    a = catalog("airy")
    assert sp.expand(kn_to_weyl_expr(a.expr, 1) - a.expr) == 0


def test_change_quantization_polynomial_dense_oracle():
    xs, xis = phase_symbols(1)
    a_kn = SympySymbol(xs[0] * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    w = _kn_to_weyl(a_kn)
    g = make_grid(1, 8.0, 64)
    u = gaussian_probe(g, k=2.0, width=1.0)
    ref = quantize_dense(a_kn, g, "kn").apply(u)
    got = quantize_dense(w, g, "weyl").apply(u)
    err = np.max(np.abs(ref.values - got.values)) / np.max(np.abs(ref.values))
    assert err <= 1e-8


# -- Poisson bracket ----------------------------------------------------------------


def test_poisson_bracket_airy():
    # each term of {a, b} takes one xi-derivative: the order is m1 + m2 - 1
    xs, xis = phase_symbols(1)
    q = SympySymbol(xs[0] * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    br = poisson_bracket(catalog("airy"), q)
    assert sp.expand(br.expr - 3 * xis[0] ** 4) == 0
    assert br.order == 4.0
    # the Garding bracket 9 xi^4 / (xi^2 + 1) has order 2, so Nyquist is kept
    garding = poisson_bracket(catalog("airy"), qdelta_symbol(catalog("airy"), 1.0))
    assert sp.simplify(garding.expr - 9 * xis[0] ** 4 / (xis[0] ** 2 + 1)) == 0
    assert garding.order == 2.0 and not garding.zero_nyquist


@pytest.mark.parametrize("op", [poisson_bracket, compose_symbols], ids=["poisson_bracket", "compose_symbols"])
def test_poisson_bracket_rejects_numeric_symbols(op):
    # the calculus is exact: numeric symbols are refused, not approximated
    f = FuncSymbol(lambda X, XI: XI[..., 0] ** 3, 1, 3.0)
    with pytest.raises(TypeError):
        op(catalog("airy"), f)


# -- positivity ---------------------------------------------------------------------


def test_positivity_xi_squared_nonnegative():
    _, xis = phase_symbols(1)
    a = SympySymbol(xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    rep = positivity_diagnostic(a, make_grid(1, np.pi, 64), "sharp_garding")
    assert all(c <= 1e-10 for c in rep.fitted_C.values())


def test_positivity_spatial_weight_nonnegative():
    xs, _ = phase_symbols(1)
    a = SympySymbol(1 / (1 + xs[0] ** 2), 1, 0.0, zero_nyquist=False)
    rep = positivity_diagnostic(a, make_grid(1, 4.0, 64), "fefferman_phong")
    assert all(c <= 1e-10 for c in rep.fitted_C.values())


def test_positivity_fefferman_phong_variable_coefficient():
    xs, xis = phase_symbols(1)
    a = SympySymbol((1 + sp.exp(-xs[0] ** 2)) * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    rep = positivity_diagnostic(a, make_grid(1, 8.0, 64), "fefferman_phong", probes=24)
    assert len(rep.fitted_C) == 2
    assert all(np.isfinite(c) for c in rep.fitted_C.values())
    assert 0.5 <= rep.stability_ratio <= 2.0


def test_positivity_keeps_a_known_defect():
    # Op^w(x^2 xi^2) = Op^w(x xi)^2 - 1/4 is not nonnegative; the compression
    # onto the well-windowed subspace must still see it
    xs, xis = phase_symbols(1)
    a = SympySymbol(xs[0] ** 2 * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    rep = positivity_diagnostic(a, make_grid(1, 4.0, 64), "sharp_garding", probes=24)
    assert len(rep.fitted_C) == 2
    assert all(c > 1e-10 for c in rep.fitted_C.values())


def test_positivity_rejects_sign_changing_symbol():
    _, xis = phase_symbols(1)
    a = SympySymbol(xis[0], 1, 1.0, zero_nyquist=False)
    with pytest.raises(ValueError):
        positivity_diagnostic(a, make_grid(1, np.pi, 32), "sharp_garding")


@pytest.mark.parametrize("n, L, N", [(1, np.pi, 64), (2, 6.0, 16)], ids=["1d", "2d"])
def test_bessel_form_matches_dense_compression(n, L, N):
    g = make_grid(n, L, N)
    Q = calculus._positivity_basis(g)
    for s in (1.0, 2.0):
        dense = quantize_dense(bessel_symbol(s, n), g, "weyl").matrix
        ref = Q.conj().T @ dense @ Q
        got = calculus._bessel_form(g, Q, s)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


SEAM_FRACTION = 1e-2


@pytest.mark.parametrize(
    "n, L, N", [(1, np.pi, 64), (1, np.pi, 128), (2, 6.0, 16), (2, 6.0, 32)], ids=["1d-64", "1d-128", "2d-16", "2d-32"]
)
def test_positivity_basis_stays_off_the_seam(n, L, N):
    # Every unit vector of the kept span has at most (||P W|| / (tol s_max))^2
    # of its energy at r > 0.6L (P: that restriction, W: the windowed basis,
    # tol: POSITIVITY_RANK_RTOL), at most 1.04e-2 on these grids; the columns
    # measure at most 1.5e-3.  An orthonormalization of every windowed column
    # (QR, or an SVD down to the numerical rank) puts columns with 78% (1D)
    # and 100% (2D) of their energy there.
    g = make_grid(n, L, N)
    Q = calculus._positivity_basis(g)
    assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    seam = g.x_radius.ravel() > 0.6 * g.L
    x = g.x_mesh.reshape(-1, n)
    xi = g.xi_mesh.reshape(-1, n)[g.dealias_mask.ravel()]
    W = np.exp(-((g.x_radius.ravel() / (0.42 * g.L)) ** 4))[:, None] * np.exp(1j * x @ xi.T)
    s = np.linalg.svd(W, compute_uv=False)
    bound = (np.linalg.norm(W[seam], 2) / (calculus.POSITIVITY_RANK_RTOL * s[0])) ** 2
    energy = np.sum(np.abs(Q[seam]) ** 2, axis=0)
    assert np.max(energy) <= min(bound, SEAM_FRACTION)
