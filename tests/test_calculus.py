"""Quantization, composition, change of quantization, and positivity diagnostics."""

import numpy as np
import pytest
import sympy as sp

from weylab.calculus import (
    apply_fast,
    change_quantization,
    compose_symbols,
    poisson_bracket,
    positivity_diagnostic,
    quantize_dense,
)
from weylab.grid import Field, apply_bessel, make_grid
from weylab.symbol import SympySymbol, bessel_symbol, catalog, phase_symbols


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
    g = make_grid(1, 10.0, 64)
    a = catalog("gaussian_kdv", eps=0.3)
    u = gaussian_probe(g, k=2.0)
    fast = apply_fast(a, u)
    dense = quantize_dense(a, g, "kn").apply(u)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * np.max(np.abs(dense.values))


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


def test_apply_fast_rejects_weyl_tag():
    g = make_grid(1, np.pi, 32)
    with pytest.raises(ValueError):
        apply_fast(catalog("airy"), gaussian_probe(g), tag="weyl")


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


def test_change_quantization_vector_field():
    # Op_KN(b xi) = b(x) D has Weyl symbol b xi + (i/2) b'(x); exact at K = 1.
    # The sign is fixed by the dense-operator oracle below.
    xs, xis = phase_symbols(1)
    b = 1 + sp.Rational(1, 2) * sp.exp(-xs[0] ** 2)
    a_kn = SympySymbol(b * xis[0], 1, 1.0, zero_nyquist=False)
    w = change_quantization(a_kn, K=1)
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
    w = change_quantization(a, K=3)
    assert sp.expand(w.expr - a.expr) == 0


def test_change_quantization_polynomial_dense_oracle():
    xs, xis = phase_symbols(1)
    a_kn = SympySymbol(xs[0] * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    w = change_quantization(a_kn, K=3)
    g = make_grid(1, 8.0, 64)
    u = gaussian_probe(g, k=2.0, width=1.0)
    ref = quantize_dense(a_kn, g, "kn").apply(u)
    got = quantize_dense(w, g, "weyl").apply(u)
    err = np.max(np.abs(ref.values - got.values)) / np.max(np.abs(ref.values))
    assert err <= 1e-8


# -- Poisson bracket ----------------------------------------------------------------


def test_poisson_bracket_airy():
    xs, xis = phase_symbols(1)
    q = SympySymbol(xs[0] * xis[0] ** 2, 1, 1.0, zero_nyquist=False)
    br = poisson_bracket(catalog("airy"), q)
    assert sp.expand(br.expr - 3 * xis[0] ** 4) == 0


def test_poisson_bracket_rejects_numeric_symbols():
    from weylab.symbol import FuncSymbol

    f = FuncSymbol(lambda X, XI: XI[..., 0] ** 3, 1, 3.0)
    with pytest.raises(TypeError):
        poisson_bracket(catalog("airy"), f)


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


def test_positivity_rejects_sign_changing_symbol():
    _, xis = phase_symbols(1)
    a = SympySymbol(xis[0], 1, 1.0, zero_nyquist=False)
    with pytest.raises(ValueError):
        positivity_diagnostic(a, make_grid(1, np.pi, 32), "sharp_garding")
