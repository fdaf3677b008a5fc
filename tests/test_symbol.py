"""Symbol representation, catalog, KdV-type builder, and condition checks."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from weylab.calculus import compose_symbols, poisson_bracket
from weylab.grid import lam
from weylab.hamilton import qdelta_symbol
from weylab.symbol.catalog import catalog, catalog_names
from weylab.symbol.checks import SampleSet, check_grad_ellipticity, check_im_smallness, check_x_decay
from weylab.symbol.core import (
    FuncSymbol,
    SympySymbol,
    _derivative_closure,
    _derivative_expr,
    kn_to_weyl_expr,
    multi_indices_upto,
    phase_symbols,
)
from weylab.symbol.kdv import VectorFieldSystem, build_kdv_type
from weylab.weights import garding_weight


# -- catalog -------------------------------------------------------------------


def test_airy_value_and_gradient():
    a = catalog("airy")
    assert np.isclose(a.eval(0.3, 2.0).item().real, 8.0)
    assert np.isclose(a.deriv((1,), (0,), 0.3, 2.0).item().real, 12.0)
    assert a.order == 3 and a.real_valued and a.zero_nyquist


def test_catalog_rebuild_reuses_derivative_closures(monkeypatch):
    x = np.linspace(-2.0, 2.0, 9)
    xi = np.linspace(-3.0, 3.0, 9)
    orders = [(al, k - al) for k in range(4) for al in range(k + 1)]
    first = [catalog("gaussian_kdv").deriv((al,), (be,), x, xi) for al, be in orders]
    calls = []
    diff = sp.diff
    monkeypatch.setattr(sp, "diff", lambda *args, **kw: calls.append(args) or diff(*args, **kw))
    second = [catalog("gaussian_kdv").deriv((al,), (be,), x, xi) for al, be in orders]
    assert calls == []
    assert all(np.array_equal(u, v) for u, v in zip(first, second))
    # a new expression is differentiated, through the same counted sympy.diff
    catalog("gaussian_kdv", eps=0.0123).deriv((1,), (0,), x, xi)
    assert len(calls) == 1


def _chain_derivative(expr, n, alpha, beta):
    """d^alpha_xi d^beta_x expr as one multi-count sp.diff per variable, x first."""
    xs, xis = phase_symbols(n)
    for i, b in enumerate(beta):
        if b:
            expr = sp.diff(expr, xs[i], b)
    for i, a in enumerate(alpha):
        if a:
            expr = sp.diff(expr, xis[i], a)
    return expr


def test_derivative_tree_makes_one_diff_per_closure(monkeypatch):
    _derivative_expr.cache_clear()
    _derivative_closure.cache_clear()
    xs, xis = phase_symbols(2)
    expr = (1 + sp.Rational(3, 7) * sp.exp(-xs[0] ** 2 - 2 * xs[1] ** 2)) * xis[0] * (
        xis[0] ** 2 + xis[1] ** 2
    ) + xs[0] * sp.sin(xs[1]) * xis[1] ** 2
    a = SympySymbol(expr, 2, 3.0)
    calls = []
    diff = sp.diff
    monkeypatch.setattr(sp, "diff", lambda *args, **kw: calls.append(args) or diff(*args, **kw))
    # highest order first: each closure builds its parents on the way down
    jets = list(multi_indices_upto(4, 3))[::-1]
    for ab in jets:
        a._closure(ab[:2], ab[2:])
    assert len(calls) == len(jets) - 1 == 34
    # each diff is by one variable, once
    assert all(len(args) == 2 for args in calls)


def _symbolic_op(name):
    """The expression of one exact symbolic operation, built afresh on each call."""
    (x,), (xi,) = phase_symbols(1)
    x_xi2 = SympySymbol(x * xi**2, 1, 2.0)
    if name == "compose_symbols":
        return compose_symbols(catalog("gaussian_kdv", eps=0.3), x_xi2, K=3).expr
    if name == "change_quantization":  # KN -> Weyl
        return kn_to_weyl_expr(x_xi2.expr, 1)
    if name == "poisson_bracket":
        return poisson_bracket(catalog("gaussian_kdv", eps=0.3), x_xi2).expr
    xs, _ = phase_symbols(2)
    bump = sp.exp(-xs[0] ** 2 - xs[1] ** 2) / 9
    return build_kdv_type(VectorFieldSystem(2, [[1 + bump, bump], [0, 1 - bump]])).full.expr


@pytest.mark.parametrize(
    "name", ["compose_symbols", "change_quantization", "poisson_bracket", "build_kdv_type"]
)
def test_symbolic_calculus_reads_the_derivative_tree(name, monkeypatch):
    first = _symbolic_op(name)
    calls = []
    diff = sp.diff
    monkeypatch.setattr(sp, "diff", lambda *args, **kw: calls.append(args) or diff(*args, **kw))
    second = _symbolic_op(name)
    assert calls == []
    assert sp.srepr(second) == sp.srepr(first)


def test_qdelta_reads_the_derivatives_the_symbol_built(monkeypatch):
    a = catalog("gaussian_kdv", eps=0.0321)
    a.deriv((1,), (0,), 0.5, 2.0)
    calls = []
    diff = sp.diff
    monkeypatch.setattr(sp, "diff", lambda *args, **kw: calls.append(args) or diff(*args, **kw))
    qdelta_symbol(a, 0.5)
    assert calls == []


@pytest.mark.parametrize("name", [*catalog_names(), "garding_q"])
def test_derivative_tree_matches_the_multi_count_chain(name):
    if name == "garding_q":
        a = garding_weight(catalog("gaussian_kdv"), S=SampleSet.standard(1, x_points=9)).q
    else:
        a = catalog(name)
    n = a.n
    S = SampleSet.standard(n, num_shells=6, x_points=5)
    xs, xis = phase_symbols(n)
    for ab in multi_indices_upto(2 * n, 3):
        alpha, beta = ab[:n], ab[n:]
        fn = sp.lambdify(xs + xis, _chain_derivative(a.expr, n, alpha, beta), modules="numpy")
        ref = np.asarray(fn(*S.X.T, *S.XI.T), dtype=complex)
        got = a.deriv(alpha, beta, S.X, S.XI)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (alpha, beta)


def test_kdv_sum_divergence_identity():
    # sum_j d_xi_j a = n |xi|^2 + 2 (sum_j xi_j)^2; at xi = (1, -1) the value is 4
    a = catalog("kdv_sum", n=2)
    xi = np.array([1.0, -1.0])
    div = sum(a.deriv(e, (0, 0), np.zeros(2), xi).item().real for e in [(1, 0), (0, 1)])
    assert np.isclose(div, 4.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.standard_normal(2)
        div = sum(a.deriv(e, (0, 0), np.zeros(2), z).item().real for e in [(1, 0), (0, 1)])
        assert np.isclose(div, 2 * np.sum(z**2) + 2 * np.sum(z) ** 2)


def test_zk_gradient_at_characteristic_direction():
    a = catalog("zk")
    xi = np.array([0.0, 1.0])
    grad = a.grad_xi(np.zeros(2), xi).real.ravel()
    assert np.allclose(grad, [1.0, 0.0])
    assert np.isclose(np.linalg.norm(grad), np.sum(xi**2))


def test_catalog_errors():
    with pytest.raises(KeyError):
        catalog("not_a_symbol")
    # a param that the entry does not list is named, not passed on
    with pytest.raises(ValueError, match="'bogus'"):
        catalog("airy", bogus=1)
    with pytest.raises(ValueError, match="'n'"):
        catalog("gaussian_kdv", n=2)
    with pytest.raises(ValueError):
        catalog("ultrahyperbolic", matrix=[[1.0, 0.5], [0.0, -1.0]])
    with pytest.raises(ValueError):
        catalog("ultrahyperbolic", matrix=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        catalog("gaussian_kdv", eps=-1.0)


def test_parts_split_consistency():
    # a3 + re_a2 + i im_a2 of a kdv-type build reassembles the full Weyl symbol
    xs, _ = phase_symbols(2)
    bump = sp.Rational(1, 2) * sp.exp(-xs[0] ** 2 - xs[1] ** 2)
    build = build_kdv_type(VectorFieldSystem(2, [[1 + bump, bump], [0, 1 - bump]]))
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(40, 2))
    XI = rng.uniform(-5, 5, size=(40, 2))
    whole = build.full.eval(X, XI)
    split = build.a3.eval(X, XI) + build.re_a2.eval(X, XI) + 1j * build.im_a2.eval(X, XI)
    assert not build.full.real_valued and build.a3.real_valued
    assert np.max(np.abs(whole - split)) <= 1e-12 * np.max(np.abs(whole))


# -- derivative oracles ---------------------------------------------------------


def test_func_symbol_has_only_its_closures():
    # a derivative with no closure is refused, never approximated
    first = {((1,), (0,)): lambda X, XI: 3 * XI[..., 0] ** 2}
    f = FuncSymbol(lambda X, XI: XI[..., 0] ** 3, 1, 3.0, first, label="xi^3")
    assert f.deriv((1,), (0,), 0.5, 2.0).item() == 12.0
    assert f.deriv((0,), (0,), 0.5, 2.0).item() == 8.0
    with pytest.raises(NotImplementedError, match=r"'xi\^3'.*alpha=\(2,\), beta=\(0,\)"):
        f.deriv((2,), (0,), 0.5, 2.0)
    # only a sympy-backed symbol is ever x-independent
    assert not f.x_independent and catalog("airy").x_independent


def test_fd_second_order_halving_rate():
    # central differences on smooth probes: halving h cuts the error by ~4
    a = catalog("gaussian_kdv", eps=0.5)
    x0, xi0 = 0.7, 1.3
    exact = a.deriv((0,), (1,), x0, xi0).item()

    def fd(h):
        up = a.eval(x0 + h, xi0).item()
        dn = a.eval(x0 - h, xi0).item()
        return (up - dn) / (2 * h)

    e1 = abs(fd(1e-3) - exact)
    e2 = abs(fd(5e-4) - exact)
    assert 3.5 <= e1 / e2 <= 4.5


# -- KdV-type builder ------------------------------------------------------------


def test_build_kdv_type_constant_coefficients():
    sysc = VectorFieldSystem(2, [[1, 0], [0, 1]])
    kb = build_kdv_type(sysc)
    assert kb.re_a2.expr == 0 and kb.im_a2.expr == 0
    xi = np.array([1.0, 2.0])
    assert np.isclose(kb.a3.eval(np.zeros(2), xi).item().real, 1.0 * 5.0)
    assert all(d == 0 for d in kb.corrections)


def test_build_kdv_type_rejects_complex_coefficients():
    xs, _ = phase_symbols(1)
    with pytest.raises(ValueError):
        VectorFieldSystem(1, [[1 + sp.I * sp.exp(-xs[0] ** 2)]])


def test_build_kdv_type_variable_matches_kn_route():
    # independent oracle: compose in KN quantization, then change quantization
    xs, xis = phase_symbols(1)
    x, xi = xs[0], xis[0]
    sys1 = VectorFieldSystem(1, [[1 + sp.Rational(1, 10) * sp.exp(-(x**2))]])
    kb = build_kdv_type(sys1)

    bx = sys1.coefficients[0][0]
    X = bx * xi
    # KN composition: Op(a)Op(b) = Op(c) with c = sum (-i)^k / k! d_xi^k a d_x^k b
    def kn_product(ae, be):
        out = sp.Integer(0)
        for k in range(8):
            term = (-sp.I) ** k / sp.factorial(k) * sp.diff(ae, xi, k) * sp.diff(be, x, k)
            if term == 0 and k > 3:
                break
            out += term
        return sp.expand(out)

    c_kn = kn_product(X, kn_product(X, X))
    full_via_kn = sp.expand(kn_to_weyl_expr(c_kn, 1))
    diff = sp.simplify(full_via_kn - kb.full.expr)
    assert diff == 0


def test_build_kdv_type_im_part_is_odd_and_small():
    xs, _ = phase_symbols(1)
    eps = 0.05
    sys1 = VectorFieldSystem(1, [[1 + eps * sp.exp(-xs[0] ** 2)]])
    kb = build_kdv_type(sys1)
    # Im a_2 vanishes at x = 0 by parity and scales with eps
    assert abs(kb.im_a2.eval(0.0, 1.0).item()) < 1e-14
    val = abs(kb.im_a2.eval(0.7, 1.0).item().real)
    assert 0 < val < 10 * eps
    S = SampleSet.standard(1, x_radius=10, xi_max=32)
    rep = check_im_smallness(kb.full, S)
    assert rep.passed and rep.constants["c0_hat"] < 1.0


def test_split_reassembles_the_expression():
    # a = a0(xi) + sum_k f_k(x) g_k(xi), one pair per distinct f, constants in a0
    xs, xis = phase_symbols(2)
    bump = sp.Rational(1, 50) * sp.exp(-xs[0] ** 2 - xs[1] ** 2)
    a = build_kdv_type(VectorFieldSystem(2, [[1 + bump, bump], [0, 1 - bump]])).full
    a0, pairs = a.split
    assert not a0.has(*xs) and a0 != 0
    assert len(pairs) > 1 and len({f for f, _ in pairs}) == len(pairs)
    assert all(not f.has(*xis) and not g.has(*xs) for f, g in pairs)
    assert sp.expand(a0 + sum(f * g for f, g in pairs) - a.expr) == 0
    assert a.split is a.split  # derived once


# -- condition checks ------------------------------------------------------------


def test_grad_ellipticity_airy():
    rep = check_grad_ellipticity(catalog("airy"), SampleSet.standard(1))
    assert rep.passed
    assert np.isclose(rep.constants["C_lower"], 1.0 / 3.0, rtol=1e-6)
    assert np.isclose(rep.constants["C_upper"], 3.0, rtol=1e-6)


def test_grad_ellipticity_zk_sphere_oracle():
    a = catalog("zk")
    rep = check_grad_ellipticity(a, SampleSet.standard(2, x_points=5))
    assert rep.passed
    # dense scan over the unit sphere: min |grad a| / |xi|^2 is 1 at (0, +-1)
    ang = np.linspace(0, 2 * np.pi, 4001)
    xi = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    grad = a.grad_xi(np.zeros((1, 2)), xi).real
    ratio = np.linalg.norm(grad, axis=-1)
    assert np.isclose(ratio.min(), 1.0, atol=1e-6)
    assert np.isclose(rep.constants["C_lower"], 1.0, rtol=1e-6)


def test_grad_ellipticity_degenerate_fails():
    xs, xis = phase_symbols(2)
    a = SympySymbol(xis[0] ** 3, 2, 3.0, label="xi1^3")
    rep = check_grad_ellipticity(a, SampleSet.standard(2, x_points=5))
    assert rep.verdict == "fail"


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(0.01, 100.0))
def test_grad_ellipticity_scaling_invariance(scale):
    S = SampleSet.standard(1, x_points=9, num_shells=12)
    airy = catalog("airy")
    base = check_grad_ellipticity(airy, S)
    scaled = check_grad_ellipticity(SympySymbol(scale * airy.expr, 1, airy.order), S)
    assert scaled.verdict == base.verdict == "pass"
    # invariant combination: C_upper * C_lower is scale-free
    prod_base = base.constants["C_upper"] * base.constants["C_lower"]
    prod_scaled = scaled.constants["C_upper"] * scaled.constants["C_lower"]
    assert np.isclose(prod_base, prod_scaled, rtol=1e-8)


def test_x_decay_airy_zero():
    rep = check_x_decay(catalog("airy"), SampleSet.standard(1))
    assert rep.passed and rep.constants["eps_hat"] == 0.0


@pytest.mark.parametrize("eps,expect", [(0.05, "pass"), (5.0, "fail")])
def test_x_decay_gaussian_kdv(eps, expect):
    rep = check_x_decay(catalog("gaussian_kdv", eps=eps), SampleSet.standard(1))
    assert rep.verdict == expect


def test_im_smallness_real_symbol_zero():
    rep = check_im_smallness(catalog("airy"), SampleSet.standard(1))
    assert rep.passed and rep.constants["c0_hat"] == 0.0


def test_im_smallness_unit_imaginary_fails():
    xs, xis = phase_symbols(1)
    a = SympySymbol(xis[0] ** 3 + sp.I * xis[0] ** 2, 1, 3.0, label="xi^3+i xi^2")
    rep = check_im_smallness(a, SampleSet.standard(1))
    assert rep.verdict == "fail"
    # the fitted constant grows like <x>^2 over the scan box
    assert rep.constants["c0_hat"] > 50.0


def test_im_smallness_reads_the_whole_symbol():
    # the principal part is real, so |Im a| is |Im a_{m-1}|: the whole symbol
    # gets the verdict and c0_hat of its imaginary lower-order part alone
    xs, xis = phase_symbols(1)
    S = SampleSet.standard(1)
    whole = check_im_smallness(SympySymbol(xis[0] ** 3 + sp.I * xis[0] ** 2, 1, 3.0), S)
    lower = check_im_smallness(SympySymbol(sp.I * xis[0] ** 2, 1, 3.0), S)
    assert whole.verdict == lower.verdict == "fail"
    assert whole.constants["c0_hat"] == lower.constants["c0_hat"]


def _bumped(fn, index, direction):
    """fn with its output at one sample moved by one ulp towards direction."""

    def bumped(X, XI):
        out = np.array(fn(X, XI), dtype=complex)
        if index is not None:
            part = out.real if out[index].imag == 0 else out.imag
            part[index] = np.nextafter(part[index], direction)
        return out

    return bumped


@pytest.mark.parametrize("index", [None, 5, 17])
def test_worst_point_is_first_tie_of_a_flat_ratio(index):
    # both ratios are flat over the samples: |Im a| / (lam(|x|) |xi|^2) = 1,
    # since Im a is that product of the check's own operands (|x| as
    # SampleSet.x_norm takes it), and |grad_xi a| / |xi|^2 = 3.  A one-ulp
    # move of one sample changes the exact extreme, not the reported point,
    # which stays at the first sample.
    S = SampleSet.standard(1, num_shells=4, x_points=3)
    first = (tuple(S.X[0]), tuple(S.XI[0]))

    def im_part(X, XI):
        return 1j * (lam(np.sqrt(np.sum(X**2, axis=-1))) * np.abs(XI[..., 0]) ** 2)

    def grad(X, XI):
        return 3.0 * np.abs(XI[..., 0]) ** 2 + 0j

    a = FuncSymbol(
        _bumped(im_part, index, np.inf),
        1,
        3.0,
        derivs={((1,), (0,)): _bumped(grad, index, -np.inf)},
    )
    im = check_im_smallness(a, S)
    ell = check_grad_ellipticity(a, S)
    assert im.worst_point == first and ell.worst_point == first
    # the fitted constants stay exact: the bumped sample sets them
    assert (im.constants["c0_hat"] > 1.0) == (index is not None)
    assert (ell.worst_value < 3.0) == (index is not None)


# -- qualifying gradient directions for vector-field systems ------------------------


def test_qualifying_directions_reports_all():
    xs, _ = phase_symbols(2)
    sys2 = VectorFieldSystem(
        2,
        [
            [1 + sp.Rational(1, 100) * sp.exp(-xs[0] ** 2 - xs[1] ** 2), sp.Rational(1, 10)],
            [sp.Rational(1, 50), 1],
        ],
    )
    out = sys2.qualifying_directions()
    ks = {e["k"] for e in out}
    assert 1 in ks
    for e in out:
        assert e["C"] > 0
