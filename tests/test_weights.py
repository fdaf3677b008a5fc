"""Garding weight, Doi weight, exponential weight operators, admissibility."""

import numpy as np
import pytest

from weylab.grid import make_grid
from weylab.symbol import SampleSet, catalog, check_grad_ellipticity
from weylab.weights import (
    WeightFn,
    admissibility_report,
    doi_slack,
    doi_weight,
    exp_weight_operators,
    garding_weight,
    hamilton_slack,
)


@pytest.fixture(scope="module")
def lam():
    return WeightFn(2)


@pytest.fixture(scope="module")
def S1():
    return SampleSet.standard(1, x_radius=10.0, xi_max=64.0)


def test_weightfn_properties(lam):
    r = np.linspace(0, 50, 501)
    vals = lam(r)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)
    assert np.isclose(lam.primitive(1e8), np.pi / 2, atol=1e-6)
    with pytest.raises(ValueError):
        WeightFn(1)


# -- Garding weight ---------------------------------------------------------------


def test_garding_weight_airy_closed_form(lam, S1):
    # q = 2 C1 C^2 <xi>^{-2} x (3 xi^2) with C = 3; at (1, 1): 54/2 = 27
    a = catalog("airy")
    rep = check_grad_ellipticity(a, S1)
    gw = garding_weight(a, C1=1.0, ellipticity=rep, S=S1)
    xs = np.array([0.5, 1.0, -2.0])
    xis = np.array([1.0, 2.0, 0.5])
    got = gw.q.eval(xs[:, None], xis[:, None]).real.ravel()
    expect = 54.0 * xs * xis**2 / (1.0 + xis**2)
    assert np.allclose(got, expect, rtol=1e-12)


def test_garding_weight_zero_scale(lam, S1):
    a = catalog("airy")
    gw = garding_weight(a, C1=0.0, S=S1)
    assert np.max(np.abs(gw.q.eval(S1.X[:100], S1.XI[:100]))) == 0.0
    fit = hamilton_slack(a, gw.q, S1)
    assert fit.C1 == 0.0 and not fit.passed


def test_garding_weight_needs_sympy_symbol(S1):
    from weylab.symbol import FuncSymbol

    f = FuncSymbol(lambda X, XI: XI[..., 0] ** 3, 1, 3.0, real_valued=True)
    with pytest.raises(TypeError):
        garding_weight(f, S=S1)


def test_garding_weight_rejects_degenerate():
    from weylab.symbol import SympySymbol

    a = SympySymbol(1, 1, 0.0)  # constant symbol: gradient vanishes identically
    with pytest.raises(ValueError):
        garding_weight(a, S=SampleSet.standard(1))


def test_garding_envelope_bounds_finite(lam, S1):
    gw = garding_weight(catalog("airy"), C1=1.0, S=S1)
    assert all(np.isfinite(v) for v in gw.bound_fit.values())
    # beta = 0 entries are <x>-weighted, so constants stay O(100) on this box
    assert max(gw.bound_fit.values()) < 500.0


def test_garding_rescaling_property(lam, S1):
    a = catalog("airy")
    gw = garding_weight(a, C1=1.0, S=S1)
    gw2 = gw.rescaled(2.0)
    pt = (np.array([[1.3]]), np.array([[0.7]]))
    assert np.isclose(
        gw2.q.eval(*pt).item().real, 2.0 * gw.q.eval(*pt).item().real, rtol=1e-12
    )


def test_hamilton_slack_airy_anchor(lam, S1):
    # H_a q = 162 xi^4 <xi>^{-2} >= 81 |xi|^2 on the shells |xi| >= 1
    a = catalog("airy")
    gw = garding_weight(a, C1=1.0, S=S1)
    fit = hamilton_slack(a, gw.q, S1)
    assert fit.passed
    assert fit.C1 >= 81.0 - 1e-9
    assert np.isclose(fit.C1, 81.0, rtol=1e-6)  # minimum attained on the |xi| = 1 shell


def test_hamilton_slack_zk(lam):
    S2 = SampleSet.standard(2, x_radius=10.0, xi_max=32.0, x_points=9)
    a = catalog("zk")
    gw = garding_weight(a, S=S2)
    fit = hamilton_slack(a, gw.q, S2)
    assert fit.passed and fit.C1 > 0


# -- Doi weight -------------------------------------------------------------------


@pytest.fixture(scope="module")
def airy_doi(lam, S1):
    a = catalog("airy")
    gw = garding_weight(a, S=S1)
    return a, gw, doi_weight(a, gw, lam, eps=0.1, S=S1)


def test_doi_weight_three_regions(airy_doi, lam):
    a, gw, dw = airy_doi
    # plateau probe: q/<x> >= 2 eps -> p = f(|q|) + 2 eps on the unscaled symbol
    x_pt, xi_pt = 5.0, 2.0
    qv = gw.q.eval(x_pt, xi_pt).item().real
    assert qv / np.hypot(1.0, x_pt) >= 2 * dw.eps
    assert dw.region(x_pt, xi_pt).item() == 1
    pv = dw.base_symbol.eval(x_pt, xi_pt).item().real
    assert np.isclose(pv, dw.f(abs(qv)).item() + 2 * dw.eps, rtol=1e-12)
    # center region: q = 0 -> p = 0
    assert dw.region(0.0, 1.0).item() == 0
    assert abs(dw.base_symbol.eval(0.0, 1.0).item().real) < 1e-14
    # negative plateau
    pm = dw.base_symbol.eval(-5.0, 2.0).item().real
    qm = gw.q.eval(-5.0, 2.0).item().real
    assert np.isclose(pm, -(dw.f(abs(qm)).item() + 2 * dw.eps), rtol=1e-12)


def test_doi_weight_bounded_and_real(airy_doi, S1):
    _, _, dw = airy_doi
    vals = dw.symbol.eval(S1.X, S1.XI)
    assert np.max(np.abs(vals.imag)) == 0.0
    assert np.max(np.abs(vals.real)) <= 1.5 + 1e-9


def test_doi_f_prime_dominates_lam_tilde(airy_doi):
    _, _, dw = airy_doi
    t = np.linspace(0.0, 200.0 * dw.K, 4001)
    assert np.all(dw.f_prime(t) - dw.lam_tilde(t) >= -1e-15)
    # f nondecreasing, nonnegative
    fv = dw.f(t)
    assert np.all(fv >= -1e-15) and np.all(np.diff(fv) >= -1e-12)


def test_doi_f_derivative_bound(airy_doi):
    _, _, dw = airy_doi
    fit = dw.f_derivative_bound_fit()
    # the constants scale with K (the lam_tilde transition sits at t = 10K);
    # the check is that they are finite and moderate, as the bound asserts
    assert all(np.isfinite(v) and v < 500.0 for v in fit.values())


def test_doi_weight_chain_rule_against_fd(airy_doi):
    # independent re-implementation oracle: central differences on the assembled p
    _, _, dw = airy_doi
    p = dw.base_symbol
    for x0, xi0 in [(5.0, 2.0), (0.3, 1.5), (-2.0, 3.0), (1.2, -1.1)]:
        h = 1e-5
        fd_x = (p.eval(x0 + h, xi0) - p.eval(x0 - h, xi0)).item().real / (2 * h)
        an_x = p.deriv((0,), (1,), x0, xi0).item().real
        assert abs(fd_x - an_x) < 1e-6 * max(1.0, abs(an_x))
        fd_xi = (p.eval(x0, xi0 + h) - p.eval(x0, xi0 - h)).item().real / (2 * h)
        an_xi = p.deriv((1,), (0,), x0, xi0).item().real
        assert abs(fd_xi - an_xi) < 1e-6 * max(1.0, abs(an_xi))


def test_doi_slack_airy_and_gaussian(lam, S1):
    for name, kw in [("airy", {}), ("gaussian_kdv", dict(eps=0.05))]:
        a = catalog(name, **kw)
        gw = garding_weight(a, S=S1)
        dw = doi_weight(a, gw, lam, eps=0.1, S=S1)
        fit = doi_slack(a, dw, lam, S1)
        assert fit.passed and fit.C1 > 0


def test_doi_slack_zero_weight_fails(lam, S1):
    from weylab.symbol import zero_symbol

    fit = doi_slack(catalog("airy"), zero_symbol(1), lam, S1)
    assert fit.C1 == 0.0 and not fit.passed


def test_doi_slack_stable_under_grid_refinement(lam):
    # constant-coefficient symbol: fitted C bounded away from 0 as xi_max grows
    a = catalog("airy")
    cs = []
    for xi_max in (32.0, 64.0, 128.0):
        S = SampleSet.standard(1, x_radius=10.0, xi_max=xi_max)
        gw = garding_weight(a, S=S)
        dw = doi_weight(a, gw, lam, eps=0.1, S=S)
        cs.append(doi_slack(a, dw, lam, S).C1)
    assert min(cs) > 0
    assert max(cs) / min(cs) < 3.0


def test_doi_weight_rejects_bad_eps(lam, S1):
    a = catalog("airy")
    gw = garding_weight(a, S=S1)
    with pytest.raises(ValueError):
        doi_weight(a, gw, lam, eps=1.5, S=S1)


# -- exponential weights -------------------------------------------------------------


def test_exp_weights_identity_for_zero_p(lam):
    from weylab.symbol import zero_symbol

    g = make_grid(1, 8.0, 64)
    pair = exp_weight_operators(zero_symbol(1), g)
    assert np.allclose(pair.E.matrix, np.eye(g.size), atol=1e-12)
    assert pair.conjugation_C < 1e-10


def test_exp_weights_norm_equivalence(airy_doi):
    _, _, dw = airy_doi
    g = make_grid(1, 8.0, 64)
    pair = exp_weight_operators(dw, g)
    c1, c2 = pair.equivalence_fit(0.0)
    assert c1 > 0 and c2 < np.inf and c1 <= c2
    assert pair.conjugation_C < np.inf


def test_exp_weights_conjugation_order(airy_doi):
    # ||(Et E - I) u||_0 / ||u||_{-2} bounded across probe frequencies
    _, _, dw = airy_doi
    fits = {}
    for N in (64, 128):
        pair = exp_weight_operators(dw, make_grid(1, 8.0, N))
        fits[N] = pair.conjugation_C
    ratio = fits[128] / fits[64]
    assert 0.4 <= ratio <= 2.5


def test_probe_generator_reproduces_band_probes():
    # reference: the exp-weight probe loop the shared generator replaced
    from weylab.grid import Field, wavepacket_probes

    g = make_grid(1, 8.0, 64)
    rng = np.random.default_rng(0)
    ref = []
    kcap = g.xi_max / 3.0
    for _ in range(24):
        center = rng.uniform(-0.3 * g.L, 0.3 * g.L, size=g.n)
        kvec = rng.uniform(-kcap, kcap, size=g.n)
        width = rng.uniform(0.08 * g.L, 0.15 * g.L)
        mesh = g.x_mesh
        sq = np.zeros(g.shape)
        ph = np.zeros(g.shape)
        for d in range(g.n):
            sq += (mesh[..., d] - center[d]) ** 2
            ph += kvec[d] * mesh[..., d]
        ref.append(Field(g, np.exp(-sq / (2 * width**2)) * np.exp(1j * ph)))
    got = wavepacket_probes(
        g, 24, np.random.default_rng(0), center=(-0.3, 0.3), carrier=(-1 / 3, 1 / 3), width=(0.08, 0.15)
    )
    assert len(got) == 24
    for u, v in zip(got, ref):
        assert np.array_equal(u.values, v.values)


# -- bundled admissibility -------------------------------------------------------------


@pytest.mark.parametrize(
    "name,kw",
    [
        ("airy", {}),
        ("gaussian_kdv", dict(eps=0.05)),
    ],
)
def test_admissibility_pass_1d(lam, S1, name, kw):
    rep = admissibility_report(catalog(name, **kw), lam, S1)
    assert rep.passed
    assert rep.slack is not None and rep.slack.C1 > 0


def test_admissibility_fail_cases(lam, S1):
    assert admissibility_report(catalog("gaussian_kdv", eps=5.0), lam, S1).verdict == "fail"
    from weylab.symbol import SympySymbol, phase_symbols

    _, xis = phase_symbols(2)
    bad = SympySymbol(xis[0] ** 3, 2, 3.0)
    S2 = SampleSet.standard(2, x_points=5)
    assert admissibility_report(bad, lam, S2).verdict == "fail"
