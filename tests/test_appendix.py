"""Commutation-identity residuals and the scalar inequality scan."""

import numpy as np
import pytest
import sympy as sp

from weylab.appendix_checks import _a3_slack, lemmatec1_residual, lemmatec3_scan
from weylab.grid import make_grid
from weylab.symbol.core import SympySymbol, phase_symbols


@pytest.fixture(scope="module")
def g64():
    return make_grid(1, 10.0, 64)


def _poly_symbol(expr, n=1, order=None, **kw):
    xs, xis = phase_symbols(n)
    if order is None:
        order = sp.Poly(expr, *xis).total_degree()
    return SympySymbol(expr, n, float(order), zero_nyquist=False, **kw)


def test_identity_p_xi_N1(g64):
    # <x>^2 D f = D <x>^2 f + 2 i x f: the classic commutator
    xs, xis = phase_symbols(1)
    rep = lemmatec1_residual(_poly_symbol(xis[0]), 1, g64)
    assert rep.passed and rep.residual <= 1e-10
    assert rep.terms_used == 1


def test_identity_constant_symbol(g64):
    # both sides reduce to <x>^{2N} f; the only residual is FFT round-trip noise
    xs, xis = phase_symbols(1)
    rep = lemmatec1_residual(_poly_symbol(sp.Integer(1), order=0), 1, g64)
    assert rep.residual <= 1e-12 and rep.terms_used == 0


@pytest.mark.parametrize("N_w", [1, 2])
@pytest.mark.parametrize(
    "expr_idx,degree", [(0, 2), (1, 3), (2, 3)]
)
def test_identity_polynomials_dense_oracle(g64, N_w, expr_idx, degree):
    xs, xis = phase_symbols(1)
    exprs = [
        xis[0] ** 2,
        xis[0] ** 3,
        xis[0] ** 3 + (1 + xs[0] ** 2 / 50) * xis[0],  # x-dependent coefficients
    ]
    rep = lemmatec1_residual(_poly_symbol(exprs[expr_idx]), N_w, g64)
    assert rep.passed and rep.residual <= 1e-10


def test_identity_2d_grid():
    # 2D probes cannot localize quite as hard at desk resolution; the identity
    # still verifies far below any approximation scale
    g = make_grid(2, 6.0, 48)
    xs, xis = phase_symbols(2)
    rep = lemmatec1_residual(
        _poly_symbol(xis[0] * (xis[0] ** 2 + xis[1] ** 2), n=2), 1, g
    )
    assert rep.residual <= 1e-8


def test_probes_reject_coarse_grid():
    g = make_grid(2, 6.0, 16)
    xs, xis = phase_symbols(2)
    with pytest.raises(ValueError):
        lemmatec1_residual(_poly_symbol(xis[0], n=2), 1, g)


def test_identity_rejects_nonpolynomial(g64):
    xs, xis = phase_symbols(1)
    smooth = SympySymbol((1 + xis[0] ** 2) ** sp.Rational(1, 2), 1, 1.0, zero_nyquist=False)
    with pytest.raises(ValueError):
        lemmatec1_residual(smooth, 1, g64)


def test_scan_anchor_values():
    # xi = 0, m = 3: slack is exactly c1^{3/2} delta > 0
    slack = _a3_slack(np.array([0.0]), 0.5, 3)
    assert np.isclose(np.min(slack), 4.0**1.5 * 0.5, rtol=1e-12)


def test_scan_large_xi_asymptotics():
    xi = np.linspace(50.0, 100.0, 101)
    assert min(np.min(_a3_slack(xi, 1.0, m)) for m in (2, 3)) > 0


def test_scan_standard_pass():
    rep = lemmatec3_scan()
    assert rep.passed
    assert rep.constants == {"c": 0.5, "c1": 4.0}
    assert rep.worst_slack >= 0


def test_scan_rejects_bad_delta():
    with pytest.raises(ValueError):
        lemmatec3_scan(delta_list=(2.0,))
    with pytest.raises(ValueError):
        lemmatec3_scan(delta_list=())
