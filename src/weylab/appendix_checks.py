"""Direct verification of the polynomial-weight commutation identity and the
regularized-bracket scalar inequality.

The commutation identity: for Op = Op_KN, w(x) = <x>^{2N} and p polynomial in
xi, Leibniz bookkeeping gives the exact finite expansion

    w Op(p) f = Op(p)(w f) - sum_{|beta| >= 1} (1/beta!) (D^beta w)(x)
                Op(d_xi^beta p) f,

whose |beta| = 1 block is the familiar 2N sum_j Op(i d_{xi_j} p) x_j
<x>^{2N-2} f term.  Both sides are applied to localized probe fields, each
Op through `calculus.apply_fast`, the KN tag of `calculus.EvolutionOperator`
(one Fourier multiplier each when p does not depend on x).

The scalar inequality: with <xi>_d = (d + |xi|^2)^{1/2},

    |xi|^{2(m-1)} / <xi>_d^{m-1} >= c |xi|^{m-1} - c1^{m/2} d^{(m-1)/2},

certified for the fixed witnesses (c, c1) = (1/2, 4).  They hold for every
d > 0 and m <= 3: where |xi|^2 >= d, <xi>_d^{m-1} <= 2^{(m-1)/2} |xi|^{m-1}
<= 2 |xi|^{m-1}, and where |xi|^2 < d the right side is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import sympy as sp

from .grid import Field, Grid, wavepacket_probes
from .symbol.core import (
    Symbol,
    SympySymbol,
    _derivative_expr,
    _lambdified,
    _xi_degree,
    multi_factorial,
    multi_indices_upto,
)

__all__ = [
    "ScanReport",
    "LemmaA1Report",
    "lemmatec1_residual",
    "lemmatec3_scan",
]


@dataclass
class ScanReport:
    lemma: str
    parameter_ranges: dict
    constants: dict
    worst_slack: float
    witness: dict

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -1e-10

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "parameter_ranges": self.parameter_ranges,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "worst_slack": float(self.worst_slack),
            "witness": self.witness,
            "passed": self.passed,
        }


@dataclass
class LemmaA1Report:
    residual: float
    terms_used: int

    @property
    def passed(self) -> bool:
        return self.residual <= 1e-10


def lemmatec1_residual(p_sym: Symbol, N_w: int, g: Grid) -> LemmaA1Report:
    """Residual of the exact <x>^{2N} commutation identity on seeded probe fields.

    Requires p polynomial in xi, so that the expansion terminates and the
    identity is exact; any other symbol raises ValueError.  Operators act
    through `calculus.apply_fast` (KN).
    """
    from .calculus import apply_fast

    if N_w < 1:
        raise ValueError("N_w must be a positive integer")
    if not isinstance(p_sym, SympySymbol):
        raise ValueError("the identity check needs a sympy-backed symbol")
    # Gaussians of width w = 0.11 L must decay to ~1e-13 at the box seam,
    # exp(-(0.85 L / w)^2 / 2), which holds on every grid, and at the
    # Nyquist frequency, exp(-(xi_max w)^2 / 2), which needs N >= ~48
    if g.xi_max * 0.11 * g.L < 7.6:
        raise ValueError(
            "grid too coarse for machine-localized probes; increase N (need "
            "roughly N >= 48 per axis)"
        )
    n = g.n
    poly_deg = _xi_degree(p_sym.expr, p_sym._xis)
    if poly_deg is None:
        raise ValueError("symbol is not polynomial in xi; the identity holds only for polynomial symbols")
    beta_cap = min(poly_deg, 2 * N_w)

    w_expr = (1 + sum(v**2 for v in p_sym._xs)) ** N_w
    w_vals = (1.0 + g.x_radius**2) ** N_w

    corrections = []  # (coefficient values D^beta w / beta!, derivative symbol)
    zero = (0,) * n
    for beta in multi_indices_upto(n, beta_cap):
        if sum(beta) < 1:
            continue
        dw = _derivative_expr(w_expr, n, zero, beta)
        dp = _derivative_expr(p_sym.expr, n, beta, zero)
        if dw == 0 or dp == 0:
            continue
        dw = sp.expand(dw * (-sp.I) ** sum(beta))  # D^beta w
        dw_vals = _lambdified(dw, n)(g.x_mesh, g.x_mesh)
        dp_sym = SympySymbol(dp, n, p_sym.order - sum(beta), zero_nyquist=p_sym.zero_nyquist)
        corrections.append((dw_vals / multi_factorial(beta), dp_sym))

    probes = wavepacket_probes(
        g, 4, np.random.default_rng(12345), center=(-0.1, 0.1), carrier=(-0.15, 0.15), width=(0.11, 0.11)
    )
    worst = 0.0
    for u in probes:
        lhs = w_vals * apply_fast(p_sym, u).values
        rhs = apply_fast(p_sym, Field(g, w_vals * u.values)).values
        for cvals, dp_sym in corrections:
            rhs = rhs - cvals * apply_fast(dp_sym, u).values
        scale = np.linalg.norm(lhs.ravel())
        if scale == 0:
            continue
        worst = max(worst, float(np.linalg.norm((lhs - rhs).ravel()) / scale))
    return LemmaA1Report(residual=worst, terms_used=len(corrections))


A3_C, A3_C1 = 0.5, 4.0  # the witnesses (c, c1) of the scalar inequality
# the orders m and the xi samples of the scan
A3_M_VALUES = (2, 3)
A3_XI = np.linspace(-10.0, 10.0, 401)
A3_XI.flags.writeable = False


def _a3_slack(xi_abs: np.ndarray, delta: float, m: int) -> np.ndarray:
    bracket = np.sqrt(delta + xi_abs**2)
    lhs = xi_abs ** (2 * (m - 1)) / bracket ** (m - 1)
    rhs = A3_C * xi_abs ** (m - 1) - A3_C1 ** (m / 2.0) * delta ** ((m - 1) / 2.0)
    return lhs - rhs


def lemmatec3_scan(delta_list: Sequence[float] = (0.01, 0.1, 0.5, 1.0)) -> ScanReport:
    """Scan the regularized-bracket inequality for the witnesses (A3_C, A3_C1)
    over every m in A3_M_VALUES, delta given and xi in A3_XI; the worst slack
    and where it falls."""
    xi_abs = np.abs(A3_XI)
    if not delta_list:
        raise ValueError("the scan needs at least one delta")
    for d in delta_list:
        if not (0.0 < d <= 1.0):
            raise ValueError("delta values must lie in (0, 1]")
    worst = np.inf
    wit = {}
    for m in A3_M_VALUES:
        for d in delta_list:
            slack = _a3_slack(xi_abs, float(d), m)
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                wit = {"xi": float(A3_XI[j]), "delta": float(d), "m": m}
    return ScanReport(
        lemma="regularized-bracket inequality",
        parameter_ranges={
            "m": list(A3_M_VALUES),
            "delta": [float(d) for d in delta_list],
            "xi": [float(np.min(A3_XI)), float(np.max(A3_XI)), A3_XI.size],
        },
        constants={"c": A3_C, "c1": A3_C1},
        worst_slack=worst,
        witness=wit,
    )
