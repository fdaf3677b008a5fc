"""Direct verification of the polynomial-weight commutation identity and the
regularized-bracket scalar inequality.

The commutation identity: for Op = Op_KN, w(x) = <x>^{2N} and p polynomial in
xi, Leibniz bookkeeping gives the exact finite expansion

    w Op(p) f = Op(p)(w f) - sum_{|beta| >= 1} (1/beta!) (D^beta w)(x)
                Op(d_xi^beta p) f,

whose |beta| = 1 block is the familiar 2N sum_j Op(i d_{xi_j} p) x_j
<x>^{2N-2} f term.  Both sides are assembled as dense operators and applied
to localized probe fields.

The scalar inequality: with <xi>_d = (d + |xi|^2)^{1/2},

    |xi|^{2(m-1)} / <xi>_d^{m-1} >= c |xi|^{m-1} - c1^{m/2} d^{(m-1)/2},

certified for the committed witnesses (c, c1) = (1/2, 4); on failure a log
grid of candidate constants is searched before reporting a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import sympy as sp

from .grid import Field, Grid, wavepacket_probes
from .symbol.core import Symbol, SympySymbol, multi_factorial, multi_indices_upto

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
    searched: bool = False

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
            "searched": self.searched,
            "passed": self.passed,
        }


@dataclass
class LemmaA1Report:
    residual: float
    N_w: int
    terms_used: int
    truncated: bool
    probe_count: int

    @property
    def passed(self) -> bool:
        return not self.truncated and self.residual <= 1e-10

    def as_dict(self) -> dict:
        return {
            "residual": float(self.residual),
            "N_w": self.N_w,
            "terms_used": self.terms_used,
            "truncated": self.truncated,
            "probes": self.probe_count,
            "passed": self.passed,
        }


def lemmatec1_residual(
    p_sym: Symbol,
    N_w: int,
    g: Grid,
    probes: Optional[list[Field]] = None,
    *,
    truncate_at: Optional[int] = None,
) -> LemmaA1Report:
    """Residual of the exact <x>^{2N} commutation identity on probe fields.

    Requires p polynomial in xi (the expansion terminates and the identity is
    exact); for other symbols only the truncated check is offered, flagged via
    truncate_at.  Operators act matrix-free through the KN fast path.
    """
    from .calculus import apply_fast

    if N_w < 1:
        raise ValueError("N_w must be a positive integer")
    if not isinstance(p_sym, SympySymbol):
        raise ValueError("the identity check needs a sympy-backed symbol")
    n = g.n
    xs, xis = p_sym._xs, p_sym._xis
    try:
        poly_deg = int(sp.Poly(p_sym.expr, *xis).total_degree())
        truncated = False
        beta_cap = min(poly_deg, 2 * N_w)
    except sp.PolynomialError:
        if truncate_at is None:
            raise ValueError(
                "symbol is not polynomial in xi; pass truncate_at for the flagged "
                "truncated check"
            )
        truncated = True
        beta_cap = int(truncate_at)

    w_expr = (1 + sum(v**2 for v in xs)) ** N_w
    w_vals = (1.0 + g.x_radius**2) ** N_w

    corrections = []  # (coefficient values D^beta w / beta!, derivative symbol)
    terms = 0
    for beta in multi_indices_upto(n, beta_cap):
        if sum(beta) < 1:
            continue
        dw = w_expr
        dp = p_sym.expr
        for i, b in enumerate(beta):
            if b:
                dw = sp.diff(dw, xs[i], b)
                dp = sp.diff(dp, xis[i], b)
        if dw == 0 or dp == 0:
            continue
        dw = sp.expand(dw * (-sp.I) ** sum(beta))  # D^beta w
        dw_fn = sp.lambdify(xs, dw, modules="numpy")
        dw_vals = np.asarray(
            dw_fn(*[g.x_mesh[..., i] for i in range(n)]), dtype=complex
        ) * np.ones(g.shape)
        dp_sym = SympySymbol(dp, n, p_sym.order - sum(beta), zero_nyquist=p_sym.zero_nyquist)
        corrections.append((dw_vals / multi_factorial(beta), dp_sym))
        terms += 1

    if not probes:
        # Gaussians of width w = 0.11 L must decay to ~1e-13 at the box seam,
        # exp(-(0.85 L / w)^2 / 2), which holds on every grid, and at the
        # Nyquist frequency, exp(-(xi_max w)^2 / 2), which needs N >= ~48
        if g.xi_max * 0.11 * g.L < 7.6:
            raise ValueError(
                "grid too coarse for machine-localized probes; increase N (need "
                "roughly N >= 48 per axis)"
            )
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
    return LemmaA1Report(
        residual=worst,
        N_w=N_w,
        terms_used=terms,
        truncated=truncated,
        probe_count=len(probes),
    )


def _a3_slack(xi_abs: np.ndarray, delta: float, m: int, c: float, c1: float) -> np.ndarray:
    bracket = np.sqrt(delta + xi_abs**2)
    lhs = xi_abs ** (2 * (m - 1)) / bracket ** (m - 1)
    rhs = c * xi_abs ** (m - 1) - c1 ** (m / 2.0) * delta ** ((m - 1) / 2.0)
    return lhs - rhs


def lemmatec3_scan(
    m_values: Sequence[int] = (2, 3),
    delta_list: Sequence[float] = (0.01, 0.1, 0.5, 1.0),
    xi_grid: Optional[np.ndarray] = None,
    *,
    c: float = 0.5,
    c1: float = 4.0,
    search_on_failure: bool = True,
) -> ScanReport:
    """Scan the regularized-bracket inequality for the committed (c, c1).

    If the committed witnesses fail anywhere, a log grid of candidates is
    searched before a failure is reported.
    """
    if xi_grid is None:
        xi_grid = np.linspace(-10.0, 10.0, 401)
    xi_abs = np.abs(np.asarray(xi_grid, dtype=float))
    for d in delta_list:
        if not (0.0 < d <= 1.0):
            raise ValueError("delta values must lie in (0, 1]")

    def worst_for(cc, cc1):
        worst = np.inf
        wit = {}
        for m in m_values:
            for d in delta_list:
                slack = _a3_slack(xi_abs, float(d), int(m), cc, cc1)
                j = int(np.argmin(slack))
                if slack[j] < worst:
                    worst = float(slack[j])
                    wit = {"xi": float(xi_grid[j]), "delta": float(d), "m": int(m)}
        return worst, wit

    worst, wit = worst_for(c, c1)
    searched = False
    if worst < -1e-10 and search_on_failure:
        searched = True
        for cc in np.logspace(-3, -0.05, 17):
            for cc1 in np.logspace(0.05, 2, 17):
                cand, cwit = worst_for(cc, cc1)
                if cand >= -1e-10:
                    c, c1, worst, wit = float(cc), float(cc1), cand, cwit
                    break
            else:
                continue
            break
    return ScanReport(
        lemma="regularized-bracket inequality",
        parameter_ranges={
            "m": list(int(m) for m in m_values),
            "delta": [float(d) for d in delta_list],
            "xi": [float(np.min(xi_grid)), float(np.max(xi_grid)), int(xi_grid.size)],
        },
        constants={"c": c, "c1": c1},
        worst_slack=worst,
        witness=wit,
        searched=searched,
    )
