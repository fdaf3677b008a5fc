"""Admissibility weights: spatial decay lam, Garding weight q, Doi weight p,
and the exponential-weight operators E = Op^w(e^p), Et = Op^w(e^{-p}).

The Garding weight is the explicit

    q(x, xi) = 2 C1 C^2 <xi>^{-(m-1)} sum_j x_j d_{xi_j} a(x, xi),

with C the two-sided gradient-ellipticity constant.  The Doi weight follows
the three-region construction

    p = (q/<x>) psi_0 + (f(|q|) + 2 eps)(psi_+ - psi_-),

with K >= 1 such that |q| <= K <x>, lam_tilde(t) = lam(t/K - 10) (lam frozen
at lam(0) for nonpositive arguments), f the exact primitive of lam_tilde (so
f >= 0 and f' = lam_tilde >= lam(|x|) on the outer regions), and smooth
cutoffs psi_* = phi_*(q/<x>) built from phi(t) = g(t-1)/(g(t-1)+g(2-t)),
g(s) = exp(-1/s) for s > 0.

Because e^p must be quantized on a grid, p is rescaled by rho <= 1 so that
sup |p| stays within a configurable cap; the lower bound H_a p >= C lam
|xi|^{m-1} - C' survives with C scaled by rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import sympy as sp

from .calculus import DenseOperator, quantize_dense
from .grid import Field, Grid, apply_bessel, l2_norm, sobolev_norm, wavepacket_probes
from .hamilton import hamilton_derivative, qdelta_symbol
from .symbol.checks import (
    XI_FLOOR,
    ConditionReport,
    SampleSet,
    check_grad_ellipticity,
    check_im_smallness,
    check_x_decay,
)
from .symbol.core import FirstOrderSymbol, Symbol, multi_indices_upto

__all__ = [
    "WeightFn",
    "GardingWeight",
    "DoiWeight",
    "ExpWeightPair",
    "SlackFit",
    "AdmissibilityReport",
    "garding_weight",
    "hamilton_slack",
    "doi_weight",
    "doi_slack",
    "exp_weight_operators",
    "admissibility_report",
]


class WeightFn:
    """lam(r) = <r>^{-N_w} with exact derivative and primitive closures."""

    def __init__(self, exponent: int = 2):
        exponent = int(exponent)
        if exponent <= 1:
            raise ValueError("weight exponent must exceed 1 (lam must be integrable)")
        self.exponent = exponent
        r = sp.Symbol("r", real=True)
        expr = (1 + r**2) ** (-sp.Rational(exponent, 2))
        self._expr = expr
        self._fns = {0: sp.lambdify(r, expr, modules="numpy")}
        self._r = r
        prim = sp.integrate(expr, (r, 0, sp.Symbol("t", positive=True)))
        self._prim_fn = sp.lambdify(sp.Symbol("t", positive=True), prim, modules="numpy")

    def __call__(self, r) -> np.ndarray:
        return np.asarray(self._fns[0](np.asarray(r, dtype=float)), dtype=float)

    def deriv(self, r, order: int = 1) -> np.ndarray:
        if order not in self._fns:
            self._fns[order] = sp.lambdify(
                self._r, sp.diff(self._expr, self._r, order), modules="numpy"
            )
        return np.asarray(self._fns[order](np.asarray(r, dtype=float)), dtype=float)

    def primitive(self, t) -> np.ndarray:
        """Integral of lam over [0, t], exact (closed form)."""
        t = np.asarray(t, dtype=float)
        return np.asarray(self._prim_fn(np.maximum(t, 0.0)), dtype=float)

    def as_dict(self) -> dict:
        return {"family": "<r>^-N", "exponent": self.exponent}


# -- slack fitting --------------------------------------------------------------


@dataclass
class SlackFit:
    """Lower-bound fit values >= C1 * weight - C2 over a sample set."""

    C1: float
    C2: float
    verdict: str
    description: str
    X: np.ndarray = field(repr=False)
    XI: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def slack(self) -> np.ndarray:
        return self.values - self.C1 * self.weight + self.C2

    def to_csv(self, path) -> None:
        import csv

        n = self.X.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                [f"x{i + 1}" for i in range(n)]
                + [f"xi{i + 1}" for i in range(n)]
                + ["value", "weight", "slack"]
            )
            slack = self.slack
            for i in range(self.X.shape[0]):
                w.writerow(
                    list(self.X[i]) + list(self.XI[i]) + [self.values[i], self.weight[i], slack[i]]
                )

    def as_dict(self) -> dict:
        return {
            "C1": float(self.C1),
            "C2": float(self.C2),
            "verdict": self.verdict,
            "description": self.description,
        }


def _fit_lower_bound(values, weight, S: SampleSet, description: str) -> SlackFit:
    """Fit the largest C1 with values >= C1 weight - C2 and C2 not growing
    toward the outer frequency shells."""
    ratios = values / weight
    min_ratio = float(np.min(ratios))
    if min_ratio > 0:
        return SlackFit(min_ratio, 0.0, "pass", description, S.X, S.XI, values, weight)
    # interior dips: anchor the slope on the outer quarter of the shells and
    # absorb the dips into C2, unless the deficit grows at the boundary
    outer = S.shell_index >= (3 * len(S.shell_radii)) // 4
    slope = 0.5 * float(np.min(ratios[outer])) if np.any(outer) else 0.0
    if slope <= 0:
        return SlackFit(0.0, float(-min_ratio), "fail", description, S.X, S.XI, values, weight)
    deficit = slope * weight - values
    C2 = max(0.0, float(np.max(deficit)))
    top = S.shell_index >= len(S.shell_radii) - 2
    deficit_top = float(np.max(deficit[top])) if np.any(top) else -np.inf
    verdict = "pass" if deficit_top <= C2 * (1 + 1e-9) + 1e-12 else "inconclusive"
    return SlackFit(slope, C2, verdict, description, S.X, S.XI, values, weight)


# -- Garding weight ---------------------------------------------------------------


@dataclass
class GardingWeight:
    """Explicit Garding weight with its scale constants and envelope fit."""

    q: Symbol
    C1: float
    C: float
    source: Symbol
    bound_fit: dict = field(default_factory=dict)

    def rescaled(self, C2: float) -> "GardingWeight":
        """q' = (C2/C1) q is again a Garding weight, with constant C2."""
        if self.C1 == 0:
            raise ValueError("cannot rescale a degenerate (C1 = 0) weight")
        from .symbol.core import scale_symbol

        factor = C2 / self.C1
        return GardingWeight(
            q=scale_symbol(self.q, factor), C1=C2, C=self.C, source=self.source, bound_fit={}
        )


def _envelope_fit(q: Symbol, S: SampleSet, max_total: int = 2) -> dict:
    """Fitted constants of |d^beta_x d^alpha_xi q| <= C <x><xi>^{-|alpha|}
    (beta = 0) or C <xi>^{-|alpha|} (|beta| >= 1)."""
    xw = np.sqrt(1.0 + S.x_norm**2)
    bes = np.sqrt(1.0 + S.xi_norm**2)
    out = {}
    for alpha in multi_indices_upto(q.n, max_total):
        for beta in multi_indices_upto(q.n, max_total - sum(alpha)):
            vals = np.abs(q.deriv(alpha, beta, S.X, S.XI))
            envelope = bes ** (-float(sum(alpha)))
            if sum(beta) == 0:
                envelope = envelope * xw
            out[f"alpha={alpha},beta={beta}"] = float(np.max(vals / envelope))
    return out


def garding_weight(
    a: Symbol,
    C1: Optional[float] = None,
    ellipticity: Optional[ConditionReport] = None,
    S: Optional[SampleSet] = None,
) -> GardingWeight:
    """Build q = 2 C1 C^2 <xi>^{-(m-1)} sum_j x_j d_{xi_j} a.

    Requires a sympy-backed symbol (TypeError otherwise) and a (passing)
    gradient-ellipticity report, which supplies C.  C1 defaults to 1/(2 C^2),
    normalizing the prefactor to 1.
    """
    if S is None:
        S = SampleSet.standard(a.n)
    if ellipticity is None:
        ellipticity = check_grad_ellipticity(a, S)
    if ellipticity.verdict == "fail":
        raise ValueError("symbol failed gradient ellipticity; no Garding weight available")
    C = float(ellipticity.constants["C"])
    if C1 is None:
        C1 = 1.0 / (2.0 * C**2)
    C1 = float(C1)
    q = qdelta_symbol(a, 1.0, 2.0 * C1 * C**2)
    gw = GardingWeight(q=q, C1=C1, C=C, source=a)
    gw.bound_fit = _envelope_fit(q, S)
    return gw


def hamilton_slack(a: Symbol, q: Symbol, S: SampleSet) -> SlackFit:
    """Fit H_a q >= C1 |xi|^{m-1} - C2 over the sample set."""
    H = hamilton_derivative(a, q, S.X, S.XI)
    w = np.maximum(S.xi_norm, XI_FLOOR) ** (a.order - 1.0)
    return _fit_lower_bound(H, w, S, "H_a q >= C1 |xi|^(m-1) - C2")


# -- Doi weight -------------------------------------------------------------------


def _cutoff_phi(t: np.ndarray) -> np.ndarray:
    """Smooth step: 0 for t <= 1, 1 for t >= 2, monotone in between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 2.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    s = t[mid] - 1.0
    g1 = np.exp(-1.0 / s)
    g2 = np.exp(-1.0 / (1.0 - s))
    out[mid] = g1 / (g1 + g2)
    return out


def _cutoff_phi_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 1.0) & (t < 2.0)
    s = t[mid] - 1.0
    g1 = np.exp(-1.0 / s)
    g2 = np.exp(-1.0 / (1.0 - s))
    dg1 = g1 / s**2
    dg2 = g2 / (1.0 - s) ** 2
    out[mid] = (dg1 * g2 + g1 * dg2) / (g1 + g2) ** 2
    return out


@dataclass
class DoiWeight:
    """Order-zero Doi weight p (rescaled for quantization) and its ingredients."""

    symbol: Symbol
    base_symbol: Symbol
    K: float
    eps: float
    rho: float
    lam: WeightFn
    garding: GardingWeight

    def lam_tilde(self, t) -> np.ndarray:
        """lam(t/K - 10), frozen at lam(0) for nonpositive arguments."""
        t = np.asarray(t, dtype=float)
        arg = t / self.K - 10.0
        return np.where(arg <= 0.0, self.lam(0.0), self.lam(np.maximum(arg, 0.0)))

    def f(self, t) -> np.ndarray:
        """Exact primitive of lam_tilde; nonnegative, nondecreasing."""
        t = np.asarray(t, dtype=float)
        t0 = 10.0 * self.K
        lam0 = float(self.lam(0.0))
        inner = t * lam0
        outer = t0 * lam0 + self.K * self.lam.primitive((t - t0) / self.K)
        return np.where(t <= t0, inner, outer)

    def f_prime(self, t) -> np.ndarray:
        """f' = lam_tilde by construction."""
        return self.lam_tilde(t)

    def region(self, x, xi) -> np.ndarray:
        """Region code per point: 0 where psi_0 = 1, +-1 on the outer plateaus,
        9 inside the cutoff transitions."""
        q_vals = np.real(self.garding.q.eval(x, xi))
        from .symbol.core import as_points

        X = as_points(x, self.symbol.n)
        xw = np.sqrt(1.0 + np.sum(X**2, axis=-1))
        r = q_vals / xw
        out = np.full(r.shape, 9, dtype=int)
        out[np.abs(r) <= self.eps] = 0
        out[r >= 2.0 * self.eps] = 1
        out[r <= -2.0 * self.eps] = -1
        return out

    def f_derivative_bound_fit(self, orders=(1, 2), t_max: Optional[float] = None) -> dict:
        """Fit C_m in |f^(m)(t)| <= C_m (lam(0) + int_0^t lam) (1 + t)^{-m}."""
        t_max = t_max or 100.0 * self.K
        t = np.linspace(0.0, t_max, 4001)
        envelope = (float(self.lam(0.0)) + self.lam.primitive(t))
        out = {}
        for mm in orders:
            if mm == 1:
                vals = np.abs(self.f_prime(t))
            else:
                h = 1e-4 * (1.0 + t)
                vals = np.abs((self.f_prime(t + h) - self.f_prime(t - h)) / (2 * h))
            out[f"m={mm}"] = float(np.max(vals * (1.0 + t) ** mm / envelope))
        return out


def doi_weight(
    a: Symbol,
    q: GardingWeight,
    lam: WeightFn,
    eps: float = 0.1,
    *,
    S: Optional[SampleSet] = None,
    p_cap: float = 1.5,
    rescale: Union[str, float] = "auto",
) -> DoiWeight:
    """Assemble the Doi weight p from a Garding weight (three-region formula).

    rescale='auto' caps sup|p| at p_cap so Op^w(e^p) stays well conditioned;
    a float forces that scaling factor.  The unscaled symbol is kept too.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("cutoff scale eps must lie in (0, 1)")
    if S is None:
        S = SampleSet.standard(a.n)
    n = a.n
    qsym = q.q

    xw_S = np.sqrt(1.0 + S.x_norm**2)
    q_over = np.abs(np.real(qsym.eval(S.X, S.XI))) / xw_S
    K_fit = float(np.max(q_over))
    if not np.isfinite(K_fit) or K_fit > 1e6:
        raise ValueError("K fit diverges: q violates the Garding envelope bounds")
    K = max(1.0, K_fit)

    lam0 = float(lam(0.0))
    t0 = 10.0 * K

    def f_val(t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= t0, t * lam0, t0 * lam0 + K * lam.primitive((t - t0) / K))

    def lam_tilde(t):
        t = np.asarray(t, dtype=float)
        arg = t / K - 10.0
        return np.where(arg <= 0.0, lam0, lam(np.maximum(arg, 0.0)))

    def pieces(X, XI):
        qv = np.real(qsym._deriv_arrays((0,) * n, (0,) * n, X, XI))
        xw = np.sqrt(1.0 + np.sum(X**2, axis=-1))
        r = qv / xw
        phip = _cutoff_phi(r / eps)
        phim = _cutoff_phi(-r / eps)
        dphip = _cutoff_phi_prime(r / eps) / eps
        dphim = -_cutoff_phi_prime(-r / eps) / eps
        return qv, xw, r, phip, phim, dphip, dphim

    def p_eval(X, XI):
        qv, xw, r, phip, phim, _, _ = pieces(X, XI)
        psi0 = 1.0 - phip - phim
        return r * psi0 + (f_val(np.abs(qv)) + 2.0 * eps) * (phip - phim)

    def dp(direction: str, k: int):
        ek = tuple(1 if i == k else 0 for i in range(n))

        def fn(X, XI):
            qv, xw, r, phip, phim, dphip, dphim = pieces(X, XI)
            if direction == "x":
                dq = np.real(qsym._deriv_arrays((0,) * n, ek, X, XI))
                dr = dq / xw - qv * X[..., k] / xw**3
            else:
                dq = np.real(qsym._deriv_arrays(ek, (0,) * n, X, XI))
                dr = dq / xw
            psi0 = 1.0 - phip - phim
            dpsi0 = -(dphip + dphim)
            sgn = np.sign(qv)
            fp = lam_tilde(np.abs(qv))
            term1 = dr * psi0 + r * dpsi0 * dr
            term2 = fp * sgn * dq * (phip - phim)
            term3 = (f_val(np.abs(qv)) + 2.0 * eps) * (dphip - dphim) * dr
            return term1 + term2 + term3

        return fn

    base = FirstOrderSymbol(
        p_eval,
        [dp("x", k) for k in range(n)],
        [dp("xi", k) for k in range(n)],
        n,
        0.0,
        real_valued=True,
        zero_nyquist=False,
        label="p",
    )

    sup_p = float(np.max(np.abs(np.real(base.eval(S.X, S.XI)))))
    if rescale == "auto":
        rho = 1.0 if sup_p <= p_cap else p_cap / sup_p
    else:
        rho = float(rescale)
    from .symbol.core import scale_symbol

    scaled = scale_symbol(base, rho) if rho != 1.0 else base
    return DoiWeight(
        symbol=scaled, base_symbol=base, K=K, eps=eps, rho=rho, lam=lam, garding=q
    )


def doi_slack(
    a: Symbol,
    p: Union[DoiWeight, Symbol],
    lam: WeightFn,
    S: SampleSet,
) -> SlackFit:
    """Fit H_a p >= C lam(|x|) |xi|^{m-1} - C' over the sample set."""
    psym = p.symbol if isinstance(p, DoiWeight) else p
    H = hamilton_derivative(a, psym, S.X, S.XI)
    w = lam(S.x_norm) * np.maximum(S.xi_norm, XI_FLOOR) ** (a.order - 1.0)
    return _fit_lower_bound(H, w, S, "H_a p >= C lam(|x|) |xi|^(m-1) - C'")


# -- exponential weights ------------------------------------------------------------


class _ExpSymbol(Symbol):
    def __init__(self, p: Symbol, sign: float):
        super().__init__(p.n, 0.0, real_valued=True, zero_nyquist=False, label=f"exp({sign:+g}p)")
        self._p = p
        self._s = float(sign)

    def _eval(self, X, XI):
        return np.exp(self._s * np.real(self._p._eval(X, XI)))

    def _analytic_deriv(self, alpha, beta):
        if sum(alpha) + sum(beta) != 1:
            return None
        p, s = self._p, self._s

        def fn(X, XI):
            dp = np.real(p._deriv_arrays(alpha, beta, X, XI))
            return s * dp * np.exp(s * np.real(p._eval(X, XI)))

        return fn


# probe draws for the exp-weight fits: center and width as fractions of L,
# carrier as a fraction of xi_max
_BAND = {"center": (-0.3, 0.3), "carrier": (-1 / 3, 1 / 3), "width": (0.08, 0.15)}


@dataclass
class ExpWeightPair:
    """E = Op^w(e^p), Et = Op^w(e^{-p}), with the order(-2) conjugation fit."""

    E: DenseOperator
    Et: DenseOperator
    grid: Grid
    conjugation_C: float
    probe_count: int

    def n_norm(self, u: Field, s: float) -> float:
        """N(u) = (||E Lambda^s u||_0^2 + ||u||_{s-2}^2)^{1/2}."""
        v = self.E.apply(apply_bessel(u, s))
        return float(np.sqrt(l2_norm(v) ** 2 + sobolev_norm(u, s - 2.0) ** 2))

    def equivalence_fit(self, s: float = 0.0, count: int = 24, seed: int = 0) -> tuple[float, float]:
        """Fitted c1, c2 with c1 ||u||_s <= N(u) <= c2 ||u||_s on wavepackets."""
        lo, hi = np.inf, 0.0
        for u in wavepacket_probes(self.grid, count, np.random.default_rng(seed), **_BAND):
            ratio = self.n_norm(u, s) / sobolev_norm(u, s)
            lo, hi = min(lo, ratio), max(hi, ratio)
        return float(lo), float(hi)


def exp_weight_operators(
    p: Union[DoiWeight, Symbol], g: Grid, *, s_fit: float = 0.0, probes: int = 24, seed: int = 0
) -> ExpWeightPair:
    """Quantize e^{+-p} and fit C in ||(Et E - I)u||_s <= C ||u||_{s-2}."""
    psym = p.symbol if isinstance(p, DoiWeight) else p
    E = quantize_dense(_ExpSymbol(psym, +1.0), g, "weyl")
    Et = quantize_dense(_ExpSymbol(psym, -1.0), g, "weyl")
    R = Et.matrix @ E.matrix - np.eye(g.size)
    worst = 0.0
    for u in wavepacket_probes(g, probes, np.random.default_rng(seed), **_BAND):
        v = Field(g, (R @ u.values.ravel()).reshape(g.shape))
        denom = sobolev_norm(u, s_fit - 2.0)
        worst = max(worst, sobolev_norm(v, s_fit) / denom)
    return ExpWeightPair(E=E, Et=Et, grid=g, conjugation_C=float(worst), probe_count=probes)


# -- bundled admissibility report ------------------------------------------------------


@dataclass
class AdmissibilityReport:
    grad: ConditionReport
    decay: ConditionReport
    imaginary: Optional[ConditionReport]
    garding: Optional[GardingWeight]
    slack: Optional[SlackFit]

    @property
    def verdict(self) -> str:
        checks = [self.grad.verdict, self.decay.verdict]
        if self.imaginary is not None:
            checks.append(self.imaginary.verdict)
        if self.slack is not None:
            checks.append(self.slack.verdict)
        else:
            checks.append("fail")
        if any(v == "fail" for v in checks):
            return "fail"
        if any(v == "inconclusive" for v in checks):
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "grad_ellipticity": self.grad.as_dict(),
            "x_decay": self.decay.as_dict(),
            "im_smallness": None if self.imaginary is None else self.imaginary.as_dict(),
            "garding": None
            if self.garding is None
            else {"C1": self.garding.C1, "C": self.garding.C, "bound_fit": self.garding.bound_fit},
            "hamilton_slack": None if self.slack is None else self.slack.as_dict(),
            "verdict": self.verdict,
        }


def admissibility_report(
    a: Symbol,
    lam: WeightFn,
    S: Optional[SampleSet] = None,
    *,
    eps_threshold: float = 1.0,
    c0_threshold: float = 1.0,
    C1: Optional[float] = None,
) -> AdmissibilityReport:
    """Run the full admissibility pipeline on a symbol.

    Gradient ellipticity and spatial decay are checked on Re(a); the imaginary
    part (when the symbol carries a split) is checked against the smallness
    bound; passing symbols get the explicit Garding weight and the H_a q slack
    fit.  The overall verdict requires every stage to pass with slack C1 > 0.
    """
    if S is None:
        S = SampleSet.standard(a.n)
    grad = check_grad_ellipticity(a, S)
    decay = check_x_decay(a, lam, S, eps_threshold=eps_threshold)
    imaginary = None
    if a.real_valued or a.parts is not None:
        imaginary = check_im_smallness(a, lam, S, c0_threshold=c0_threshold)
    gw = None
    slack = None
    if grad.verdict != "fail":
        gw = garding_weight(a, C1=C1, ellipticity=grad, S=S)
        slack = hamilton_slack(a, gw.q, S)
    return AdmissibilityReport(grad=grad, decay=decay, imaginary=imaginary, garding=gw, slack=slack)
