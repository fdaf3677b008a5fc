"""Admissibility weights: the Garding weight q, the Doi weight p, and the
exponential-weight operators E = Op^w(e^p), Et = Op^w(e^{-p}), against the
spatial decay lam(r) = <r>^{-2} of `weylab.grid`.

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
sup |p| stays within P_CAP; the lower bound H_a p >= C lam |xi|^{m-1} - C'
survives with C scaled by rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .calculus import DenseOperator, quantize_dense
from .export import write_csv
from .grid import (
    Field,
    Grid,
    apply_bessel,
    l2_norm,
    lam,
    lam_deriv,
    lam_primitive,
    sobolev_norm,
    wavepacket_probes,
)
from .hamilton import hamilton_derivative, qdelta_symbol
from .symbol.checks import (
    XI_FLOOR,
    ConditionReport,
    SampleSet,
    check_grad_ellipticity,
    check_im_smallness,
    check_x_decay,
)
from .symbol.core import FuncSymbol, Symbol, SympySymbol, as_points, multi_indices_upto

__all__ = [
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

F_FIT_ORDERS = (1, 2)  # derivative orders m of the f bound fit
F_FIT_T_MAX_K = 100.0  # the f bound fit runs over 0 <= t <= F_FIT_T_MAX_K K
EXP_FIT_S = 0.0  # Sobolev index s of the exp-weight conjugation and equivalence fits
EXP_FIT_PROBES = 24  # wavepacket probes of the exp-weight fits, drawn with seed EXP_FIT_SEED
EXP_FIT_SEED = 0
P_CAP = 1.5  # the Doi weight is scaled so that sup|p| <= P_CAP


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
        n = self.X.shape[1]
        header = [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)]
        columns = [*self.X.T, *self.XI.T, self.values, self.weight, self.slack]
        write_csv(path, header + ["value", "weight", "slack"], columns)

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

    q: SympySymbol
    C1: float
    C: float
    bound_fit: dict = field(default_factory=dict)


def _envelope_fit(q: Symbol, S: SampleSet) -> dict:
    """Fitted constants of |d^beta_x d^alpha_xi q| <= C <x><xi>^{-|alpha|}
    (beta = 0) or C <xi>^{-|alpha|} (|beta| >= 1), for |alpha| + |beta| <= 2."""
    xw = np.sqrt(1.0 + S.x_norm**2)
    bes = np.sqrt(1.0 + S.xi_norm**2)
    out = {}
    for alpha in multi_indices_upto(q.n, 2):
        for beta in multi_indices_upto(q.n, 2 - sum(alpha)):
            vals = np.abs(q.deriv(alpha, beta, S.X, S.XI))
            envelope = bes ** (-float(sum(alpha)))
            if sum(beta) == 0:
                envelope = envelope * xw
            out[f"alpha={alpha},beta={beta}"] = float(np.max(vals / envelope))
    return out


def garding_weight(
    a: Symbol,
    S: SampleSet,
    ellipticity: Optional[ConditionReport] = None,
) -> GardingWeight:
    """Build q = 2 C1 C^2 <xi>^{-(m-1)} sum_j x_j d_{xi_j} a with
    C1 = 1/(2 C^2): the prefactor is 1, and q is `hamilton.qdelta_symbol`
    at delta = 1.

    Requires a sympy-backed symbol (TypeError otherwise) and a (passing)
    gradient-ellipticity report, which supplies C; without one, the check
    runs on the caller's sample set S, which also carries the envelope fit.
    """
    if not isinstance(a, SympySymbol):
        raise TypeError("the Garding weight is derived from a sympy expression; pass a SympySymbol")
    if ellipticity is None:
        ellipticity = check_grad_ellipticity(a, S)
    if ellipticity.verdict == "fail":
        raise ValueError("symbol failed gradient ellipticity; no Garding weight available")
    C = float(ellipticity.constants["C"])
    C1 = 1.0 / (2.0 * C**2)
    q = qdelta_symbol(a, 1.0)
    gw = GardingWeight(q=q, C1=C1, C=C)
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
    garding: GardingWeight

    def lam_tilde(self, t) -> np.ndarray:
        """lam(t/K - 10), frozen at lam(0) for nonpositive arguments."""
        t = np.asarray(t, dtype=float)
        arg = t / self.K - 10.0
        return np.where(arg <= 0.0, lam(0.0), lam(np.maximum(arg, 0.0)))

    def f(self, t) -> np.ndarray:
        """Exact primitive of lam_tilde; nonnegative, nondecreasing."""
        t = np.asarray(t, dtype=float)
        t0 = 10.0 * self.K
        lam0 = float(lam(0.0))
        inner = t * lam0
        outer = t0 * lam0 + self.K * lam_primitive((t - t0) / self.K)
        return np.where(t <= t0, inner, outer)

    def lam_tilde_margin(self, S: SampleSet) -> float:
        """Smallest f'(|q|) - lam(|x|) = lam_tilde(|q|) - lam(|x|) over S.

        The Doi argument needs it >= 0 on the outer regions; |q| <= K <x>
        gives it everywhere, with equality at x = 0 (where q = 0)."""
        q_abs = np.abs(np.real(self.garding.q.eval(S.X, S.XI)))
        return float(np.min(self.lam_tilde(q_abs) - lam(S.x_norm)))

    def region(self, x, xi) -> np.ndarray:
        """Region code per point: 0 where psi_0 = 1, +-1 on the outer plateaus,
        9 inside the cutoff transitions."""
        q_vals = np.real(self.garding.q.eval(x, xi))
        X = as_points(x, self.symbol.n)
        xw = np.sqrt(1.0 + np.sum(X**2, axis=-1))
        r = q_vals / xw
        out = np.full(r.shape, 9, dtype=int)
        out[np.abs(r) <= self.eps] = 0
        out[r >= 2.0 * self.eps] = 1
        out[r <= -2.0 * self.eps] = -1
        return out

    def f_derivative_bound_fit(self) -> dict:
        """Fit C_m in |f^(m)(t)| <= C_m (lam(0) + int_0^t lam) (1 + t)^{-m} for
        m in F_FIT_ORDERS, over 0 <= t <= F_FIT_T_MAX_K K."""
        t = np.linspace(0.0, F_FIT_T_MAX_K * self.K, 4001)
        envelope = (float(lam(0.0)) + lam_primitive(t))
        out = {}
        for mm in F_FIT_ORDERS:
            if mm == 1:
                vals = np.abs(self.lam_tilde(t))
            else:
                # f'' = lam_tilde', exactly: lam'(t/K - 10)/K past the plateau, 0 on it
                arg = t / self.K - 10.0
                lam_prime = lam_deriv(np.maximum(arg, 0.0)) / self.K
                vals = np.abs(np.where(arg <= 0.0, 0.0, lam_prime))
            out[f"m={mm}"] = float(np.max(vals * (1.0 + t) ** mm / envelope))
        return out


def doi_weight(
    a: Symbol,
    q: GardingWeight,
    eps: float = 0.1,
    *,
    S: SampleSet,
) -> DoiWeight:
    """Assemble the Doi weight p from a Garding weight (three-region formula).

    K and sup|p| are fitted on the caller's sample set S.  p is scaled by
    rho <= 1 so that sup|p| stays within P_CAP and Op^w(e^p) stays well
    conditioned.  The unscaled symbol is kept too.  Both carry exact first
    derivatives only.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("cutoff scale eps must lie in (0, 1)")
    n = a.n
    qsym = q.q

    xw_S = np.sqrt(1.0 + S.x_norm**2)
    q_over = np.abs(np.real(qsym.eval(S.X, S.XI))) / xw_S
    K_fit = float(np.max(q_over))
    if not np.isfinite(K_fit) or K_fit > 1e6:
        raise ValueError("K fit diverges: q violates the Garding envelope bounds")
    K = max(1.0, K_fit)

    # f and lam_tilde depend on K only; the symbol is filled in below
    dw = DoiWeight(symbol=None, base_symbol=None, K=K, eps=eps, rho=1.0, garding=q)
    f_val, lam_tilde = dw.f, dw.lam_tilde

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

    def dp(direction: str, k: int, rho: float):
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
            return rho * (term1 + term2 + term3)

        return fn

    def weight(rho: float) -> FuncSymbol:
        """rho p, with its exact first derivatives."""
        first = {}
        for k in range(n):
            ek = tuple(1 if i == k else 0 for i in range(n))
            first[((0,) * n, ek)] = dp("x", k, rho)
            first[(ek, (0,) * n)] = dp("xi", k, rho)
        return FuncSymbol(
            lambda X, XI: rho * p_eval(X, XI),
            n,
            0.0,
            first,
            real_valued=True,
            zero_nyquist=False,
            label="p",
        )

    base = weight(1.0)
    sup_p = float(np.max(np.abs(np.real(base.eval(S.X, S.XI)))))
    dw.rho = 1.0 if sup_p <= P_CAP else P_CAP / sup_p
    dw.base_symbol = base
    dw.symbol = weight(dw.rho) if dw.rho != 1.0 else base
    return dw


def doi_slack(
    a: Symbol,
    p: Union[DoiWeight, Symbol],
    S: SampleSet,
) -> SlackFit:
    """Fit H_a p >= C lam(|x|) |xi|^{m-1} - C' over the sample set."""
    psym = p.symbol if isinstance(p, DoiWeight) else p
    H = hamilton_derivative(a, psym, S.X, S.XI)
    w = lam(S.x_norm) * np.maximum(S.xi_norm, XI_FLOOR) ** (a.order - 1.0)
    return _fit_lower_bound(H, w, S, "H_a p >= C lam(|x|) |xi|^(m-1) - C'")


# -- exponential weights ------------------------------------------------------------


# probe draws for the exp-weight fits: center and width as fractions of L,
# carrier as a fraction of xi_max
_BAND = {"center": (-0.3, 0.3), "carrier": (-1 / 3, 1 / 3), "width": (0.08, 0.15)}


def _fit_probes(g: Grid) -> list[Field]:
    """The EXP_FIT_PROBES wavepackets of the exp-weight fits, drawn from _BAND."""
    return wavepacket_probes(g, EXP_FIT_PROBES, np.random.default_rng(EXP_FIT_SEED), **_BAND)


@dataclass
class ExpWeightPair:
    """E = Op^w(e^p), with the fitted C of the order(-2) conjugation Et E - I, Et = Op^w(e^{-p})."""

    E: DenseOperator
    grid: Grid
    conjugation_C: float

    def n_norm(self, u: Field, s: float) -> float:
        """N(u) = (||E Lambda^s u||_0^2 + ||u||_{s-2}^2)^{1/2}."""
        v = self.E.apply(apply_bessel(u, s))
        return float(np.sqrt(l2_norm(v) ** 2 + sobolev_norm(u, s - 2.0) ** 2))

    def equivalence_fit(self) -> tuple[float, float]:
        """Fitted c1, c2 with c1 ||u||_s <= N(u) <= c2 ||u||_s, s = EXP_FIT_S,
        on the wavepackets of the conjugation fit."""
        lo, hi = np.inf, 0.0
        for u in _fit_probes(self.grid):
            ratio = self.n_norm(u, EXP_FIT_S) / sobolev_norm(u, EXP_FIT_S)
            lo, hi = min(lo, ratio), max(hi, ratio)
        return float(lo), float(hi)


def exp_weight_operators(p: Union[DoiWeight, Symbol], g: Grid) -> ExpWeightPair:
    """Quantize e^{+-p} and fit C in ||(Et E - I)u||_s <= C ||u||_{s-2},
    s = EXP_FIT_S, over EXP_FIT_PROBES wavepackets."""
    psym = p.symbol if isinstance(p, DoiWeight) else p

    def exp_p(sign: float) -> DenseOperator:
        # e^{sign p} is only evaluated, never differentiated
        e = FuncSymbol(
            lambda X, XI: np.exp(sign * np.real(psym._eval(X, XI))),
            psym.n,
            0.0,
            real_valued=True,
            zero_nyquist=False,
            label=f"exp({sign:+g}p)",
        )
        return quantize_dense(e, g, "weyl")

    E, Et = exp_p(1.0), exp_p(-1.0)
    R = Et.matrix @ E.matrix - np.eye(g.size)
    worst = 0.0
    for u in _fit_probes(g):
        v = Field(g, (R @ u.values.ravel()).reshape(g.shape))
        denom = sobolev_norm(u, EXP_FIT_S - 2.0)
        worst = max(worst, sobolev_norm(v, EXP_FIT_S) / denom)
    return ExpWeightPair(E=E, grid=g, conjugation_C=float(worst))


# -- bundled admissibility report ------------------------------------------------------


@dataclass
class AdmissibilityReport:
    grad: ConditionReport
    decay: ConditionReport
    imaginary: ConditionReport
    garding: Optional[GardingWeight]
    slack: Optional[SlackFit]

    @property
    def verdict(self) -> str:
        checks = [self.grad.verdict, self.decay.verdict, self.imaginary.verdict]
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
            "im_smallness": self.imaginary.as_dict(),
            "garding": None
            if self.garding is None
            else {"C1": self.garding.C1, "C": self.garding.C, "bound_fit": self.garding.bound_fit},
            "hamilton_slack": None if self.slack is None else self.slack.as_dict(),
            "verdict": self.verdict,
        }


def admissibility_report(a: Symbol, S: SampleSet) -> AdmissibilityReport:
    """Run the full admissibility pipeline on a symbol over the caller's
    sample set S.

    Gradient ellipticity and spatial decay are checked on Re(a), and the
    imaginary part against the smallness bound; the decay and smallness
    constants are the fixed `symbol.checks` X_DECAY_EPS and IM_SMALLNESS_C0.
    Passing symbols get the explicit Garding weight and the H_a q slack fit.
    The overall verdict requires every stage to pass with slack C1 > 0.
    """
    grad = check_grad_ellipticity(a, S)
    decay = check_x_decay(a, S)
    imaginary = check_im_smallness(a, S)
    gw = None
    slack = None
    if grad.verdict != "fail":
        gw = garding_weight(a, S, ellipticity=grad)
        slack = hamilton_slack(a, gw.q, S)
    return AdmissibilityReport(grad=grad, decay=decay, imaginary=imaginary, garding=gw, slack=slack)
