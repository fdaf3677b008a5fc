"""Phase-space symbols a(x, xi) with derivative oracles.

A Symbol evaluates on point arrays of shape (..., n) in each of x and xi and
exposes mixed derivatives d^alpha_xi d^beta_x a.  Derivatives come from
analytic closures when available (sympy-backed symbols differentiate exactly)
and otherwise from nested second-order central differences with steps
h = 1e-4 (1 + |coordinate|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import sympy as sp

__all__ = [
    "Symbol",
    "SympySymbol",
    "FuncSymbol",
    "FirstOrderSymbol",
    "SeparableTerm",
    "multi_indices",
    "multi_indices_upto",
    "multi_factorial",
    "phase_symbols",
    "weyl_product_expr",
    "kn_to_weyl_expr",
    "bessel_symbol",
    "zero_symbol",
    "scale_symbol",
]

FD_STEP = 1e-4

MultiIndex = tuple[int, ...]


def multi_indices(n: int, total: int) -> Iterable[MultiIndex]:
    """All multi-indices of length n with |alpha| == total."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(n - 1, total - head):
            yield (head,) + rest


def multi_indices_upto(n: int, k: int) -> Iterable[MultiIndex]:
    for total in range(k + 1):
        yield from multi_indices(n, total)


def multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def phase_symbols(n: int) -> tuple[list[sp.Symbol], list[sp.Symbol]]:
    """Canonical sympy coordinates (x1..xn, xi1..xin), all real."""
    xs = [sp.Symbol(f"x{i + 1}", real=True) for i in range(n)]
    xis = [sp.Symbol(f"xi{i + 1}", real=True) for i in range(n)]
    return xs, xis


def as_points(pts, n: int) -> np.ndarray:
    """Normalize point input to an array of shape (..., n)."""
    arr = np.asarray(pts, dtype=float)
    if n == 1:
        if arr.ndim == 0 or arr.shape[-1] != 1:
            arr = arr[..., None]
        return arr
    if arr.ndim == 1 and arr.shape == (n,):
        return arr[None, :]
    if arr.ndim == 0 or arr.shape[-1] != n:
        raise ValueError(f"points must have trailing dimension {n}")
    return arr


@dataclass(frozen=True)
class SeparableTerm:
    """One product term f(x) g(xi) of a separable symbol.

    f_const is set (and f is None) when the spatial factor is a constant.
    """

    g: Callable[[np.ndarray], np.ndarray]
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_const: Optional[complex] = None

    def spatial_values(self, x_pts: np.ndarray) -> np.ndarray:
        if self.f_const is not None:
            return np.full(x_pts.shape[:-1], complex(self.f_const))
        return np.asarray(self.f(x_pts), dtype=complex)

    def frequency_values(self, xi_pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(xi_pts), dtype=complex)


class Symbol:
    """Base class; subclasses provide _eval and optionally analytic derivatives."""

    def __init__(
        self,
        n: int,
        order: float,
        *,
        real_valued: bool = False,
        classical: bool = True,
        zero_nyquist: Optional[bool] = None,
        x_independent: bool = False,
        parts: Optional[tuple["Symbol", "Symbol"]] = None,
        separable_terms: Optional[list[SeparableTerm]] = None,
        label: str = "",
    ):
        self.n = int(n)
        self.order = float(order)
        self.real_valued = bool(real_valued)
        self.classical = bool(classical)
        if zero_nyquist is None:
            m = self.order
            zero_nyquist = abs(m - round(m)) < 1e-12 and int(round(m)) % 2 == 1
        self.zero_nyquist = bool(zero_nyquist)
        self.x_independent = bool(x_independent)
        self.parts = parts
        self.separable_terms = separable_terms
        self.label = label or type(self).__name__

    # -- evaluation ----------------------------------------------------------

    def eval(self, x, xi) -> np.ndarray:
        X = as_points(x, self.n)
        XI = as_points(xi, self.n)
        X, XI = np.broadcast_arrays(X, XI)
        return np.asarray(self._eval(X, XI), dtype=complex)

    def _eval(self, X: np.ndarray, XI: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _analytic_deriv(self, alpha: MultiIndex, beta: MultiIndex):
        """Return a closure for d^alpha_xi d^beta_x a, or None."""
        return None

    # -- derivatives ---------------------------------------------------------

    def deriv(self, alpha: Sequence[int], beta: Sequence[int], x, xi) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        beta = tuple(int(b) for b in beta)
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError("multi-index length must equal the dimension")
        X = as_points(x, self.n)
        XI = as_points(xi, self.n)
        X, XI = np.broadcast_arrays(X, XI)
        return self._deriv_arrays(alpha, beta, np.array(X), np.array(XI))

    def _deriv_arrays(self, alpha: MultiIndex, beta: MultiIndex, X, XI) -> np.ndarray:
        if not any(alpha) and not any(beta):
            return np.asarray(self._eval(X, XI), dtype=complex)
        fn = self._analytic_deriv(alpha, beta)
        if fn is not None:
            return np.asarray(fn(X, XI), dtype=complex)
        # finite-difference reduction: peel one x-derivative first, then xi
        for i in range(self.n):
            if beta[i] > 0:
                beta_low = tuple(b - (1 if j == i else 0) for j, b in enumerate(beta))
                h = FD_STEP * (1.0 + np.abs(X[..., i]))
                Xp = np.array(X)
                Xm = np.array(X)
                Xp[..., i] += h
                Xm[..., i] -= h
                fp = self._deriv_arrays(alpha, beta_low, Xp, XI)
                fm = self._deriv_arrays(alpha, beta_low, Xm, XI)
                return (fp - fm) / (2.0 * h)
        for i in range(self.n):
            if alpha[i] > 0:
                alpha_low = tuple(a - (1 if j == i else 0) for j, a in enumerate(alpha))
                h = FD_STEP * (1.0 + np.abs(XI[..., i]))
                XIp = np.array(XI)
                XIm = np.array(XI)
                XIp[..., i] += h
                XIm[..., i] -= h
                fp = self._deriv_arrays(alpha_low, beta, X, XIp)
                fm = self._deriv_arrays(alpha_low, beta, X, XIm)
                return (fp - fm) / (2.0 * h)
        raise AssertionError("unreachable")

    def grad_xi(self, x, xi) -> np.ndarray:
        """(d_xi1 a, ..., d_xin a), shape (..., n)."""
        comps = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            comps.append(self.deriv(e, (0,) * self.n, x, xi))
        return np.stack(comps, axis=-1)

    def grad_x(self, x, xi) -> np.ndarray:
        comps = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            comps.append(self.deriv((0,) * self.n, e, x, xi))
        return np.stack(comps, axis=-1)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label!r} n={self.n} order={self.order}>"


def _wrap_lambdified(fn, n: int):
    def call(X, XI):
        args = [X[..., i] for i in range(n)] + [XI[..., i] for i in range(n)]
        out = fn(*args)
        out = np.asarray(out, dtype=complex)
        target = np.broadcast_shapes(X[..., 0].shape, out.shape)
        return np.broadcast_to(out, target)

    return call


class SympySymbol(Symbol):
    """Symbol backed by a sympy expression in x1..xn, xi1..xin; exact derivatives."""

    def __init__(self, expr, n: int, order: float, **kwargs):
        xs, xis = phase_symbols(n)
        expr = sp.sympify(expr)
        extra = expr.free_symbols - set(xs) - set(xis)
        if extra:
            raise ValueError(f"expression uses unknown symbols {extra}")
        if "real_valued" not in kwargs or kwargs["real_valued"] is None:
            kwargs["real_valued"] = not expr.has(sp.I)
        if "x_independent" not in kwargs:
            kwargs["x_independent"] = not any(expr.has(xsym) for xsym in xs)
        super().__init__(n, order, **kwargs)
        self.expr = expr
        self._xs = xs
        self._xis = xis
        self._fn_cache: dict[tuple[MultiIndex, MultiIndex], Callable] = {}

    def _closure(self, alpha: MultiIndex, beta: MultiIndex):
        key = (alpha, beta)
        if key not in self._fn_cache:
            e = self.expr
            for i, b in enumerate(beta):
                if b:
                    e = sp.diff(e, self._xs[i], b)
            for i, a in enumerate(alpha):
                if a:
                    e = sp.diff(e, self._xis[i], a)
            fn = sp.lambdify(self._xs + self._xis, e, modules="numpy")
            self._fn_cache[key] = _wrap_lambdified(fn, self.n)
        return self._fn_cache[key]

    def _eval(self, X, XI):
        return self._closure((0,) * self.n, (0,) * self.n)(X, XI)

    def _analytic_deriv(self, alpha, beta):
        return self._closure(alpha, beta)


class FuncSymbol(Symbol):
    """Symbol from a plain callable, with an optional table of derivative closures."""

    def __init__(self, eval_fn, n: int, order: float, derivs: Optional[dict] = None, **kwargs):
        super().__init__(n, order, **kwargs)
        self._fn = eval_fn
        self._derivs = {}
        for key, fn in (derivs or {}).items():
            alpha, beta = key
            self._derivs[(tuple(alpha), tuple(beta))] = fn

    def _eval(self, X, XI):
        return np.asarray(self._fn(X, XI), dtype=complex)

    def _analytic_deriv(self, alpha, beta):
        return self._derivs.get((alpha, beta))


class FirstOrderSymbol(Symbol):
    """Symbol with analytic value and first derivatives; higher orders via FD."""

    def __init__(self, eval_fn, dx_fns, dxi_fns, n: int, order: float, **kwargs):
        super().__init__(n, order, **kwargs)
        self._fn = eval_fn
        self._dx = list(dx_fns)
        self._dxi = list(dxi_fns)

    def _eval(self, X, XI):
        return np.asarray(self._fn(X, XI), dtype=complex)

    def _analytic_deriv(self, alpha, beta):
        if sum(alpha) + sum(beta) != 1:
            return None
        if sum(beta) == 1:
            return self._dx[beta.index(1)]
        return self._dxi[alpha.index(1)]


# -- combinators --------------------------------------------------------------


class _Scaled(Symbol):
    def __init__(self, base: Symbol, c: complex):
        real = base.real_valued and abs(complex(c).imag) < 1e-300
        super().__init__(
            base.n,
            base.order,
            real_valued=real,
            classical=base.classical,
            zero_nyquist=base.zero_nyquist,
            x_independent=base.x_independent,
            label=f"{c}*{base.label}",
        )
        self._base = base
        self._c = complex(c)

    def _eval(self, X, XI):
        return self._c * self._base._eval(X, XI)

    def _analytic_deriv(self, alpha, beta):
        c = self._c
        base = self._base

        def fn(X, XI):
            return c * base._deriv_arrays(alpha, beta, X, XI)

        return fn


def scale_symbol(a: Symbol, c: complex) -> Symbol:
    return _Scaled(a, c)


def zero_symbol(n: int, order: float = 0.0) -> SympySymbol:
    return SympySymbol(sp.Integer(0), n, order, real_valued=True, zero_nyquist=False, label="0")


def bessel_symbol(s: float, n: int = 1) -> SympySymbol:
    """<xi>^s as a symbol of order s (never Nyquist-zeroed: even in xi)."""
    _, xis = phase_symbols(n)
    expr = (1 + sum(v**2 for v in xis)) ** (sp.Rational(1, 2) * sp.nsimplify(s))
    sym = SympySymbol(expr, n, float(s), real_valued=True, zero_nyquist=False, label=f"<xi>^{s}")
    return sym


# -- exact symbolic Weyl algebra ----------------------------------------------


def weyl_product_expr(a_expr, b_expr, n: int, K: Optional[int] = None):
    """K-truncated Weyl product of two sympy symbols.

    Term k: 2^{-k} sum_{|p|+|q|=k} (-1)^{|q|} i^k / (p! q!)
            (d_x^p d_xi^q a)(d_xi^p d_x^q b),
    normalized so that  xi # x = x xi - i/2  (canonical commutation; validated
    against dense operator algebra in the calculus tests).

    For polynomial-in-xi factors the expansion terminates; K=None runs until
    exhaustion (polynomials only).
    """
    xs, xis = phase_symbols(n)
    a_expr = sp.sympify(a_expr)
    b_expr = sp.sympify(b_expr)
    if K is None:
        pa = _xi_degree(a_expr, xis)
        pb = _xi_degree(b_expr, xis)
        if pa is None or pb is None:
            raise ValueError("K=None requires both factors polynomial in xi")
        K = pa + pb
    total = sp.Integer(0)
    for k in range(K + 1):
        term_k = sp.Integer(0)
        for p_plus_q in multi_indices(2 * n, k):
            p, q = p_plus_q[:n], p_plus_q[n:]
            da = a_expr
            for i in range(n):
                if p[i]:
                    da = sp.diff(da, xs[i], p[i])
                if q[i]:
                    da = sp.diff(da, xis[i], q[i])
            if da == 0:
                continue
            db = b_expr
            for i in range(n):
                if p[i]:
                    db = sp.diff(db, xis[i], p[i])
                if q[i]:
                    db = sp.diff(db, xs[i], q[i])
            if db == 0:
                continue
            coeff = (
                sp.Rational(1, 2**k)
                * (-1) ** sum(q)
                * sp.I**k
                / (multi_factorial(p) * multi_factorial(q))
            )
            term_k += coeff * da * db
        total += term_k
    return sp.expand(total)


def kn_to_weyl_expr(a_expr, n: int, K: Optional[int] = None):
    """Weyl symbol of Op_KN(a): truncated exp((i/2) sum_j d_xj d_xij) a.

    Exact (terminating) for symbols polynomial in xi when K=None.
    """
    xs, xis = phase_symbols(n)
    a_expr = sp.sympify(a_expr)
    if K is None:
        K = _xi_degree(a_expr, xis)
        if K is None:
            raise ValueError("K=None requires a polynomial-in-xi symbol")
    total = sp.Integer(0)
    for g in multi_indices_upto(n, K):
        e = a_expr
        for i in range(n):
            if g[i]:
                e = sp.diff(e, xs[i], g[i])
                e = sp.diff(e, xis[i], g[i])
        if e == 0:
            continue
        total += (sp.I / 2) ** sum(g) / multi_factorial(g) * e
    return sp.expand(total)


def _xi_degree(expr, xis) -> Optional[int]:
    try:
        poly = sp.Poly(expr, *xis)
    except sp.PolynomialError:
        return None
    return int(poly.total_degree())
