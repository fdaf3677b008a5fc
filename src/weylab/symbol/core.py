"""Phase-space symbols a(x, xi) with exact derivatives.

A Symbol evaluates on point arrays of shape (..., n) in each of x and xi and
exposes mixed derivatives d^alpha_xi d^beta_x a through closures: a
sympy-backed symbol differentiates its expression exactly, and a FuncSymbol
carries a table of the derivatives it provides.  A derivative with no closure
raises NotImplementedError; none is approximated.

A sympy-backed symbol also derives its structure from the expression: the
flags real_valued and x_independent, and the split
a = a0(xi) + sum_k f_k(x) g_k(xi) (`SympySymbol.split`) that the evolution
and fast-application paths read.  Derivative expressions and their closures
are shared process-wide, keyed by expression: two symbols built from the same
expression (a catalog entry built twice, say) differentiate and lambdify each
derivative once.  The derivative expressions form a tree: each is one sp.diff
by one variable of its parent multi-index, so a jet of derivatives costs one
diff per entry.  Closures come from sp.lambdify without the docstring that
prints the expression (docstring_limit, SymPy >= 1.13).

The tree (`_derivative_expr`) is the one path to a phase-space derivative and
`_lambdified` the one path to evaluating a phase-space expression.  Besides
the closures, the tree serves the Weyl product and the KN->Weyl change below
(and so the kdv-type builds of symbol.kdv), the Poisson bracket of
weylab.calculus, q_delta of weylab.hamilton and the Lemma A.1 expansion of
weylab.appendix_checks; an operation that reads a derivative some symbol has
already taken makes no new sp.diff.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import sympy as sp

__all__ = [
    "Symbol",
    "SympySymbol",
    "FuncSymbol",
    "multi_indices",
    "multi_indices_upto",
    "multi_factorial",
    "phase_symbols",
    "weyl_product_expr",
    "kn_to_weyl_expr",
    "bessel_symbol",
]

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


class Symbol:
    """Base class; subclasses provide _eval and the derivative closures."""

    # (a0, [(f, g), ...]) with a = a0(xi) + sum f(x) g(xi), as sympy
    # expressions; only sympy-backed symbols derive one (SympySymbol.split)
    split = None
    # only a sympy-backed symbol can show that it does not depend on x
    x_independent = False

    def __init__(
        self,
        n: int,
        order: float,
        *,
        real_valued: bool = False,
        zero_nyquist: Optional[bool] = None,
        label: str = "",
    ):
        self.n = int(n)
        self.order = float(order)
        self.real_valued = bool(real_valued)
        if zero_nyquist is None:
            m = self.order
            zero_nyquist = abs(m - round(m)) < 1e-12 and int(round(m)) % 2 == 1
        self.zero_nyquist = bool(zero_nyquist)
        self.label = label or type(self).__name__

    # -- evaluation ----------------------------------------------------------

    def eval(self, x, xi) -> np.ndarray:
        X = as_points(x, self.n)
        XI = as_points(xi, self.n)
        X, XI = np.broadcast_arrays(X, XI)
        return np.asarray(self._eval(X, XI), dtype=complex)

    def _eval(self, X: np.ndarray, XI: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _closure(self, alpha: MultiIndex, beta: MultiIndex):
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
        # the broadcast views go in uncopied: no closure writes to its inputs
        return self._deriv_arrays(alpha, beta, X, XI)

    def _deriv_arrays(self, alpha: MultiIndex, beta: MultiIndex, X, XI) -> np.ndarray:
        if not any(alpha) and not any(beta):
            return np.asarray(self._eval(X, XI), dtype=complex)
        fn = self._closure(alpha, beta)
        if fn is None:
            raise NotImplementedError(
                f"symbol {self.label!r} has no exact derivative alpha={alpha}, beta={beta}"
            )
        return np.asarray(fn(X, XI), dtype=complex)

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


@functools.lru_cache(maxsize=None)
def _lambdified(expr, n: int) -> Callable:
    """expr(x1..xn, xi1..xin) as a closure on point arrays X, XI of shape (..., n)."""
    xs, xis = phase_symbols(n)
    # docstring_limit=0: the docstring does not print the expression (the body
    # is the same either way)
    fn = sp.lambdify(xs + xis, expr, modules="numpy", docstring_limit=0)

    def call(X, XI):
        out = fn(*[X[..., i] for i in range(n)], *[XI[..., i] for i in range(n)])
        out = np.asarray(out, dtype=complex)
        return np.broadcast_to(out, np.broadcast_shapes(X[..., 0].shape, out.shape))

    return call


def _lower(index: MultiIndex) -> tuple[MultiIndex, int]:
    """index with one taken off its highest nonzero entry, and that entry's position."""
    i = max(j for j, k in enumerate(index) if k)
    return index[:i] + (index[i] - 1,) + index[i + 1 :], i


@functools.lru_cache(maxsize=None)
def _derivative_expr(expr, n: int, alpha: MultiIndex, beta: MultiIndex):
    """d^alpha_xi d^beta_x expr, as one sp.diff by one variable of its cached parent.

    The parent takes one off the highest nonzero xi index, or, when alpha is
    zero, off the highest nonzero x index; so the x-derivatives come first and
    each variable in index order, lowest first.
    """
    xs, xis = phase_symbols(n)
    if any(alpha):
        parent, i = _lower(alpha)
        return sp.diff(_derivative_expr(expr, n, parent, beta), xis[i])
    if any(beta):
        parent, i = _lower(beta)
        return sp.diff(_derivative_expr(expr, n, alpha, parent), xs[i])
    return expr


@functools.lru_cache(maxsize=None)
def _derivative_closure(expr, n: int, alpha: MultiIndex, beta: MultiIndex) -> Callable:
    """d^alpha_xi d^beta_x expr as a closure (see `_derivative_expr`)."""
    return _lambdified(_derivative_expr(expr, n, alpha, beta), n)


class SympySymbol(Symbol):
    """Symbol backed by a sympy expression in x1..xn, xi1..xin; exact derivatives."""

    def __init__(
        self, expr, n: int, order: float, *, zero_nyquist: Optional[bool] = None, label: str = ""
    ):
        xs, xis = phase_symbols(n)
        expr = sp.sympify(expr)
        extra = expr.free_symbols - set(xs) - set(xis)
        if extra:
            raise ValueError(f"expression uses unknown symbols {extra}")
        super().__init__(
            n,
            order,
            real_valued=not expr.has(sp.I),
            zero_nyquist=zero_nyquist,
            label=label,
        )
        self.x_independent = not expr.has(*xs)
        self.expr = expr
        self._xs = xs
        self._xis = xis

    @functools.cached_property
    def split(self):
        """a = a0(xi) + sum_k f_k(x) g_k(xi), read off the expression.

        Each additive term factors as g(xi) f(x); the constant of a sum f joins
        the x-free multiplier a0 and terms with the same f share one g.  When
        some f still depends on xi, the expanded expression is tried once more
        (a product such as (xi1 + x1)**3 splits only when expanded).
        Returns (a0, [(f, g), ...]) as sympy expressions (a0 may be 0), or
        None when neither form splits.
        """
        split = self._split_terms(self.expr)
        return split if split is not None else self._split_terms(sp.expand(self.expr))

    def _split_terms(self, expr):
        a0 = sp.Integer(0)
        pairs: dict = {}
        for term in sp.Add.make_args(expr):
            g, f = term.as_independent(*self._xs, as_Add=False)
            if f.has(*self._xis):
                return None
            c, f = f.as_independent(*self._xs, as_Add=True)
            a0 += c * g
            if f != 0:
                pairs[f] = pairs.get(f, 0) + g
        return a0, list(pairs.items())

    def eval_expr(self, expr, x, xi) -> np.ndarray:
        """Evaluate an expression in this symbol's variables (a piece of
        `split`, say) at points given as for `eval`."""
        X, XI = np.broadcast_arrays(as_points(x, self.n), as_points(xi, self.n))
        return _lambdified(expr, self.n)(X, XI)

    def _closure(self, alpha: MultiIndex, beta: MultiIndex):
        return _derivative_closure(self.expr, self.n, alpha, beta)

    def _eval(self, X, XI):
        return self._closure((0,) * self.n, (0,) * self.n)(X, XI)


class FuncSymbol(Symbol):
    """Symbol from a plain callable, with an optional table of derivative
    closures keyed by (alpha, beta); it has no other derivatives."""

    def __init__(self, eval_fn, n: int, order: float, derivs: Optional[dict] = None, **kwargs):
        super().__init__(n, order, **kwargs)
        self._fn = eval_fn
        self._derivs = {(tuple(al), tuple(be)): fn for (al, be), fn in (derivs or {}).items()}

    def _eval(self, X, XI):
        return np.asarray(self._fn(X, XI), dtype=complex)

    def _closure(self, alpha, beta):
        return self._derivs.get((alpha, beta))


def bessel_symbol(s: float, n: int = 1) -> SympySymbol:
    """<xi>^s as a symbol of order s (never Nyquist-zeroed: even in xi)."""
    _, xis = phase_symbols(n)
    expr = (1 + sum(v**2 for v in xis)) ** (sp.Rational(1, 2) * sp.nsimplify(s))
    return SympySymbol(expr, n, float(s), zero_nyquist=False, label=f"<xi>^{s}")


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
    _, xis = phase_symbols(n)
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
            da = _derivative_expr(a_expr, n, q, p)
            if da == 0:
                continue
            db = _derivative_expr(b_expr, n, p, q)
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
    _, xis = phase_symbols(n)
    a_expr = sp.sympify(a_expr)
    if K is None:
        K = _xi_degree(a_expr, xis)
        if K is None:
            raise ValueError("K=None requires a polynomial-in-xi symbol")
    total = sp.Integer(0)
    for g in multi_indices_upto(n, K):
        e = _derivative_expr(a_expr, n, g, g)
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
