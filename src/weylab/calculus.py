"""Quantization of symbols into grid operators and the asymptotic Weyl calculus.

Dense quantization realizes

    A[j, l] = N^{-n} sum_k e^{i (x_j - x_l) . xi_k} a(midpoint, xi_k)

with midpoint (x_j + x_l)/2 for the Weyl tag and x_j for the Kohn-Nirenberg
tag; midpoints are evaluated in unwrapped box coordinates.  Assembly uses the
lag structure, with one path for every dimension and both tags: an inverse
transform of the symbol samples over k (through `Grid.ifftn`, the package's
one FFT seam) gives a kernel indexed by (midpoint, (j - l) mod N), which is
exact because the kernel is N-periodic in the lag.  The kernel is built one
slab of first-axis midpoint indices at a time (SLAB_ENTRIES entries), and each
slab is scattered into the entries whose midpoint it holds before the next is
sampled, so assembly holds the matrix plus one slab.

`positivity_diagnostic` compresses Op^w(a) and the Bessel form <xi>^{2 sigma}
onto an orthonormal basis of windowed Fourier modes; the Bessel form is
compressed through the transforms of the basis columns, with no dense matrix.

`EvolutionOperator` applies either tag matrix-free from the split
a = a0(xi) + sum_k f_k(x) g_k(xi) (`SympySymbol.split`), real or complex, with
one stacked inverse and one stacked forward transform call however many pairs
there are; `apply_fast` is its Kohn-Nirenberg tag.  KN is exact.  The Weyl tag
applies each pair symmetrized, (fG + Gf)/2: that is Op^w(f g) exactly when g
has xi-degree <= 1, and Op^w(f g) up to order m - 2 otherwise.  A symbol with
no split is refused, so evolution never builds a dense matrix.

One sampler, `_symbol_samples`, takes every sample of a symbol on the
frequency mesh, for the dense assembly, the multipliers and the split; it
zeroes the samples of zero_nyquist (odd-order) symbols at the sign-ambiguous
Nyquist frequencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import sympy as sp

from .grid import Field, Grid, inner_product, sobolev_norm, wavepacket_probes
from .symbol.checks import SampleSet
from .symbol.core import (
    Symbol,
    SympySymbol,
    _derivative_expr,
    bessel_symbol,
    weyl_product_expr,
)

__all__ = [
    "DenseOperator",
    "EvolutionOperator",
    "PositivityReport",
    "quantize_dense",
    "apply_fast",
    "compose_symbols",
    "poisson_bracket",
    "positivity_diagnostic",
    "POSITIVITY_FLAVORS",
]

POSITIVITY_FLAVORS = ("sharp_garding", "fefferman_phong")  # of positivity_diagnostic

# Kernel entries (midpoints x lags) that dense assembly samples and transforms
# at once; a slab holds at least one first-axis midpoint index.
SLAB_ENTRIES = 1 << 16

# Singular values of the windowed positivity basis below this fraction of the
# largest are dropped (see `_positivity_basis`).
POSITIVITY_RANK_RTOL = 0.1


@dataclass
class DenseOperator:
    """Dense matrix realization of Op(a) on a grid (row-major raveled fields)."""

    grid: Grid
    matrix: np.ndarray
    tag: str
    symbol: Optional[Symbol] = None

    def apply(self, u: Field) -> Field:
        v = self.matrix @ u.values.ravel()
        return Field(self.grid, v.reshape(self.grid.shape))

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """The matrix applied to samples; leading axes index a stack."""
        # one matrix-vector product per array: a matrix-matrix product rounds
        # differently, and each result must not depend on the stack it is in
        flat = values.reshape(-1, self.grid.size)
        return np.stack([self.matrix @ v for v in flat]).reshape(values.shape)

    @property
    def adjoint_residual(self) -> float:
        """||M - M^H||_F / ||M||_F; ~0 for Weyl quantization of a real symbol."""
        nrm = np.linalg.norm(self.matrix)
        if nrm == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T) / nrm)

    def compose(self, other: "DenseOperator") -> "DenseOperator":
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("operators live on different grids")
        return DenseOperator(self.grid, self.matrix @ other.matrix, tag="composition")


def _symbol_samples(a: Symbol, g: Grid, x_pts: np.ndarray, expr=None) -> np.ndarray:
    """a, or the piece `expr` of its split, at (x points) x (frequency mesh):
    shape (len(x_pts), *g.shape).

    Every sample of a symbol on the frequency mesh is taken here, and only
    here is the Nyquist rule applied: a zero_nyquist (odd-order) symbol is
    zeroed at the sign-ambiguous Nyquist frequencies.
    """
    x = x_pts[:, None, :]
    xi = g.xi_mesh.reshape(1, -1, g.n)
    vals = a.eval(x, xi) if expr is None else a.eval_expr(expr, x, xi)
    vals = vals.reshape(len(x_pts), *g.shape)
    if a.zero_nyquist:
        vals = np.where(g.nyquist_mask, 0.0, vals)
    return vals


def quantize_dense(a: Symbol, g: Grid, tag: str = "weyl") -> DenseOperator:
    """Dense Op^w(a) (tag 'weyl') or Op_KN(a) (tag 'kn') on a dense-eligible grid."""
    if tag not in ("weyl", "kn"):
        raise ValueError(f"unknown quantization tag {tag!r}")
    if not g.dense_eligible:
        raise ValueError(f"grid N={g.N}, n={g.n} exceeds the dense-operator budget")
    if a.n != g.n:
        raise ValueError("symbol and grid dimensions differ")
    n, N = g.n, g.N
    weyl = tag == "weyl"
    if weyl:
        # the midpoint of nodes j and l is -L + (dx/2) (j + l) on each axis
        axis = -g.L + 0.5 * g.dx * np.arange(2 * N - 1)
    else:
        axis = g.x_axis
    # Slab by slab over the first midpoint axis: sample, transform, scatter.
    # The kernel is indexed [first midpoint, other midpoints, first lag, other
    # lags]; entry (j, l) reads it at midpoint index j + l (Weyl) or j (KN) and
    # lag (j - l) mod N.  Past the first axis there is at most one axis
    # (n <= 2), whose index pairs are tabulated once; for n = 1 it has the
    # single index 0.
    rest = np.arange(N ** (n - 1))
    rest_mid = rest[:, None] + rest[None, :] if weyl else rest[:, None]
    rest_lag = (rest[:, None] - rest[None, :]) % N
    kernel_shape = (axis.size ** (n - 1), N, rest.size)
    step = max(1, SLAB_ENTRIES // (kernel_shape[0] * g.size))  # first-axis midpoints per slab
    mat = np.empty((N, rest.size, N, rest.size), dtype=complex)  # [j1, j', l1, l']
    for start in range(0, axis.size, step):
        stop = min(start + step, axis.size)
        mids = np.meshgrid(axis[start:stop], *([axis] * (n - 1)), indexing="ij")
        samples = _symbol_samples(a, g, np.stack(mids, axis=-1).reshape(-1, n))
        kernel = g.ifftn(samples).reshape(stop - start, *kernel_shape)
        # the first-axis pairs (j1, l1) whose midpoint index m lies in the slab
        m, l1 = np.meshgrid(np.arange(start, stop), np.arange(N), indexing="ij")
        j1 = m - l1 if weyl else m
        inside = (j1 >= 0) & (j1 < N)
        m, j1, l1 = m[inside] - start, j1[inside], l1[inside]
        lag = (j1 - l1) % N
        mat[j1, :, l1, :] = kernel[m[:, None, None], rest_mid, lag[:, None, None], rest_lag]
    return DenseOperator(g, mat.reshape(g.size, g.size), tag, a)


def _split_samples(a: Symbol, g: Grid):
    """a.split sampled on the grid: a0 on the frequency mesh (None when a0 = 0)
    and the (f, g) pairs, the frequency factors through `_symbol_samples`.
    Raises ValueError, naming the symbol, when a has no split."""
    if a.split is None:
        raise ValueError(f"symbol {a.label!r} has no split a0(xi) + sum f(x) g(xi)")
    a0, pairs = a.split
    origin = np.zeros((1, g.n))
    x_pts = g.x_mesh.reshape(-1, g.n)

    def freq(expr):
        return _symbol_samples(a, g, origin, expr)[0]

    samples = [(a.eval_expr(f, x_pts, origin).reshape(g.shape), freq(gx)) for f, gx in pairs]
    return (None if a0 == 0 else freq(a0)), samples


class EvolutionOperator:
    """Grid realization of A = Op^w(a) (tag 'weyl') or Op_KN(a) (tag 'kn'):
    the multiplier a0(D) plus a remainder, read off the split
    a = a0(xi) + sum_k f_k(x) g_k(xi) (`SympySymbol.split`).

    Each pair (f, g) gives physical-side terms f G(u) and coefficient-side
    terms G(f u), G = g(D): KN is the one term f G, exact; Weyl is the
    symmetrized (fG + Gf)/2 for real and complex pairs alike (the form is
    linear in f).  The symmetrized pair is Op^w(f g) exactly when g has
    xi-degree <= 1; for higher degrees it differs by a term of order m - 2.
    It keeps the generator of a real symbol exactly Hermitian.  A symbol with
    no split raises ValueError.
    """

    def __init__(self, symbol: Symbol, grid: Grid, tag: str = "weyl"):
        if tag not in ("weyl", "kn"):
            raise ValueError(f"unknown quantization tag {tag!r}")
        if symbol.n != grid.n:
            raise ValueError("symbol and grid dimensions differ")
        self.symbol = symbol
        self.grid = grid
        self.tag = tag
        # the multiplier a0(D) (None when a0 = 0) and the (f, g) samples of the split
        self.multiplier, self.pairs = _split_samples(symbol, grid)
        # the physical-side terms (f, g): f G(u); the coefficient-side terms (g, f): G(f u)
        if tag == "kn":
            self._physical, self._coefficient = list(self.pairs), []
        else:
            # 0.5 * f * w rounds as (0.5 * f) * w
            self._physical = [(0.5 * fv, gv) for fv, gv in self.pairs]
            self._coefficient = [(0.5 * gv, fv) for fv, gv in self.pairs]
        self._rows: Optional[np.ndarray] = None  # see _row_stack

    # -- application -----------------------------------------------------------
    # Operators act on raw FFT coefficients (Grid.fftn of the samples): the
    # (-1)^k phases and the dx^n factor of `transform` are diagonal, so they
    # commute with every multiplier and cancel in each sandwich below.

    def apply_remainder(self, uhat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Coefficients of (A - a0(D)) u, given the coefficients uhat of u;
        written to `out` when it is given.

        The terms act through one stacked inverse and one stacked forward
        transform call, both made in the storage of one row stack, which is
        kept between calls on state-shaped arrays.  A pure multiplier has no
        remainder: the result is zero and no transform runs.  Leading axes of
        uhat index a stack of arrays, each mapped on its own.
        """
        if out is None:
            out = np.empty(uhat.shape, dtype=complex)
        if not self._physical:
            out[...] = 0.0
            return out
        rows = self.grid.fftn(self._forward_rows(uhat), overwrite_x=True)
        terms = self._coefficient
        if not terms:
            out[...] = rows[0]
            return out
        # the terms summed in coefficient space, each product made in its
        # spent row; rows[1] is the physical-side sum
        np.multiply(terms[0][0], rows[0], out=out)
        for (gv, _), w in zip(terms[1:], rows[2:]):
            out += np.multiply(gv, w, out=w)
        out += rows[1]
        return out

    def _forward_rows(self, uhat: np.ndarray) -> np.ndarray:
        """The rows of the forward call, from one inverse call on the rows
        [uhat, uhat g_1, ...], one per physical-side term, in the same stack.
        phys, the sum of the physical-side terms, is written over the spent
        row 1.  With coefficient-side terms the rows are
        [f_1 u, phys, f_2 u, ...]: each f_k u is written over the spent row
        k, and f_1 u over u itself, last; without them, the row [phys]."""
        physical, coefficient = self._physical, self._coefficient
        rows = self._row_stack(uhat.shape)
        rows[0] = uhat
        for row, (_, gv) in zip(rows[1:], physical):
            np.multiply(uhat, gv, out=row)
        self.grid.ifftn(rows, overwrite_x=True)
        values, phys = rows[0], rows[1]
        np.multiply(physical[0][0], phys, out=phys)
        for (fv, _), w in zip(physical[1:], rows[2:]):
            phys += np.multiply(fv, w, out=w)
        if not coefficient:
            return rows[1:2]
        for row, (_, fv) in zip(rows[2:], coefficient[1:]):
            np.multiply(fv, values, out=row)
        np.multiply(coefficient[0][1], values, out=values)
        return rows

    def _row_stack(self, shape: tuple) -> np.ndarray:
        """The P + 1 transform rows of `_forward_rows`; the stack of a
        state-shaped array is allocated once and kept."""
        rows = self._rows
        if rows is None or rows.shape[1:] != shape:
            rows = np.empty((len(self._physical) + 1, *shape), dtype=complex)
            if shape == self.grid.shape:
                self._rows = rows
        return rows

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Samples of A u, given the samples of u (leading axes: a stack)."""
        g = self.grid
        uhat = g.fftn(values)
        out = self.apply_remainder(uhat)
        if self.multiplier is not None:
            out += self.multiplier * uhat
        return g.ifftn(out)

    # -- magnitude estimates ------------------------------------------------------

    def max_abs_remainder(self, active_mask: Optional[np.ndarray] = None) -> float:
        total = 0.0
        for fv, gv in self.pairs:
            gmax = np.max(np.abs(gv if active_mask is None else gv[active_mask]))
            total += float(np.max(np.abs(fv)) * gmax)
        return total

    def max_abs_multiplier(self, active_mask: Optional[np.ndarray] = None) -> float:
        if self.multiplier is None:
            return 0.0
        vals = self.multiplier if active_mask is None else self.multiplier[active_mask]
        return float(np.max(np.abs(vals)))


def apply_fast(a: Symbol, u: Field) -> Field:
    """Op_KN(a) u through the matrix-free `EvolutionOperator` with tag 'kn'."""
    return Field(u.grid, EvolutionOperator(a, u.grid, "kn").apply(u.values))


def compose_symbols(a: SympySymbol, b: SympySymbol, K: int = 3) -> SympySymbol:
    """K-truncated Weyl product a # b, exact in sympy; orders add.

    The expansion terminates for symbols polynomial in xi once K covers it."""
    if K < 0:
        raise ValueError("truncation order K must be nonnegative")
    if a.n != b.n:
        raise ValueError("symbols have different dimensions")
    if not (isinstance(a, SympySymbol) and isinstance(b, SympySymbol)):
        raise TypeError("compose_symbols is exact and needs sympy-backed symbols")
    return SympySymbol(
        weyl_product_expr(a.expr, b.expr, a.n, K=K),
        a.n,
        a.order + b.order,
        zero_nyquist=a.zero_nyquist or b.zero_nyquist,
        label=f"({a.label})#({b.label})",
    )


def poisson_bracket(a: SympySymbol, b: SympySymbol) -> SympySymbol:
    """{a, b} = grad_xi a . grad_x b - grad_x a . grad_xi b, exact in sympy.

    Each term takes one xi-derivative, so the bracket of orders m1 and m2 has
    order m1 + m2 - 1.  Numeric Hamilton derivatives go through
    hamilton.hamilton_derivative."""
    if a.n != b.n:
        raise ValueError("symbols have different dimensions")
    if not (isinstance(a, SympySymbol) and isinstance(b, SympySymbol)):
        raise TypeError("poisson_bracket is exact and needs sympy-backed symbols")
    n, zero = a.n, (0,) * a.n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    expr = sp.expand(
        sum(
            _derivative_expr(a.expr, n, e, zero) * _derivative_expr(b.expr, n, zero, e)
            - _derivative_expr(a.expr, n, zero, e) * _derivative_expr(b.expr, n, e, zero)
            for e in units
        )
    )
    return SympySymbol(expr, a.n, a.order + b.order - 1.0, label=f"{{{a.label},{b.label}}}")


@dataclass
class PositivityReport:
    flavor: str
    sobolev_index: float
    fitted_C: dict = field(default_factory=dict)  # N -> fitted constant
    stability_ratio: float = np.nan
    band_fraction: float = 2.0 / 3.0
    probes: int = 0

    def as_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "sobolev_index": self.sobolev_index,
            "fitted_C": {str(k): float(v) for k, v in self.fitted_C.items()},
            "stability_ratio": float(self.stability_ratio),
            "band_fraction": self.band_fraction,
            "probes": self.probes,
        }


def _fit_positivity(a: Symbol, g: Grid, sigma: float, probes: int, rng) -> float:
    op = quantize_dense(a, g, "weyl")

    # probe-family fit
    worst = 0.0
    draws = {"center": (-0.4, 0.4), "carrier": (-0.5, 0.5), "width": (0.05, 0.15)}
    for u in wavepacket_probes(g, probes, rng, hermite=True, **draws):
        quad = float(np.real(inner_product(Field(g, op.apply_values(u.values)), u)))
        denom = sobolev_norm(u, sigma) ** 2
        worst = max(worst, -quad / denom)

    # minimum generalized eigenvalue of the band-limited compression
    Q = _positivity_basis(g)
    A_c = Q.conj().T @ (op.matrix @ Q)
    A_c = 0.5 * (A_c + A_c.conj().T)
    B_c = _bessel_form(g, Q, 2.0 * sigma)
    mu = float(scipy.linalg.eigh(A_c, B_c, eigvals_only=True, subset_by_index=[0, 0])[0])
    return max(worst, -mu)


def _positivity_basis(g: Grid) -> np.ndarray:
    """Orthonormal left singular vectors of the windowed Fourier basis W on
    the 2/3-rule band, those with singular value above POSITIVITY_RANK_RTOL
    times the largest.

    The window keeps the subspace away from the torus seam, where the
    unwrapped-midpoint convention is out of regime, but the span of W also
    holds directions concentrated where the window is small: above 1e-8 (the
    numerical rank) some have all their energy at r > 0.6L.  A unit vector of
    the kept span has at most (||P W|| / (tol sigma_max))^2 of its energy
    there (P: restriction to r > 0.6L), 3e-3 to 2e-2 on 1D N <= 512 and
    2D N <= 48.
    """
    # the band is a product of one-axis bands, so the Fourier modes are
    # Kronecker products of one-axis modes, in raveled node and band order
    band = g.dealias_mask.reshape(g.N, -1)[:, 0]  # the first axis, others at k = 0
    modes = np.exp(1j * np.outer(g.x_axis, g.xi_axis[band])) / np.sqrt(g.N)
    window = np.exp(-((g.x_radius.ravel() / (0.42 * g.L)) ** 4))
    W = window[:, None] * functools.reduce(np.kron, [modes] * g.n)
    # singular pairs from the Gram matrix: squaring the condition number is
    # harmless, as every kept sigma^2 is at least POSITIVITY_RANK_RTOL^2 of the largest
    lam, V = np.linalg.eigh(W.conj().T @ W)
    keep = lam > POSITIVITY_RANK_RTOL**2 * lam[-1]
    return (W @ V[:, keep]) / np.sqrt(lam[keep])


def _bessel_form(g: Grid, Q: np.ndarray, s: float) -> np.ndarray:
    """Q^H Op^w(<xi>^s) Q, Hermitian, without the dense operator.

    <xi>^s is x-independent, so its Weyl matrix is F^H diag(b) F / N^n with F
    the unnormalized DFT (the node offset -L is a unit-modulus diagonal that
    cancels); the form needs only the transforms FQ of Q's columns.
    """
    FQ = g.fftn(Q.T.reshape(-1, *g.shape)).reshape(Q.shape[1], g.size)
    b = _symbol_samples(bessel_symbol(s, g.n), g, np.zeros((1, g.n))).ravel()
    B_c = (FQ.conj() * b) @ FQ.T / g.size
    return 0.5 * (B_c + B_c.conj().T)


def positivity_diagnostic(
    a: Symbol,
    g: Grid,
    flavor: str = "sharp_garding",
    *,
    probes: int = 48,
    seed: int = 0,
) -> PositivityReport:
    """Fit the defect constant C in Re(Op^w(a) u, u)_0 >= -C ||u||_sigma^2 with
    sigma = (m-1)/2 (sharp Garding, Re a >= 0) or (m-2)/2 (Fefferman-Phong,
    a real and >= 0), at the given grid and its one-step refinement."""
    if flavor not in POSITIVITY_FLAVORS:
        raise ValueError(f"unknown positivity flavor {flavor!r}")
    m = a.order
    sigma = (m - 1.0) / 2.0 if flavor == "sharp_garding" else (m - 2.0) / 2.0
    if flavor == "fefferman_phong" and not a.real_valued:
        raise ValueError("Fefferman-Phong flavor requires a real-valued symbol")

    S = SampleSet.standard(g.n, x_radius=g.L, xi_max=g.xi_max, x_points=17)
    vals = np.real(a.eval(S.X, S.XI))
    if np.min(vals) < -1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError("symbol is not nonnegative on the sample set")

    fitted = {}
    for N in (g.N, 2 * g.N):
        gN = Grid(g.n, g.L, N)
        if not gN.dense_eligible:
            break
        fitted[N] = _fit_positivity(a, gN, sigma, probes, np.random.default_rng(seed))
    ratio = np.nan
    if len(fitted) == 2:
        c1, c2 = (fitted[k] for k in sorted(fitted))
        floor = 1e-10
        ratio = (c2 + floor) / (c1 + floor)
    return PositivityReport(
        flavor=flavor,
        sobolev_index=sigma,
        fitted_C=fitted,
        stability_ratio=float(ratio),
        probes=probes,
    )
