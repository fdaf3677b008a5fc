"""Quantization of symbols into grid operators and the asymptotic Weyl calculus.

Dense quantization realizes

    A[j, l] = N^{-n} sum_k e^{i (x_j - x_l) . xi_k} a(midpoint, xi_k)

with midpoint (x_j + x_l)/2 for the Weyl tag and x_j for the Kohn-Nirenberg
tag; midpoints are evaluated in unwrapped box coordinates.  Assembly uses the
lag structure, with one path for every dimension and both tags: an inverse
transform of the symbol samples over k (through `Grid.ifftn`, the package's
one FFT seam) gives a kernel indexed by (midpoint, (j - l) mod N), which is
exact because the kernel is N-periodic in the lag, and the matrix gathers its
entries from that kernel.

`EvolutionOperator` applies either tag matrix-free from the split
a = a0(xi) + sum_k f_k(x) g_k(xi) (`SympySymbol.split`), with one stacked
inverse and one stacked forward transform call however many pairs there are;
`apply_fast` is its Kohn-Nirenberg tag.

One sampler, `_symbol_samples`, takes every sample of a symbol on the
frequency mesh, for the dense assembly, the multipliers and the split; it
zeroes the samples of zero_nyquist (odd-order) symbols at the sign-ambiguous
Nyquist frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .grid import Field, Grid, wavepacket_probes
from .symbol.checks import SampleSet
from .symbol.core import Symbol, SympySymbol, kn_to_weyl_expr, weyl_product_expr

__all__ = [
    "DenseOperator",
    "EvolutionOperator",
    "PositivityReport",
    "quantize_dense",
    "apply_fast",
    "compose_symbols",
    "change_quantization",
    "poisson_bracket",
    "positivity_diagnostic",
    "POSITIVITY_FLAVORS",
]

POSITIVITY_FLAVORS = ("sharp_garding", "fefferman_phong")  # of positivity_diagnostic


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
    if tag == "weyl":
        # the midpoint of nodes j and l is -L + (dx/2) (j + l) on each axis
        axis = -g.L + 0.5 * g.dx * np.arange(2 * N - 1)
    else:
        axis = g.x_axis
    mids = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    # kernel[midpoint, lag]: the symbol samples transformed over the frequencies;
    # an x-independent symbol has one row, the same at every midpoint
    if a.x_independent:
        row = g.ifftn(_symbol_samples(a, g, mids[:1])).reshape(1, g.size)
        kernel = np.broadcast_to(row, (len(mids), g.size))
    else:
        kernel = g.ifftn(_symbol_samples(a, g, mids)).reshape(len(mids), g.size)
    nodes = np.indices(g.shape).reshape(n, -1)  # multi-index of each raveled node
    mat = np.empty((g.size, g.size), dtype=complex)
    block = max(1, (1 << 22) // g.size)  # rows gathered at once
    for start in range(0, g.size, block):
        j = nodes[:, start : start + block, None]
        l = nodes[:, None, :]
        mat[start : start + block] = kernel[
            np.ravel_multi_index(j + l if tag == "weyl" else j, (axis.size,) * n),
            np.ravel_multi_index((j - l) % N, g.shape),
        ]
    return DenseOperator(g, mat, tag, a)


def _split_samples(a: Symbol, g: Grid):
    """a.split sampled on the grid: a0 on the frequency mesh (None when a0 = 0)
    and the (f, g) pairs, the frequency factors through `_symbol_samples`.
    None when a has no split."""
    if a.split is None:
        return None
    a0, pairs = a.split
    origin = np.zeros((1, g.n))
    x_pts = g.x_mesh.reshape(-1, g.n)

    def freq(expr):
        return _symbol_samples(a, g, origin, expr)[0]

    samples = [(a.eval_expr(f, x_pts, origin).reshape(g.shape), freq(gx)) for f, gx in pairs]
    return (None if a0 == 0 else freq(a0)), samples


class EvolutionOperator:
    """Grid realization of A = Op^w(a) (tag 'weyl') or Op_KN(a) (tag 'kn'):
    the multiplier a0(D) plus a remainder.

    Each pair (f, g) of the split gives physical-side terms f G(u) and
    coefficient-side terms G(f u), G = g(D): KN is the one term f G, Weyl the
    symmetrized (fG + Gf)/2, which keeps the generator of a real symbol
    exactly Hermitian.  The terms alone drive the application.  A is
    matrix-free when the split exists and the tag is 'kn', a is real or a is
    x-independent (its split is a0 alone); otherwise the remainder is the
    dense `quantize_dense(a, grid, tag)`.
    """

    def __init__(self, symbol: Symbol, grid: Grid, tag: str = "weyl"):
        if tag not in ("weyl", "kn"):
            raise ValueError(f"unknown quantization tag {tag!r}")
        if symbol.n != grid.n:
            raise ValueError("symbol and grid dimensions differ")
        self.symbol = symbol
        self.grid = grid
        self.tag = tag
        self.multiplier: Optional[np.ndarray] = None
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []  # (f, g) samples of the split
        self.dense: Optional[DenseOperator] = None
        self._physical: list[tuple[np.ndarray, np.ndarray]] = []  # (f, g): f G(u)
        self._coefficient: list[tuple[np.ndarray, np.ndarray]] = []  # (g, f): G(f u)

        split = None
        if tag == "kn" or symbol.real_valued or symbol.x_independent:
            split = _split_samples(symbol, grid)
        if split is None:
            self.dense = quantize_dense(symbol, grid, tag)
            return
        self.multiplier, self.pairs = split
        if tag == "kn":
            self._physical = list(self.pairs)
        else:
            # 0.5 * f * w rounds as (0.5 * f) * w
            self._physical = [(0.5 * fv, gv) for fv, gv in self.pairs]
            self._coefficient = [(0.5 * gv, fv) for fv, gv in self.pairs]

    # -- application -----------------------------------------------------------
    # Operators act on raw FFT coefficients (Grid.fftn of the samples): the
    # (-1)^k phases and the dx^n factor of `transform` are diagonal, so they
    # commute with every multiplier and cancel in each sandwich below.

    def apply_remainder(self, uhat: np.ndarray) -> np.ndarray:
        """Coefficients of (A - a0(D)) u, given the coefficients uhat of u.

        The terms and the dense fallback act through one stacked inverse and
        one stacked forward transform call.  A pure multiplier has no
        remainder: the result is zero and no transform runs.  Leading axes of
        uhat index a stack of arrays, each mapped on its own.
        """
        if not self._physical and self.dense is None:
            return np.zeros_like(uhat)
        out, *forwards = self.grid.fftn(self._forward_rows(uhat))
        if not forwards:
            return out
        terms = self._coefficient
        spec = terms[0][0] * forwards[0]  # the terms summed in coefficient space
        for (gv, _), w in zip(terms[1:], forwards[1:]):
            spec += gv * w
        spec += out
        return spec

    def _forward_rows(self, uhat: np.ndarray) -> np.ndarray:
        """The rows [phys, f_1 u, ...] of the forward call, one f u per
        coefficient-side term, from one inverse call on the rows
        [uhat, uhat g_1, ...], one per physical-side term; phys sums the
        dense fallback and the physical-side terms.  The forward rows are
        written over the spent inverse rows, so at most two such arrays live
        at once."""
        physical, coefficient = self._physical, self._coefficient
        rows = np.empty((len(physical) + 1, *uhat.shape), dtype=complex)
        rows[0] = uhat
        for row, (_, gv) in zip(rows[1:], physical):
            np.multiply(uhat, gv, out=row)
        rows = self.grid.ifftn(rows)
        values = rows[0]
        terms = (fv * w for (fv, _), w in zip(physical, rows[1:]))
        phys = next(terms) if self.dense is None else self.dense.apply_values(values)
        for w in terms:
            phys += w
        # every coefficient-side term comes with a physical-side term, so the
        # forward rows fit in the spent inverse rows
        rows = rows[: len(coefficient) + 1]
        for row, (_, fv) in zip(rows[1:], coefficient):
            np.multiply(fv, values, out=row)
        rows[0] = phys
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

    def _pair_max(self, active_mask: Optional[np.ndarray]) -> float:
        total = 0.0
        for fv, gv in self.pairs:
            gmax = np.max(np.abs(gv if active_mask is None else gv[active_mask]))
            total += float(np.max(np.abs(fv)) * gmax)
        return total

    def max_abs_remainder(self, active_mask: Optional[np.ndarray] = None) -> float:
        total = self._pair_max(active_mask)
        if self.dense is not None:
            total += float(np.linalg.norm(self.dense.matrix, np.inf))
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


def change_quantization(a_kn: SympySymbol, K: int = 3) -> SympySymbol:
    """Weyl symbol of Op_KN(a): truncated exp((i/2) sum_j d_xj d_xij) a, exact
    in sympy.

    Exact at K = 1 for symbols first-order in xi (vector fields).
    """
    if K < 0:
        raise ValueError("truncation order K must be nonnegative")
    if not isinstance(a_kn, SympySymbol):
        raise TypeError("change_quantization is exact and needs a sympy-backed symbol")
    return SympySymbol(
        kn_to_weyl_expr(a_kn.expr, a_kn.n, K=K),
        a_kn.n,
        a_kn.order,
        zero_nyquist=a_kn.zero_nyquist,
        label=f"weyl[{a_kn.label}]",
    )


def poisson_bracket(a: SympySymbol, b: SympySymbol) -> SympySymbol:
    """{a, b} = grad_xi a . grad_x b - grad_x a . grad_xi b, exact in sympy.

    Numeric Hamilton derivatives go through hamilton.hamilton_derivative."""
    if a.n != b.n:
        raise ValueError("symbols have different dimensions")
    if not (isinstance(a, SympySymbol) and isinstance(b, SympySymbol)):
        raise TypeError("poisson_bracket is exact and needs sympy-backed symbols")
    import sympy as sp

    xs = a._xs
    xis = a._xis
    expr = sp.expand(
        sum(
            sp.diff(a.expr, xis[i]) * sp.diff(b.expr, xs[i])
            - sp.diff(a.expr, xs[i]) * sp.diff(b.expr, xis[i])
            for i in range(a.n)
        )
    )
    return SympySymbol(expr, a.n, a.order + b.order - 2.0, label=f"{{{a.label},{b.label}}}")


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
    from .grid import inner_product, sobolev_norm
    from .symbol.core import bessel_symbol

    op = quantize_dense(a, g, "weyl")
    herm = 0.5 * (op.matrix + op.matrix.conj().T)

    # probe-family fit
    worst = 0.0
    draws = {"center": (-0.4, 0.4), "carrier": (-0.5, 0.5), "width": (0.05, 0.15)}
    for u in wavepacket_probes(g, probes, rng, hermite=True, **draws):
        quad = float(np.real(inner_product(Field(g, op.apply_values(u.values)), u)))
        denom = sobolev_norm(u, sigma) ** 2
        worst = max(worst, -quad / denom)

    # minimum generalized eigenvalue of the band-limited compression.  The
    # basis is spatially windowed so the subspace stays away from the torus
    # seam, where the unwrapped-midpoint convention is out of regime.
    keep = g.dealias_mask.ravel()
    idx = np.where(keep)[0]
    basis = _windowed_fourier_basis(g, idx)
    Q, _ = np.linalg.qr(basis)
    A_c = Q.conj().T @ herm @ Q
    B_mat = quantize_dense(bessel_symbol(2.0 * sigma, g.n), g, "weyl").matrix
    B_c = Q.conj().T @ B_mat @ Q
    B_c = 0.5 * (B_c + B_c.conj().T)
    mu = float(np.min(scipy.linalg.eigh(A_c, B_c, eigvals_only=True)))
    worst = max(worst, -mu)
    return worst


def _windowed_fourier_basis(g: Grid, idx: np.ndarray) -> np.ndarray:
    x = g.x_mesh.reshape(-1, g.n)
    xi = g.xi_mesh.reshape(-1, g.n)[idx]
    r = np.sqrt(np.sum(x**2, axis=-1))
    window = np.exp(-((r / (0.42 * g.L)) ** 4))
    return window[:, None] * np.exp(1j * x @ xi.T) / np.sqrt(g.size)


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

    S = SampleSet.from_grid(g, x_points=17)
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
