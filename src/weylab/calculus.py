"""Quantization of symbols into grid operators and the asymptotic Weyl calculus.

Dense quantization realizes

    A[j, l] = N^{-n} sum_k e^{i (x_j - x_l) . xi_k} a(midpoint, xi_k)

with midpoint (x_j + x_l)/2 for the Weyl tag and x_j for the Kohn-Nirenberg
tag; midpoints are evaluated in unwrapped box coordinates.  Assembly uses the
lag structure: an inverse FFT of the symbol samples over k gives the matrix
indexed by (midpoint, (j - l) mod N), which is exact because the kernel is
N-periodic in the lag.

Symbols flagged zero_nyquist (odd order) have their samples zeroed at the
sign-ambiguous Nyquist frequencies before any application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .grid import Field, Grid, apply_multiplier, wavepacket_probes
from .symbol.checks import SampleSet
from .symbol.core import (
    Symbol,
    SympySymbol,
    FuncSymbol,
    multi_factorial,
    multi_indices,
    multi_indices_upto,
    weyl_product_expr,
    kn_to_weyl_expr,
)

__all__ = [
    "DenseOperator",
    "PositivityReport",
    "quantize_dense",
    "apply_fast",
    "compose_symbols",
    "change_quantization",
    "poisson_bracket",
    "positivity_diagnostic",
]


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
        return (self.matrix @ values.ravel()).reshape(self.grid.shape)

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


def _symbol_samples(a: Symbol, g: Grid, x_pts: np.ndarray) -> np.ndarray:
    """Evaluate a on (x points) x (all grid frequencies); shape (Mx, N^n)."""
    XI = g.xi_mesh.reshape(-1, g.n)
    vals = a.eval(x_pts[:, None, :], XI[None, :, :])
    if a.zero_nyquist:
        vals = np.array(vals)
        vals[:, g.nyquist_mask.ravel()] = 0.0
    return vals


def quantize_dense(a: Symbol, g: Grid, tag: str = "weyl") -> DenseOperator:
    """Dense Op^w(a) (tag 'weyl') or Op_KN(a) (tag 'kn') on a dense-eligible grid."""
    if tag not in ("weyl", "kn"):
        raise ValueError(f"unknown quantization tag {tag!r}")
    if not g.dense_eligible:
        raise ValueError(f"grid N={g.N}, n={g.n} exceeds the dense-operator budget")
    if a.n != g.n:
        raise ValueError("symbol and grid dimensions differ")
    N = g.N
    if g.n == 1:
        if tag == "weyl":
            # midpoints live on the half-step lattice -L + (dx/2) m, m = 0..2N-2
            mids = (-g.L + 0.5 * g.dx * np.arange(2 * N - 1))[:, None]
            S = _symbol_samples(a, g, mids)
            G = np.fft.ifft(S, axis=1)
            jj, ll = np.indices((N, N))
            mat = G[jj + ll, (jj - ll) % N]
        else:
            S = _symbol_samples(a, g, g.x_axis[:, None])
            G = np.fft.ifft(S, axis=1)
            jj, ll = np.indices((N, N))
            mat = G[jj, (jj - ll) % N]
        return DenseOperator(g, np.ascontiguousarray(mat), tag, a)

    # n == 2: same lag structure per axis, assembled in row blocks
    size = N * N
    mat = np.empty((size, size), dtype=complex)
    if tag == "weyl":
        half = -g.L + 0.5 * g.dx * np.arange(2 * N - 1)
        mids = np.stack(np.meshgrid(half, half, indexing="ij"), axis=-1).reshape(-1, 2)
        S = _symbol_samples(a, g, mids).reshape(2 * N - 1, 2 * N - 1, N, N)
        G = np.fft.ifft2(S, axes=(2, 3))
        l1, l2 = np.divmod(np.arange(size), N)
        block = max(1, min(N * N, (1 << 22) // size))
        for start in range(0, size, block):
            stop = min(start + block, size)
            j1, j2 = np.divmod(np.arange(start, stop), N)
            mat[start:stop] = G[
                j1[:, None] + l1[None, :],
                j2[:, None] + l2[None, :],
                (j1[:, None] - l1[None, :]) % N,
                (j2[:, None] - l2[None, :]) % N,
            ]
    else:
        x_pts = g.x_mesh.reshape(-1, 2)
        S = _symbol_samples(a, g, x_pts).reshape(N, N, N, N)
        G = np.fft.ifft2(S, axes=(2, 3))
        l1, l2 = np.divmod(np.arange(size), N)
        block = max(1, min(N * N, (1 << 22) // size))
        for start in range(0, size, block):
            stop = min(start + block, size)
            j1, j2 = np.divmod(np.arange(start, stop), N)
            mat[start:stop] = G[
                j1[:, None],
                j2[:, None],
                (j1[:, None] - l1[None, :]) % N,
                (j2[:, None] - l2[None, :]) % N,
            ]
    return DenseOperator(g, mat, tag, a)


def _multiplier_values(a: Symbol, g: Grid) -> np.ndarray:
    XI = g.xi_mesh.reshape(-1, g.n)
    origin = np.zeros((1, g.n))
    vals = a.eval(origin, XI).reshape(g.shape)
    if a.zero_nyquist:
        vals = np.where(g.nyquist_mask, 0.0, vals)
    return vals


def apply_fast(a: Symbol, u: Field, tag: str = "kn") -> Field:
    """Matrix-free Kohn-Nirenberg application.

    Paths: exact Fourier multiplier for x-independent symbols, separable-term
    sum when the symbol declares f(x) g(xi) structure, pointwise product for
    sympy symbols whose expression has no xi, and the O(N^{2n}) direct KN sum
    otherwise.
    """
    if tag != "kn":
        raise ValueError("apply_fast implements the KN quantization only")
    g = u.grid
    if a.n != g.n:
        raise ValueError("symbol and grid dimensions differ")

    if a.x_independent:
        return apply_multiplier(u, _multiplier_values(a, g))

    x_pts = g.x_mesh.reshape(-1, g.n)
    xi_pts = g.xi_mesh.reshape(-1, g.n)
    if a.separable_terms is not None:
        out = np.zeros(g.shape, dtype=complex)
        for term in a.separable_terms:
            gv = term.frequency_values(xi_pts).reshape(g.shape)
            if a.zero_nyquist:
                gv = np.where(g.nyquist_mask, 0.0, gv)
            w = apply_multiplier(u, gv).values
            fv = term.spatial_values(x_pts).reshape(g.shape)
            out += fv * w
        return Field(g, out)

    if isinstance(a, SympySymbol) and not a.expr.has(*a._xis):
        # xi-independent: pointwise multiplication
        return Field(g, a.eval(x_pts, np.zeros((1, g.n))).reshape(g.shape) * u.values)

    # general direct KN sum, blocked over rows
    if not g.dense_eligible:
        raise ValueError("general symbol application requires a dense-eligible grid")
    from .grid import transform

    uhat = transform(u).coeffs.ravel()
    if a.zero_nyquist:
        uhat = np.where(g.nyquist_mask.ravel(), 0.0, uhat)
    out = np.empty(g.size, dtype=complex)
    block = max(1, (1 << 22) // g.size)
    pref = (2.0 * g.L) ** (-g.n)
    for start in range(0, g.size, block):
        stop = min(start + block, g.size)
        xb = x_pts[start:stop]
        phases = np.exp(1j * xb @ xi_pts.T)
        vals = a.eval(xb[:, None, :], xi_pts[None, :, :])
        out[start:stop] = pref * np.sum(vals * phases * uhat[None, :], axis=1)
    return Field(g, out.reshape(g.shape))


class _ComposedSymbol(Symbol):
    """Numeric K-truncated Weyl product of two symbols."""

    def __init__(self, a: Symbol, b: Symbol, K: int):
        super().__init__(
            a.n,
            a.order + b.order,
            real_valued=False,
            zero_nyquist=a.zero_nyquist or b.zero_nyquist,
            x_independent=a.x_independent and b.x_independent,
            label=f"({a.label})#({b.label})",
        )
        self._a = a
        self._b = b
        self.K = int(K)

    def _eval(self, X, XI):
        a, b = self._a, self._b
        total = np.zeros(X[..., 0].shape, dtype=complex)
        for k in range(self.K + 1):
            for pq in multi_indices(2 * self.n, k):
                p, q = pq[: self.n], pq[self.n :]
                da = a._deriv_arrays(q, p, np.array(X), np.array(XI))
                if not np.any(da):
                    continue
                db = b._deriv_arrays(p, q, np.array(X), np.array(XI))
                coeff = (
                    (0.5j) ** k * (-1.0) ** sum(q) / (multi_factorial(p) * multi_factorial(q))
                )
                total = total + coeff * da * db
        return total


def compose_symbols(a: Symbol, b: Symbol, K: int = 3) -> Symbol:
    """K-truncated Weyl product a # b; orders add.

    Exact (symbolic, terminating) when both symbols are sympy-backed and
    polynomial in xi with K covering the expansion; otherwise a numeric
    truncated symbol backed by the factors' derivative oracles.
    """
    if K < 0:
        raise ValueError("truncation order K must be nonnegative")
    if a.n != b.n:
        raise ValueError("symbols have different dimensions")
    if isinstance(a, SympySymbol) and isinstance(b, SympySymbol):
        expr = weyl_product_expr(a.expr, b.expr, a.n, K=K)
        return SympySymbol(
            expr,
            a.n,
            a.order + b.order,
            zero_nyquist=a.zero_nyquist or b.zero_nyquist,
            label=f"({a.label})#({b.label})",
        )
    return _ComposedSymbol(a, b, K)


def change_quantization(a_kn: Symbol, K: int = 3) -> Symbol:
    """Weyl symbol of Op_KN(a): truncated exp((i/2) sum_j d_xj d_xij) a.

    Exact at K = 1 for symbols first-order in xi (vector fields).
    """
    if K < 0:
        raise ValueError("truncation order K must be nonnegative")
    if isinstance(a_kn, SympySymbol):
        expr = kn_to_weyl_expr(a_kn.expr, a_kn.n, K=K)
        return SympySymbol(
            expr,
            a_kn.n,
            a_kn.order,
            zero_nyquist=a_kn.zero_nyquist,
            label=f"weyl[{a_kn.label}]",
        )

    n = a_kn.n

    def ev(X, XI):
        total = np.zeros(X[..., 0].shape, dtype=complex)
        for gma in multi_indices_upto(n, K):
            da = a_kn._deriv_arrays(gma, gma, np.array(X), np.array(XI))
            total = total + (0.5j) ** sum(gma) / multi_factorial(gma) * da
        return total

    return FuncSymbol(
        ev,
        n,
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
    if flavor not in ("sharp_garding", "fefferman_phong"):
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
