"""Periodic-torus discretization, spectral transforms, and norm/pairing computations.

The box is [-L, L)^n with N samples per axis.  Nodes are x_j = -L + 2Lj/N and
frequencies xi_k = (pi/L)k for k in {-N/2, ..., N/2-1}.  The transform pair is

    uhat(xi_k) = (2L/N)^n sum_j u(x_j) exp(-i x_j . xi_k)
    u(x_j)     = (2L)^{-n} sum_k uhat(xi_k) exp(+i x_j . xi_k)

so that the continuous (2pi)^{-n} oscillatory-integral prefactor maps onto
(2L)^{-n}.  Spectra are stored in FFT order throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "transform",
    "inverse",
    "apply_multiplier",
    "apply_bessel",
    "sobolev_norm",
    "l2_norm",
    "weighted_pairing",
    "inner_product",
    "tail_mass_fraction",
    "wavepacket_probes",
]

# Dense N^n-by-N^n operator matrices are allowed up to this many entries.
DENSE_ENTRY_BUDGET = 1 << 26


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n, n in {1, 2}."""

    n: int
    L: float
    N: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        if self.L <= 0:
            raise ValueError(f"half-width L must be positive, got {self.L}")
        if self.N % 2 != 0:
            raise ValueError(f"N must be even, got {self.N}")
        if self.N < 8:
            raise ValueError(f"N must be at least 8, got {self.N}")

    # -- geometry -----------------------------------------------------------

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N**self.n

    @property
    def dense_eligible(self) -> bool:
        """True when the dense operator matrix fits the entry budget."""
        return self.size**2 <= DENSE_ENTRY_BUDGET

    @property
    def x_axis(self) -> np.ndarray:
        """Nodes along one axis, ascending from -L to L - dx."""
        if "x_axis" not in self._cache:
            a = -self.L + self.dx * np.arange(self.N)
            a.setflags(write=False)
            self._cache["x_axis"] = a
        return self._cache["x_axis"]

    @property
    def k_int(self) -> np.ndarray:
        """Integer mode numbers along one axis, FFT order."""
        if "k_int" not in self._cache:
            k = np.rint(np.fft.fftfreq(self.N) * self.N).astype(int)
            k.setflags(write=False)
            self._cache["k_int"] = k
        return self._cache["k_int"]

    @property
    def xi_axis(self) -> np.ndarray:
        """Frequencies along one axis, FFT order."""
        if "xi_axis" not in self._cache:
            xi = (np.pi / self.L) * self.k_int
            xi.setflags(write=False)
            self._cache["xi_axis"] = xi
        return self._cache["xi_axis"]

    @property
    def frequencies(self) -> np.ndarray:
        """Frequencies along one axis, sorted ascending (for display)."""
        return np.sort(self.xi_axis)

    @property
    def xi_max(self) -> float:
        """Largest resolved |xi| component: N pi / (2L)."""
        return np.pi * self.N / (2.0 * self.L)

    @property
    def x_mesh(self) -> np.ndarray:
        """Node coordinates, shape self.shape + (n,)."""
        if "x_mesh" not in self._cache:
            axes = np.meshgrid(*([self.x_axis] * self.n), indexing="ij")
            m = np.stack(axes, axis=-1)
            m.setflags(write=False)
            self._cache["x_mesh"] = m
        return self._cache["x_mesh"]

    @property
    def xi_mesh(self) -> np.ndarray:
        """Frequency coordinates in FFT order, shape self.shape + (n,)."""
        if "xi_mesh" not in self._cache:
            axes = np.meshgrid(*([self.xi_axis] * self.n), indexing="ij")
            m = np.stack(axes, axis=-1)
            m.setflags(write=False)
            self._cache["xi_mesh"] = m
        return self._cache["xi_mesh"]

    @property
    def x_radius(self) -> np.ndarray:
        """|x_j| on the node mesh."""
        if "x_radius" not in self._cache:
            r = np.sqrt(np.sum(self.x_mesh**2, axis=-1))
            r.setflags(write=False)
            self._cache["x_radius"] = r
        return self._cache["x_radius"]

    @property
    def xi_norm(self) -> np.ndarray:
        """|xi_k| on the frequency mesh (FFT order)."""
        if "xi_norm" not in self._cache:
            r = np.sqrt(np.sum(self.xi_mesh**2, axis=-1))
            r.setflags(write=False)
            self._cache["xi_norm"] = r
        return self._cache["xi_norm"]

    @property
    def bessel_base(self) -> np.ndarray:
        """<xi> = (1 + |xi|^2)^{1/2} on the frequency mesh."""
        if "bessel" not in self._cache:
            b = np.sqrt(1.0 + self.xi_norm**2)
            b.setflags(write=False)
            self._cache["bessel"] = b
        return self._cache["bessel"]

    @property
    def nyquist_mask(self) -> np.ndarray:
        """Boolean mesh, True where any axis carries the (sign-ambiguous) Nyquist mode."""
        if "nyq" not in self._cache:
            axis_mask = self.k_int == -self.N // 2
            if self.n == 1:
                m = axis_mask.copy()
            else:
                m = axis_mask[:, None] | axis_mask[None, :]
            m.setflags(write=False)
            self._cache["nyq"] = m
        return self._cache["nyq"]

    @property
    def phase(self) -> np.ndarray:
        """(-1)^{k_1 + ... + k_n} in FFT order; carries the -L offset of the nodes."""
        if "phase" not in self._cache:
            p1 = np.where(self.k_int % 2 == 0, 1.0, -1.0)
            if self.n == 1:
                p = p1.copy()
            else:
                p = p1[:, None] * p1[None, :]
            p.setflags(write=False)
            self._cache["phase"] = p
        return self._cache["phase"]

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the frequency mesh (True = keep)."""
        if "dealias" not in self._cache:
            keep1 = np.abs(self.k_int) <= (2 * (self.N // 2)) // 3
            if self.n == 1:
                m = keep1.copy()
            else:
                m = keep1[:, None] & keep1[None, :]
            m.setflags(write=False)
            self._cache["dealias"] = m
        return self._cache["dealias"]

    # -- transforms ----------------------------------------------------------
    # The one FFT seam: every transform of the grid, evolve and nonlinear
    # layers goes through this pair.  Both act on the last n axes, so leading
    # axes index a stack of arrays that share one call.

    def fftn(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized forward DFT over the last n axes."""
        fft = _scipy_fft()
        return fft.fft(values) if self.n == 1 else fft.fft2(values)

    def ifftn(self, values: np.ndarray) -> np.ndarray:
        """Inverse DFT over the last n axes (1/N^n normalization)."""
        fft = _scipy_fft()
        return fft.ifft(values) if self.n == 1 else fft.ifft2(values)


@functools.cache
def _scipy_fft():
    # imported on first use: a module-level import adds about 0.09 s to the
    # start-up of every process that imports weylab
    import scipy.fft

    return scipy.fft


def make_grid(n: int, L: float, N: int) -> Grid:
    """Build a validated periodic grid (see Grid)."""
    return Grid(n=int(n), L=float(L), N=int(N))


def _as_complex(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128)
    return out


@dataclass(frozen=True)
class Field:
    """Complex samples u(x_j) on a grid.  Treated as immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _as_complex(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample fn(x) (n=1) or fn(x1, x2) (n=2) on the nodes."""
        mesh = grid.x_mesh
        comps = [mesh[..., i] for i in range(grid.n)]
        return cls(grid, np.asarray(fn(*comps), dtype=np.complex128))

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__

    def _check(self, other: "Field"):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class SpectralField:
    """DFT coefficients uhat(xi_k) on a grid, FFT ordering."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_complex(self.coeffs)
        if c.shape != self.grid.shape:
            raise ValueError(f"spectrum shape {c.shape} does not match grid {self.grid.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def transform(u: Field) -> SpectralField:
    """Forward transform: uhat(xi_k) = (2L/N)^n sum_j u(x_j) e^{-i x_j xi_k}."""
    g = u.grid
    coeffs = (g.dx**g.n) * g.phase * g.fftn(u.values)
    return SpectralField(g, coeffs)


def inverse(uhat: SpectralField) -> Field:
    """Inverse transform: u(x_j) = (2L)^{-n} sum_k uhat(xi_k) e^{+i x_j xi_k}."""
    g = uhat.grid
    values = g.ifftn(uhat.coeffs * g.phase) / (g.dx**g.n)
    return Field(g, values)


def _spectrum(u: Field) -> np.ndarray:
    g = u.grid
    return (g.dx**g.n) * g.phase * g.fftn(u.values)


def _from_spectrum(g: Grid, coeffs: np.ndarray) -> Field:
    return Field(g, g.ifftn(coeffs * g.phase) / (g.dx**g.n))


def apply_multiplier(u: Field, values: np.ndarray) -> Field:
    """Apply a Fourier multiplier given by its values on the frequency mesh."""
    g = u.grid
    return _from_spectrum(g, _spectrum(u) * values)


def apply_bessel(u: Field, s: float) -> Field:
    """Apply Lambda^s, the Fourier multiplier <xi>^s."""
    return apply_multiplier(u, u.grid.bessel_base**s)


def sobolev_norm(u: Field, s: float) -> float:
    """H^s norm: ||u||_s^2 = (2L)^{-n} sum_k <xi_k>^{2s} |uhat|^2."""
    g = u.grid
    coeffs = _spectrum(u)
    total = np.sum(g.bessel_base ** (2.0 * s) * np.abs(coeffs) ** 2)
    return float(np.sqrt(total / (2.0 * g.L) ** g.n))


def l2_norm(u: Field) -> float:
    """Plain quadrature L^2 norm: (dx^n sum_j |u|^2)^{1/2}."""
    g = u.grid
    return float(np.sqrt(g.dx**g.n * np.sum(np.abs(u.values) ** 2)))


def inner_product(u: Field, v: Field) -> complex:
    """Discrete L^2 pairing (u, v)_0 = dx^n sum_j u conj(v)."""
    u._check(v)
    g = u.grid
    return complex(g.dx**g.n * np.sum(u.values * np.conj(v.values)))


def weighted_pairing(u: Field, lam: Callable[[np.ndarray], np.ndarray], s: float) -> float:
    """Spatially weighted pairing dx^n sum_j lam(|x_j|) |Lambda^s u(x_j)|^2.

    lam must be strictly positive on the box.
    """
    g = u.grid
    w = np.asarray(lam(g.x_radius), dtype=float)
    if np.any(w <= 0):
        raise ValueError("weight must be strictly positive on the box")
    v = apply_bessel(u, s)
    return float(g.dx**g.n * np.sum(w * np.abs(v.values) ** 2))


def gaussian_wavepacket(
    grid: Grid,
    carrier,
    width2: float = 8.0,
    amplitude: float = 1.0,
    center=None,
) -> Field:
    """amplitude * exp(i carrier . x) exp(-|x - center|^2 / width2)."""
    carrier = np.atleast_1d(np.asarray(carrier, dtype=float))
    if carrier.size != grid.n:
        raise ValueError(f"carrier must have {grid.n} components")
    center = np.zeros(grid.n) if center is None else np.asarray(center, dtype=float)
    mesh = grid.x_mesh
    sq = np.zeros(grid.shape)
    ph = np.zeros(grid.shape)
    for d in range(grid.n):
        sq = sq + (mesh[..., d] - center[d]) ** 2
        ph = ph + carrier[d] * mesh[..., d]
    return Field(grid, amplitude * np.exp(1j * ph) * np.exp(-sq / width2))


def wavepacket_probes(
    grid: Grid,
    count: int,
    rng: np.random.Generator,
    *,
    center: tuple[float, float],
    carrier: tuple[float, float],
    width: tuple[float, float],
    hermite: bool = False,
) -> list[Field]:
    """count random Gaussian wavepackets exp(i k.x) exp(-|x - c|^2 / (2 w^2)).

    Each packet draws c uniform in center * L (per axis), then k uniform in
    carrier * xi_max (per axis), then w uniform in width * L.  With hermite,
    every other packet is multiplied by (x_1 - c_1) / w.
    """
    mesh = grid.x_mesh
    out = []
    for i in range(count):
        c = rng.uniform(center[0] * grid.L, center[1] * grid.L, size=grid.n)
        k = rng.uniform(carrier[0] * grid.xi_max, carrier[1] * grid.xi_max, size=grid.n)
        w = rng.uniform(width[0] * grid.L, width[1] * grid.L)
        u = gaussian_wavepacket(grid, k, 2 * w**2, center=c)
        if hermite and i % 2 == 1:
            u = Field(grid, u.values * (mesh[..., 0] - c[0]) / w)
        out.append(u)
    return out


def tail_mass_fraction(u: Field, radius: float) -> float:
    """Fraction of the L^2 mass outside |x| <= radius (0 for the zero field)."""
    g = u.grid
    dens = np.abs(u.values) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    outside = float(np.sum(dens[g.x_radius > radius]))
    return outside / total
