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
    "apply_bessel",
    "sobolev_norm",
    "l2_norm",
    "weighted_pairing",
    "inner_product",
    "lam",
    "lam_deriv",
    "lam_primitive",
    "LAM_EXPONENT",
    "tail_mass_fraction",
    "wavepacket_probes",
]

# Dense N^n-by-N^n operator matrices are allowed up to this many entries.
DENSE_ENTRY_BUDGET = 1 << 26
LAM_EXPONENT = 2  # lam(r) = <r>^{-LAM_EXPONENT}, the N of the X-norm


# -- the one spatial weight of the package, which no function takes as an argument --


def lam(r) -> np.ndarray:
    """lam(r) = <r>^{-2} (N = LAM_EXPONENT)."""
    r = np.asarray(r, dtype=float)
    return np.asarray((r**2 + 1) ** (-1.0), dtype=float)


def lam_deriv(r) -> np.ndarray:
    """lam'(r) = -2 r <r>^{-4}."""
    r = np.asarray(r, dtype=float)
    return np.asarray(-2 * r / (r**2 + 1) ** 2, dtype=float)


def lam_primitive(t) -> np.ndarray:
    """Integral of lam over [0, t]: arctan(t), and 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    return np.asarray(np.arctan(np.maximum(t, 0.0)), dtype=float)


def _cached(compute: Callable[["Grid"], np.ndarray]) -> property:
    """A grid property computed on first access, made read-only and kept in
    the grid's cache; later accesses return the same array."""
    name = compute.__name__

    @functools.wraps(compute)
    def get(self):
        value = self._cache.get(name)
        if value is None:
            value = compute(self)
            value.setflags(write=False)
            self._cache[name] = value
        return value

    return property(get)


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

    @_cached
    def x_axis(self) -> np.ndarray:
        """Nodes along one axis, ascending from -L to L - dx."""
        return -self.L + self.dx * np.arange(self.N)

    @_cached
    def k_int(self) -> np.ndarray:
        """Integer mode numbers along one axis, FFT order."""
        return np.rint(np.fft.fftfreq(self.N) * self.N).astype(int)

    @_cached
    def xi_axis(self) -> np.ndarray:
        """Frequencies along one axis, FFT order."""
        return (np.pi / self.L) * self.k_int

    @property
    def xi_max(self) -> float:
        """Largest resolved |xi| component: N pi / (2L)."""
        return np.pi * self.N / (2.0 * self.L)

    @_cached
    def x_mesh(self) -> np.ndarray:
        """Node coordinates, shape self.shape + (n,)."""
        return np.stack(np.meshgrid(*([self.x_axis] * self.n), indexing="ij"), axis=-1)

    @_cached
    def xi_mesh(self) -> np.ndarray:
        """Frequency coordinates in FFT order, shape self.shape + (n,)."""
        return np.stack(np.meshgrid(*([self.xi_axis] * self.n), indexing="ij"), axis=-1)

    @_cached
    def x_radius(self) -> np.ndarray:
        """|x_j| on the node mesh."""
        return np.sqrt(np.sum(self.x_mesh**2, axis=-1))

    @_cached
    def xi_norm(self) -> np.ndarray:
        """|xi_k| on the frequency mesh (FFT order)."""
        return np.sqrt(np.sum(self.xi_mesh**2, axis=-1))

    @_cached
    def bessel_base(self) -> np.ndarray:
        """<xi> = (1 + |xi|^2)^{1/2} on the frequency mesh."""
        return np.sqrt(1.0 + self.xi_norm**2)

    @_cached
    def nyquist_mask(self) -> np.ndarray:
        """Boolean mesh, True where any axis carries the (sign-ambiguous) Nyquist mode."""
        return functools.reduce(np.logical_or.outer, [self.k_int == -self.N // 2] * self.n)

    @_cached
    def phase(self) -> np.ndarray:
        """(-1)^{k_1 + ... + k_n} in FFT order; carries the -L offset of the nodes."""
        sign = np.where(self.k_int % 2 == 0, 1.0, -1.0)
        return functools.reduce(np.multiply.outer, [sign] * self.n)

    @_cached
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the frequency mesh (True = keep)."""
        keep = np.abs(self.k_int) <= (2 * (self.N // 2)) // 3
        return functools.reduce(np.logical_and.outer, [keep] * self.n)

    # -- transforms ----------------------------------------------------------
    # The one FFT seam: every transform of the grid, evolve and nonlinear
    # layers goes through this pair.  Both act on the last n axes, so leading
    # axes index a stack of arrays that share one call.

    def fftn(self, values: np.ndarray, *, overwrite_x: bool = False) -> np.ndarray:
        """Unnormalized forward DFT over the last n axes.  With overwrite_x
        the transform is written over `values` (a writable complex array),
        which is returned."""
        fft = _scipy_fft()
        return _dft(fft.fft if self.n == 1 else fft.fft2, values, overwrite_x)

    def ifftn(self, values: np.ndarray, *, overwrite_x: bool = False) -> np.ndarray:
        """Inverse DFT over the last n axes (1/N^n normalization); overwrite_x
        as for `fftn`."""
        fft = _scipy_fft()
        return _dft(fft.ifft if self.n == 1 else fft.ifft2, values, overwrite_x)


@functools.cache
def _scipy_fft():
    # imported on first use: a module-level import adds about 0.09 s to the
    # start-up of every process that imports weylab
    import scipy.fft

    return scipy.fft


def _dft(transform_fn, values: np.ndarray, overwrite_x: bool) -> np.ndarray:
    if not overwrite_x:
        return transform_fn(values)
    # scipy transforms a native-endian complex array in its own storage, with
    # the same bits as out of place; any other array is transformed in a copy,
    # which is written back
    out = transform_fn(values, overwrite_x=True)
    if not np.may_share_memory(out, values):
        values[...] = out
    return values


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

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self.values - other.values)

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
    return SpectralField(u.grid, _spectrum(u.grid, u.values))


def inverse(uhat: SpectralField) -> Field:
    """Inverse transform: u(x_j) = (2L)^{-n} sum_k uhat(xi_k) e^{+i x_j xi_k}."""
    return Field(uhat.grid, _from_spectrum(uhat.grid, uhat.coeffs))


# -- stacked kernels -------------------------------------------------------------
# Each acts on the last n axes, like Grid.fftn: leading axes index a stack of
# arrays (the frames of a trajectory) reduced in one call.  The per-Field
# functions below are thin wrappers over them.


def _spectrum(g: Grid, values: np.ndarray) -> np.ndarray:
    """Transform coefficients uhat of the samples `values` (see `transform`).

    The scaling is written into the transform's own output, in the operand
    order (dx^n phase) F at every array size."""
    out = g.fftn(values)
    return np.multiply((g.dx**g.n) * g.phase, out, out=out)


def _from_spectrum(g: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Samples of the transform coefficients `coeffs` (see `inverse`),
    transformed and scaled in the storage of the complex product coeffs * phase."""
    out = g.ifftn(np.multiply(coeffs, g.phase, dtype=complex), overwrite_x=True)
    return np.divide(out, g.dx**g.n, out=out)


def _last_axes(g: Grid) -> tuple[int, ...]:
    return tuple(range(-g.n, 0))


def _sobolev_sq(g: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """||u||_s^2 = (2L)^{-n} sum_k <xi_k>^{2s} |uhat|^2 of each spectrum in a stack."""
    return _bessel_sq(g, coeffs, g.bessel_base ** (2.0 * s))


def _bessel_sq(g: Grid, coeffs: np.ndarray, bessel_2s: np.ndarray) -> np.ndarray:
    """`_sobolev_sq` with the power bessel_2s = <xi>^{2s} given, so that a
    per-frame consumer takes it once."""
    total = np.sum(bessel_2s * np.abs(coeffs) ** 2, axis=_last_axes(g))
    return total / (2.0 * g.L) ** g.n


def _l2_sq(g: Grid, values: np.ndarray) -> np.ndarray:
    """Quadrature dx^n sum_j |u(x_j)|^2 of each array in a stack."""
    return g.dx**g.n * np.sum(np.abs(values) ** 2, axis=_last_axes(g))


def _positive_weight(g: Grid, weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """weight(|x|) on the nodes; ValueError unless it is finite and strictly
    positive there."""
    w = np.asarray(weight(g.x_radius), dtype=float)
    # min and max carry a NaN through, and neither allocates
    if not (np.min(w) > 0 and np.max(w) < np.inf):
        raise ValueError("weight must be finite and strictly positive on the box")
    return w


def _weighted_sq(g: Grid, coeffs: np.ndarray, w: np.ndarray, bessel_s: np.ndarray) -> np.ndarray:
    """dx^n sum_j w_j |Lambda^s u(x_j)|^2 of each spectrum in a stack, for the
    weight w = `_positive_weight(g, weight)` and the power bessel_s = <xi>^s,
    which a per-frame consumer takes once."""
    v = _from_spectrum(g, coeffs * bessel_s)
    return g.dx**g.n * np.sum(w * np.abs(v) ** 2, axis=_last_axes(g))


def _tail_fraction(g: Grid, values: np.ndarray, radius: float) -> np.ndarray:
    """Fraction of the L^2 mass outside |x| <= radius of each array in a stack
    (0 for a zero array)."""
    dens = np.abs(values) ** 2
    total = np.sum(dens, axis=_last_axes(g))
    outside = np.sum(dens[..., g.x_radius > radius], axis=-1)
    return np.divide(outside, total, out=np.zeros_like(total), where=total != 0.0)


def apply_bessel(u: Field, s: float) -> Field:
    """Apply Lambda^s, the Fourier multiplier <xi>^s."""
    g = u.grid
    return Field(g, _from_spectrum(g, _spectrum(g, u.values) * g.bessel_base**s))


def sobolev_norm(u: Field, s: float) -> float:
    """H^s norm: ||u||_s^2 = (2L)^{-n} sum_k <xi_k>^{2s} |uhat|^2."""
    g = u.grid
    return float(np.sqrt(_sobolev_sq(g, _spectrum(g, u.values), s)))


def l2_norm(u: Field) -> float:
    """Plain quadrature L^2 norm: (dx^n sum_j |u|^2)^{1/2}."""
    return float(np.sqrt(_l2_sq(u.grid, u.values)))


def inner_product(u: Field, v: Field) -> complex:
    """Discrete L^2 pairing (u, v)_0 = dx^n sum_j u conj(v)."""
    u._check(v)
    g = u.grid
    return complex(g.dx**g.n * np.sum(u.values * np.conj(v.values)))


def weighted_pairing(u: Field, weight: Callable[[np.ndarray], np.ndarray], s: float) -> float:
    """Spatially weighted pairing dx^n sum_j weight(|x_j|) |Lambda^s u(x_j)|^2.

    weight must be finite and strictly positive on the box.
    """
    g = u.grid
    return float(_weighted_sq(g, _spectrum(g, u.values), _positive_weight(g, weight), g.bessel_base**s))


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
    return float(_tail_fraction(u.grid, u.values, radius))
