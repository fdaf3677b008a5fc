"""Linear IVP solver for du/dt = i A u + f and the smoothing-estimate harness.

One Lawson integrating-factor RK4 stepper (Lawson, SIAM J. Numer. Anal. 4,
1967) serves every time integration of the package: `solve_linear` here and
the Picard and direct nonlinear solves of `weylab.nonlinear`.  Its state is
the raw FFT coefficient array uhat = Grid.fftn(u).  The x-independent part
a0(xi) of the symbol propagates exactly through the diagonal factor
e^{i dt a0}; the remainder (`EvolutionOperator.apply_remainder`, coefficients
in and out) and any forcing are stepped with RK4 in the rotated frame, and
they alone pay for transforms.  A pure multiplier with no source therefore
steps as uhat <- e^{i dt a0} uhat with no transform at all, and a frame is
inverse-transformed only when it is stored.  Scheme "rk4" is the same stepper
with identity factors and the multiplier moved into the stepped part.

A solve with an explicit dt stores a frame every `store_stride` steps.  A
solve that picks its step (dt=None) keeps frames and steps apart.  Its frame
clock, the steps that stability, the accuracy target Y_ACC and the floor
MIN_STEPS call for, sets equal frame intervals of `store_stride` clock steps,
so the frame times do not move with the step rule.  Each interval then takes
only the steps that stability and a windowed step-doubling error estimate
(m steps of h against m/2 of 2h, Hairer-Norsett-Wanner, Solving ODEs I,
II.4) at STEP_TOL need, and never more than the clock's.  The window starts
at one step of 2h against two of h and doubles, up to STEP_WINDOW steps, only
while the estimate exceeds STEP_TOL; only when the widest window also
exceeds it does the interval take more steps.

A solve either stores its frames in one (frames, *grid.shape) array or hands
each frame, as `_march` makes it, to a consumer that keeps a few numbers per
frame and lets the frame go: `NormSeries` (the L^2 and Sobolev norms of
`solve-linear`) and `SmoothingSeries` (the terms of a smoothing report).  A
streamed solve therefore holds a fixed number of state-sized arrays however
many frames it makes.  Every trajectory reduction of the package streams
(`smoothing_report` and `weighted_propagator_probe` too); the stored stack
serves the Picard and direct nonlinear solves and callers that read the
frames themselves.

The stepper allocates its stage arrays once and the operator keeps its
transform row stack, so a step allocates no state-sized array of its own (a
forcing may): the row stack and each stored frame are transformed in their
own storage, and a pure multiplier steps by one in-place multiply.  A step returns an array that the
stepper overwrites on its next call, so a caller that keeps a state copies
it: `_march` stores the inverse transform of a copy, and Picard's Duhamel
loop writes acc[i+1] at once.  Every complex product has one operand order
at every array size: numpy's complex multiply is not bitwise commutative,
and an expression of temporaries lets numpy swap the operands of arrays above
256 KiB, so a fixed order is what keeps results independent of array size.

The operator is `calculus.EvolutionOperator` with the Weyl tag, built from
the symbol's split a = a0(xi) + sum_k f_k(x) g_k(xi) (`SympySymbol.split`):
the multiplier a0 plus the pairs, real or complex, applied in the symmetrized
form (fG + Gf)/2.  That is Op^w(f g) exactly when g has xi-degree <= 1 and up
to order m - 2 otherwise.  It keeps the discrete generator of a real symbol
exactly Hermitian, so real-symbol runs conserve the L^2 norm up to
time-integration error only.  A symbol with no split is refused, and no
operator is dense.  One remainder application costs two transform calls,
however many pairs there are.

Every source is a fixed Field.  `wrap_guard` is the one place where a solve
inspects its data, the initial datum and the source together.  It records
the active band |xi| <= xi_cap of their spectra, from which each solve picks
its dt, and, for localized data, the wrap-guard horizon

    T_wrap = (L - R_data - WRAP_MARGIN L) / v_max,

with v_max the largest group speed |grad_xi a| over the active band and a
9^n lattice of x probes, taken one probe at a time so that the guard's
memory is O(active frequencies).  Runs beyond the horizon are refused (the
torus stops approximating R^n once the data wraps).  Non-localized data
(plane waves) have no horizon: they are genuinely periodic objects and the
guard does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import EvolutionOperator
from .grid import (
    Field,
    Grid,
    _bessel_sq,
    _l2_sq,
    _positive_weight,
    _sobolev_sq,
    _spectrum,
    _tail_fraction,
    _weighted_sq,
    lam,
    sobolev_norm,
    tail_mass_fraction,
    weighted_pairing,
)
from .symbol.core import Symbol

__all__ = [
    "WrapGuard",
    "WrapGuardError",
    "Solution",
    "NormSeries",
    "SmoothingSeries",
    "SmoothingReport",
    "PropagatorProbeReport",
    "build_evolution_operator",
    "wrap_guard",
    "lawson_stepper",
    "solve_linear",
    "smoothing_report",
    "weighted_propagator_probe",
    "SCHEMES",
    "ESTIMATES",
]

C_STAB = 2.5  # RK4 stability margin for imaginary spectra (|y| < 2.828)
# The frame clock of a picked solve_linear, and the steps of the nonlinear
# solves: the accuracy target dt * |a_active| and a floor on the steps.
Y_ACC = 0.03
MIN_STEPS = 64
STEP_TOL = 1e-6  # step-doubling error target of a picked solve_linear, relative, over [0, T]
STEP_WINDOW = 32  # the widest window of the step-doubling estimate, in steps
WRAP_MARGIN = 0.05  # wrap-guard margin, as a fraction of the half-width L
ACTIVE_REL_THRESHOLD = 1e-8
DATA_RADIUS_REL_THRESHOLD = 1e-9
LOCALIZED_TAIL_TOL = 1e-6
SCHEMES = ("if_rk4", "rk4")  # the time-stepping schemes of solve_linear
ESTIMATES = ("i", "ii", "iii")  # the smoothing estimates of smoothing_report

# (t, samples) -> None: takes one stored frame, whose buffer may be reused after
FrameConsumer = Callable[[float, np.ndarray], None]


class WrapGuardError(ValueError):
    """Requested horizon exceeds the wrap-guard limit of the grid/data pair."""


@dataclass
class WrapGuard:
    horizon: Optional[float]
    v_max: float
    data_radius: float
    xi_cap: float  # the active band is |xi| <= xi_cap (-inf for zero data)

    def check(self, T: float):
        if self.horizon is not None and T > self.horizon:
            raise WrapGuardError(
                f"T={T:g} exceeds the wrap-guard horizon {self.horizon:g} "
                f"(v_max={self.v_max:g}, data radius={self.data_radius:g})"
            )


def build_evolution_operator(symbol: Symbol, grid: Grid) -> EvolutionOperator:
    return EvolutionOperator(symbol, grid)


# -- wrap guard ---------------------------------------------------------------------


def _active_cap(g: Grid, spectra) -> float:
    """The radius of the dilated band of frequencies active in a stack of
    spectra, those within ACTIVE_REL_THRESHOLD of the peak: 1.3x the largest
    active |xi|, plus 3 modes (-inf when none is)."""
    total = np.max(np.abs(spectra), axis=0)
    peak = float(np.max(total))
    if peak == 0.0:
        return -np.inf
    xi_active = float(np.max(g.xi_norm[total >= ACTIVE_REL_THRESHOLD * peak]))
    return 1.3 * xi_active + 3.0 * np.pi / g.L


def _data_radius(g: Grid, fields: np.ndarray) -> float:
    dens = np.max(np.abs(fields), axis=0)
    peak = float(np.max(dens))
    if peak == 0.0:
        return 0.0
    return float(np.max(g.x_radius[dens >= DATA_RADIUS_REL_THRESHOLD * peak]))


def wrap_guard(a: Symbol, u0: Field, f: Optional[Field] = None) -> WrapGuard:
    """The active band of u0 and the source f, and the horizon
    T_wrap = (L - R_data - WRAP_MARGIN L)/v_max for localized data.

    The band |xi| <= xi_cap holds the frequencies active in either spectrum,
    dilated; every solve picks its dt from it.  v_max maximizes |grad_xi a|
    over the band and the 9^n probe lattice in x (one probe when a is
    x-independent).  The lattice is marched one probe at a time, so the
    guard's memory is O(active frequencies).  Returns horizon None for
    non-localized data.
    """
    g = u0.grid
    fields = np.stack([u0.values] if f is None else [u0.values, f.values])
    localized = bool(
        np.all(_tail_fraction(g, fields, g.L / 2.0) < LOCALIZED_TAIL_TOL)
        and np.max(np.abs(fields)) > 0
    )
    xi_cap = _active_cap(g, _spectrum(g, fields))
    if not localized:  # localized data are nonzero, so their band is not empty
        return WrapGuard(None, np.nan, np.nan, xi_cap)
    xi_act = g.xi_mesh.reshape(-1, g.n)[(g.xi_norm <= xi_cap).ravel()]
    if a.x_independent:
        # grad_xi a does not depend on x: one probe gives the lattice v_max
        x_probe = np.zeros((1, g.n))
    else:
        probe_axis = np.linspace(-g.L / 2, g.L / 2, 9)
        x_probe = np.stack(np.meshgrid(*([probe_axis] * g.n), indexing="ij"), axis=-1).reshape(
            -1, g.n
        )
    # one probe at a time, summing |d_xi_i a|^2 component by component: memory
    # stays O(active frequencies), and no short trailing axis is reduced.  sqrt
    # is monotone, so the root of the largest square is the largest speed.
    zero = (0,) * g.n
    units = [tuple(int(j == i) for j in range(g.n)) for i in range(g.n)]
    speed_sq = [
        np.max(sum(np.real(a.deriv(e, zero, x_p, xi_act)) ** 2 for e in units))
        for x_p in x_probe
    ]
    v_max = float(np.sqrt(np.max(speed_sq)))
    r_data = _data_radius(g, fields)
    horizon = (g.L - r_data - WRAP_MARGIN * g.L) / v_max if v_max > 0 else np.inf
    return WrapGuard(max(horizon, 0.0), v_max, r_data, xi_cap)


# -- solution container ---------------------------------------------------------------


@dataclass
class Solution:
    grid: Grid
    times: np.ndarray
    # the stored frames, shape (len(times), *grid.shape); a solve that streams
    # its frames to a consumer stores only the final one
    values: np.ndarray = field(repr=False)
    dt: float
    guard: WrapGuard
    # what set the steps: "given" (an explicit dt), "clock" (the picked
    # clock's steps, which the nonlinear solves always take), "stability" or
    # "error" (the fewest steps per frame interval that meet the stability
    # bound or STEP_TOL)
    step_bound: str
    # the windowed step-doubling estimate at the chosen dt (None when none was taken)
    step_error: Optional[float] = None

    def field(self, i: int) -> Field:
        return Field(self.grid, self.values[i])

    @property
    def steps(self) -> int:
        return int(round(self.times[-1] / self.dt))

    @property
    def final(self) -> Field:
        return self.field(len(self.values) - 1)


# -- per-frame reductions --------------------------------------------------------------
# Frame consumers: each keeps a few numbers per frame and takes one frame at a
# time, so no stack of frames or spectra is formed.


class NormSeries:
    """Per frame: its time, the quadrature L^2 norm and ||u||_s for each s in
    `indices`, all Sobolev norms taken from one spectrum."""

    def __init__(self, grid: Grid, indices: Sequence[float] = ()):
        self.grid = grid
        self.indices = tuple(indices)
        self.times: list = []
        self.l2: list = []
        self.sobolev: list = []  # one row of len(indices) norms per frame

    def __call__(self, t: float, values: np.ndarray) -> None:
        g = self.grid
        self.times.append(t)
        self.l2.append(np.sqrt(_l2_sq(g, values)))
        if self.indices:
            spec = _spectrum(g, values)
            self.sobolev.append([np.sqrt(_sobolev_sq(g, spec, si)) for si in self.indices])

    def l2_drift(self) -> float:
        """max_t | ||u(t)|| - ||u(0)|| | relative to ||u(0)|| (absolute for u(0) = 0)."""
        series = np.array(self.l2)
        if series[0] == 0:
            return float(np.max(np.abs(series - series[0])))
        return float(np.max(np.abs(series - series[0])) / series[0])


def _trapezoid(times: np.ndarray, series: np.ndarray) -> float:
    return float(np.trapezoid(series, times))


# -- the Lawson stepper -----------------------------------------------------------------

# (uhat, t) -> FFT coefficients: a step, or the forcing the stepper adds
SpectralMap = Callable[[np.ndarray, float], np.ndarray]


def lawson_stepper(
    op: EvolutionOperator,
    dt: float,
    forcing: Optional[SpectralMap] = None,
    *,
    integrating_factor: bool = True,
) -> SpectralMap:
    """Lawson RK4 step uhat(t) -> uhat(t + dt) on raw FFT coefficients for

        d uhat/dt = i (a0 uhat + R uhat) + forcing(uhat, t),

    with a0 = op.multiplier and R = op.apply_remainder.  With the integrating
    factor a0 is propagated exactly by the diagonal factors e^{i dt a0/2} and
    e^{i dt a0}; without it (classical RK4) a0 is stepped with R.  When
    nothing is left to step, the step is the diagonal multiply alone.

    The stepper allocates its stage arrays once, and a step returns an array
    that it overwrites on its next call: a caller that keeps a state copies
    it (the step may be handed its own last result).  Every complex product
    has the one operand order written below, at every size: numpy's complex
    multiply is not bitwise commutative, and an expression of temporaries
    would let numpy swap the operands of arrays above 256 KiB.
    """
    shape = op.grid.shape
    out = np.empty(shape, dtype=complex)
    mult = op.multiplier if integrating_factor else None
    if mult is None:
        e_h = e_f = 1.0
    else:
        e_h = np.exp(1j * mult * (dt / 2.0))
        e_f = e_h * e_h
    i_mult = None if integrating_factor or op.multiplier is None else 1j * op.multiplier
    stepped = bool(op.pairs) or i_mult is not None  # a stepped term besides the forcing
    if not stepped and forcing is None:
        return lambda uhat, t: np.multiply(e_f, uhat, out=out)
    spare = np.empty(shape, dtype=complex) if op.pairs and i_mult is not None else None

    def rhs(uhat, t, acc):
        """The stepped terms at (uhat, t), summed into acc in this order."""
        if op.pairs:
            np.multiply(1j, op.apply_remainder(uhat, out=acc), out=acc)
            if i_mult is not None:
                acc += np.multiply(i_mult, uhat, out=spare)
        elif i_mult is not None:
            np.multiply(i_mult, uhat, out=acc)
        if forcing is None:
            return
        if stepped:
            acc += forcing(uhat, t)
        else:
            acc[...] = forcing(uhat, t)

    # the stage arrays: a4 is written over a3 once a3 is folded into the update
    a1, a2, a3, arg = (np.empty(shape, dtype=complex) for _ in range(4))
    half, sixth = dt / 2.0, dt / 6.0
    dt_e_h, two_e_h = dt * e_h, 2.0 * e_h

    def step(u, t):
        rhs(u, t, a1)
        # e_h (u + dt/2 a1)
        np.multiply(e_h, np.add(u, np.multiply(half, a1, out=arg), out=arg), out=arg)
        np.multiply(e_f, a1, out=a1)  # a1 is needed only as e_f a1 from here on
        rhs(arg, t + half, a2)
        # e_h u + dt/2 a2
        np.add(np.multiply(e_h, u, out=arg), np.multiply(half, a2, out=a3), out=arg)
        rhs(arg, t + half, a3)
        # e_f u + (dt e_h) a3; u is needed only as e_f u from here on, which
        # `out` keeps (u may be `out` itself)
        np.add(np.multiply(e_f, u, out=out), np.multiply(dt_e_h, a3, out=arg), out=arg)
        np.add(a1, np.multiply(two_e_h, np.add(a2, a3, out=a2), out=a2), out=a1)
        rhs(arg, t + dt, a3)  # a4
        # e_f u + dt/6 (e_f a1 + (2 e_h)(a2 + a3) + a4)
        np.multiply(sixth, np.add(a1, a3, out=a1), out=a1)
        return np.add(out, a1, out=out)

    return step


def _check_stride(store_stride) -> None:
    """ValueError unless store_stride, the steps between stored frames, is a
    positive integer; `solve_linear` checks it before it steps."""
    if not isinstance(store_stride, (int, np.integer)) or store_stride < 1:
        raise ValueError(f"store_stride must be a positive integer, got {store_stride!r}")


def _stored_steps(steps: int, stride: int) -> list[int]:
    """Indices of the stored frames of a march: 0, every stride-th step and the last."""
    kept = list(range(0, steps + 1, stride))
    if kept[-1] != steps:
        kept.append(steps)
    return kept


def _march(
    step: SpectralMap,
    g: Grid,
    u0: np.ndarray,
    steps: int,
    dt: float,
    stride: int = 1,
    consume: Optional[FrameConsumer] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Take `steps` steps from the samples u0 and return the times and the
    frames of the steps `_stored_steps` picks, as one stack.  With `consume`,
    each frame is handed to consume(t, samples) as it is made, in one buffer
    that the next frame overwrites, and only the last frame is returned: the
    times and stack of that one frame."""
    kept = _stored_steps(steps, stride)
    times = dt * np.array(kept)
    frames = np.empty((len(kept) if consume is None else 1, *g.shape), dtype=complex)
    frames[0] = u0
    if consume is not None:
        consume(times[0], frames[0])
    uhat = g.fftn(u0)
    j = 1
    for k in range(steps):
        uhat = step(uhat, k * dt)
        if k + 1 == kept[j]:
            frame = frames[j if consume is None else 0]
            frame[...] = uhat  # a copy: the stepper reuses uhat's storage
            g.ifftn(frame, overwrite_x=True)
            if consume is not None:
                consume(times[j], frame)
            j += 1
    return (times, frames) if consume is None else (times[-1:], frames)


def _dt_limit(mag: float, target: float) -> float:
    """The largest step with dt * mag <= target (inf for mag 0)."""
    return target / mag if mag > 0 else np.inf


def _time_steps(T: float, dt: float, stab_mag: float) -> tuple[int, float]:
    """The step rule of every solver, for a picked or an explicit dt: refuse a
    dt beyond the stability bound C_STAB / stab_mag, then take the fewest equal
    steps of [0, T] that are no longer than dt.  Returns (steps, T / steps)."""
    dt_stab = _dt_limit(stab_mag, C_STAB)
    if dt > dt_stab * (1 + 1e-9):
        raise ValueError(f"dt={dt:g} violates the stability bound {dt_stab:g}")
    steps = max(1, int(np.ceil(T / dt - 1e-12)))
    return steps, T / steps


def _clock_steps(T: float, stab_mag: float, act_mag: float) -> tuple[int, float]:
    """The picked step rule: the fewest equal steps of [0, T], and at least
    MIN_STEPS, that meet the stability bound C_STAB / stab_mag and the
    accuracy target Y_ACC / act_mag.  Each caller measures its own
    magnitudes.  Returns (steps, T / steps)."""
    dt = min(_dt_limit(stab_mag, C_STAB), _dt_limit(act_mag, Y_ACC), T / MIN_STEPS)
    return _time_steps(T, dt, stab_mag)


def _nonlinear_steps(
    op: EvolutionOperator,
    xi_cap: float,
    T: float,
    dt: Optional[float],
    coeff: np.ndarray,
    mult: np.ndarray,
) -> tuple[int, float]:
    """(steps, dt) of the nonlinear solves, which propagate the multiplier
    exactly and step the remainder and a forcing coeff(x) * Op(mult(xi)),
    bounded by max|coeff| max|mult|; both solves pass coeff = u0^p conj(u0)^q.
    dt=None picks the step by `_clock_steps`: stability over the stepped
    part, accuracy over the whole operator on the active band |xi| <= xi_cap
    (the datum's `WrapGuard.xi_cap`).  The accuracy magnitude counts the
    exactly propagated multiplier, which `solve_linear`'s clock counts only
    when it steps it, and every picked step is taken: Picard's norms
    integrate over every step."""
    extra_mag = float(np.max(np.abs(coeff)) * np.max(np.abs(mult)))
    stab_mag = op.max_abs_remainder(None) + extra_mag
    if dt is not None:
        return _time_steps(T, dt, stab_mag)
    mask = op.grid.xi_norm <= xi_cap
    act_mag = (
        (op.max_abs_remainder(mask) + op.max_abs_multiplier(mask) + extra_mag)
        if np.any(mask)
        else 0.0
    )
    return _clock_steps(T, stab_mag, act_mag)


def _step_error(
    op: EvolutionOperator,
    uhat0: np.ndarray,
    fhat: Optional[np.ndarray],
    T: float,
    h: float,
    integrating_factor: bool,
) -> float:
    """Windowed step doubling: the estimated error of a solve of [0, T] in
    steps of h, over a window of m steps,

        (T / m h) ||S_2h^{m/2} u0 - S_h^m u0|| / 15  relative to  max(||u0||, ||S_h^m u0||),

    with S_h one Lawson step of h from the datum's coefficients uhat0 and the
    source's fhat.  Lawson RK4 has order 4, so the m steps of h are off by
    about the difference / 15, and the estimate scales as h^4.  The first
    window is m = 2, one step of 2h against two of h.  While its estimate
    exceeds STEP_TOL the window doubles, up to STEP_WINDOW steps and never
    beyond the solve's T / h: over a longer window, step errors that a
    fast-rotating frame makes cancel, as they do in the solve, and the
    estimate sees it.  Each doubling continues the fine and coarse states it
    has.  Returns the first estimate at or under STEP_TOL, else the widest
    window's.  One stepper is alive at a time, and nothing state-sized
    outlives the call."""
    forcing = None if fhat is None else lambda uhat, t: fhat
    widest = min(STEP_WINDOW, int(round(T / h)))
    norm0 = np.linalg.norm(uhat0)
    fine = coarse = uhat0
    taken, m = 0, 2  # the fine steps taken, and the window
    while True:
        step = lawson_stepper(op, h, forcing, integrating_factor=integrating_factor)
        for k in range(taken, m):
            fine = step(fine, k * h)
        del step  # all but its output, fine
        step = lawson_stepper(op, 2.0 * h, forcing, integrating_factor=integrating_factor)
        for k in range(taken // 2, m // 2):
            coarse = step(coarse, 2 * k * h)
        del step  # all but its output, coarse
        scale = max(norm0, np.linalg.norm(fine))
        if scale == 0.0:
            return 0.0
        error = float(T / (m * h) * np.linalg.norm(np.subtract(coarse, fine)) / 15.0 / scale)
        if error <= STEP_TOL or 2 * m > widest:
            return error
        taken, m = m, 2 * m


def solve_linear(
    a: Symbol,
    u0: Field,
    f: Optional[Field] = None,
    *,
    T: float,
    dt: Optional[float] = None,
    scheme: str = "if_rk4",
    store_stride: int = 1,
    guard: Optional[WrapGuard] = None,
    consume: Optional[FrameConsumer] = None,
) -> Solution:
    """Integrate du/dt = i A u + f over [0, T] for a fixed source Field f
    (TypeError for any other source).

    scheme 'rk4' steps the whole operator; 'if_rk4' propagates the
    x-independent multiplier part exactly and steps the remainder (with no
    multiplier part the two take the same steps).  `guard` is
    `wrap_guard(a, u0, f)` when the caller has it already; it also sets the
    active band below, and a T beyond its horizon raises WrapGuardError (a
    guard with horizon None refuses no T).

    An explicit dt takes equal steps no longer than dt (a dt violating the
    stability bound C_STAB/max|a| raises) and stores a frame every
    store_stride steps and at T.  dt=None runs a frame clock of n_clock equal
    steps: the fewest that meet stability, the accuracy target
    Y_ACC/max|a_active| over the active band, and at least MIN_STEPS.  The
    clock cuts [0, T] into F = ceil(n_clock / store_stride) equal frame
    intervals, so store_stride counts clock steps, and the solve takes r steps
    per interval: r_stab, the fewest that meet stability, or more while the
    windowed step-doubling estimate `_step_error` exceeds STEP_TOL in its
    widest window, but never more than the clock's ceil(n_clock / F).  The
    estimate scales as h^4, so each rejection predicts the r it needs, and
    the estimate is taken again there, from its first window.  A
    stride-1 solve thus takes the clock's steps, and a pure multiplier with no
    source, which steps exactly, takes r_stab (one per frame).
    `Solution.step_bound` and `Solution.step_error` record the choice.

    The solution stores every frame, or with `consume` (a frame consumer such
    as `NormSeries` or `SmoothingSeries`) hands each frame to
    consume(t, samples) as the march makes it and stores only the final frame,
    so memory does not grow with the number of frames.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    _check_stride(store_stride)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if f is not None and not isinstance(f, Field):
        raise TypeError(f"a source is a fixed Field, not {type(f).__name__}")
    g = u0.grid
    op = build_evolution_operator(a, g)

    if guard is None:
        guard = wrap_guard(a, u0, f)
    guard.check(T)

    integrating_factor = scheme == "if_rk4"  # else the multiplier is stepped
    stab_mag = op.max_abs_remainder(None)
    if not integrating_factor:
        stab_mag += op.max_abs_multiplier(None)
    fhat = None if f is None else g.fftn(f.values)
    error = None
    if dt is not None:
        steps, dt = _time_steps(T, dt, stab_mag)
        stride, bound = store_stride, "given"
    else:
        mask = g.xi_norm <= guard.xi_cap
        act_mag = 0.0
        if np.any(mask):
            act_mag = op.max_abs_remainder(mask)
            if not integrating_factor:
                act_mag += op.max_abs_multiplier(mask)
        n_clock, _ = _clock_steps(T, stab_mag, act_mag)
        frames = -(-n_clock // store_stride)
        stride, bound = -(-n_clock // frames), "clock"  # the clock's steps per frame interval
        r_stab, _ = _time_steps(T / frames, _dt_limit(stab_mag, C_STAB), stab_mag)
        # a pure multiplier with no source steps exactly: it takes r_stab
        exact = f is None and not op.pairs and integrating_factor
        if r_stab < stride:
            r, bound = r_stab, "stability"
            # the datum's coefficients, taken once for every estimate and freed
            # before the march
            uhat0 = None if exact else g.fftn(u0.values)
            while not exact:
                error = _step_error(op, uhat0, fhat, T, T / (frames * r), integrating_factor)
                if error <= STEP_TOL or r == stride:
                    break
                # the estimate scales as h^4: predict the steps it needs, and
                # measure again there (it may not yet be in its h^4 range)
                r, bound = int(np.ceil(r * (error / STEP_TOL) ** 0.25)), "error"
                if r >= stride:
                    r, bound = stride, "clock"
            del uhat0
            stride = r
        steps = frames * stride
        dt = T / steps

    step = lawson_stepper(
        op, dt, None if f is None else lambda uhat, t: fhat, integrating_factor=integrating_factor
    )
    # a pure multiplier's step keeps only its exponential: dropping the
    # operator frees the multiplier's samples for the march
    del op
    times, stored = _march(step, g, u0.values, steps, dt, stride, consume)
    return Solution(
        grid=g,
        times=times,
        values=stored,
        dt=dt,
        guard=guard,
        step_bound=bound,
        step_error=error,
    )


# -- smoothing reports -----------------------------------------------------------------


@dataclass
class SmoothingReport:
    lhs: float
    rhs: float
    ratio: float
    # int ||u||_{s+(m-1)/2}^2 dt, each norm squared as a Python float
    unweighted_integral: float


class SmoothingSeries:
    """The per-frame terms of a smoothing report, as a frame consumer.

    Per frame it keeps ||u||_s, ||u||_{s+gain} and the weighted integrand at
    s + gain (estimates 'ii' and 'iii'), all from one spectrum; gain =
    (m - 1)/2.  The source term of the estimate's right side is the same at
    every node, since the source is a fixed Field, and is taken once.
    `report` assembles the estimate.
    """

    def __init__(
        self,
        grid: Grid,
        m: float,
        estimate: str,
        s: float,
        f: Optional[Field],
    ):
        if estimate not in ESTIMATES:
            raise ValueError(f"unknown estimate {estimate!r}")
        self.grid, self.estimate, self.f = grid, estimate, f
        self.gain = (m - 1.0) / 2.0
        # the per-frame operands, taken once into one block: <xi>^{2s},
        # <xi>^{2(s+gain)} and, for the weighted integrand, lam(|x|) and
        # <xi>^{s+gain}.  One block, not four arrays: four 32 KiB arrays held
        # through a 1D solve (N = 4096) fragmented the heap, and a later
        # Picard solve in the same process peaked 1 MB higher.
        base = grid.bessel_base
        ops = np.empty((2 if estimate == "i" else 4, *grid.shape))
        ops[0], ops[1] = base ** (2.0 * s), base ** (2.0 * (s + self.gain))
        if estimate != "i":
            ops[2], ops[3] = _positive_weight(grid, lam), base ** (s + self.gain)
        self._ops = ops
        self.times: list = []
        self.norms: list = []
        self.gained: list = []
        self.weighted: list = []
        self.source: list = []
        if f is None:
            self._term = 0.0
        elif estimate == "i":
            self._term = sobolev_norm(f, s)
        elif estimate == "ii":
            self._term = sobolev_norm(f, s) ** 2
        else:
            self._term = weighted_pairing(f, lambda r: 1.0 / lam(r), s - self.gain)

    def __call__(self, t: float, values: np.ndarray) -> None:
        if not self.times and self.estimate == "iii" and self.f is None and np.any(values):
            raise ValueError("estimate 'iii' requires the source term")
        g, ops = self.grid, self._ops
        self.times.append(t)
        spec = _spectrum(g, values)
        self.norms.append(np.sqrt(_bessel_sq(g, spec, ops[0])))
        self.gained.append(np.sqrt(_bessel_sq(g, spec, ops[1])))
        if self.estimate != "i":
            self.weighted.append(_weighted_sq(g, spec, ops[2], ops[3]))
        self.source.append(self._term)

    def report(self) -> SmoothingReport:
        """The estimate over the frames taken."""
        times = np.array(self.times)
        sup_s, u0_s = float(np.max(self.norms)), float(self.norms[0])
        # each norm squared as a Python float
        unweighted = float(np.trapezoid([float(v) ** 2 for v in self.gained], times))
        if self.estimate == "i":
            lhs = sup_s
            rhs = u0_s + _trapezoid(times, self.source)
        else:
            lhs = sup_s**2 + _trapezoid(times, self.weighted)
            rhs = u0_s**2 + _trapezoid(times, self.source)
        ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else lhs / rhs
        return SmoothingReport(lhs=lhs, rhs=rhs, ratio=ratio, unweighted_integral=unweighted)


def smoothing_report(
    a: Symbol,
    u0: Field,
    f: Optional[Field],
    estimate: str,
    s: float,
    **solve,
) -> SmoothingReport:
    """Solve du/dt = i A u + f from u0 (`solve_linear` with the keywords
    `solve`) and assemble LHS/RHS of the homogeneous/inhomogeneous smoothing
    estimates over its frames.

    estimate 'i':   sup ||u||_s                    vs ||u0||_s + int ||f||_s dt
    estimate 'ii':  sup ||u||_s^2 + weighted int   vs ||u0||_s^2 + int ||f||_s^2 dt
    estimate 'iii': same LHS                       vs ||u0||_s^2 + int (lam^{-1}
                    Lambda^{s-(m-1)/2} f, .)_0 dt

    The exponential prefactor in T is never folded in: boundedness of the
    ratio across run families is the measured content.  The report also
    carries the unweighted integral int ||u||_{s+(m-1)/2}^2 dt.  The frames
    stream into a `SmoothingSeries`, and the solution is dropped.
    """
    series = SmoothingSeries(u0.grid, a.order, estimate, s, f)
    solve_linear(a, u0, f, consume=series, **solve)
    return series.report()


# -- weighted propagator probe (polynomial-weight bound) --------------------------------


@dataclass
class PropagatorProbeReport:
    """Measured constants of sup_t ||<x>^{2N} W(t) u0||_s^2 <= c (1 + T^{2N})
    ||<x>^{2N} u0||_{s+2N}^2 over a horizon sweep."""

    ratios: dict
    fitted_c: float
    stability: float


def weighted_propagator_probe(
    a: Symbol,
    u0: Field,
    T_sweep: list[float],
    s: float,
    N_w: int,
    *,
    store_stride: int = 1,
) -> PropagatorProbeReport:
    g = u0.grid
    wvals = (1.0 + g.x_radius**2) ** N_w  # <x>^{2N}
    weighted0 = Field(g, wvals * u0.values)
    if tail_mass_fraction(weighted0, g.L / 2.0) > LOCALIZED_TAIL_TOL:
        raise ValueError("datum has insufficient decay for the <x>^{2N} weight")
    denom = sobolev_norm(weighted0, s + 2.0 * N_w) ** 2
    T_sweep = sorted(float(t) for t in T_sweep)
    times, wnorm = [], []

    def weigh(t, v):
        times.append(t)
        # each norm squared as a Python float, which rounds like sobolev_norm(...) ** 2
        wnorm.append(float(np.sqrt(_sobolev_sq(g, _spectrum(g, wvals * v), s))) ** 2)

    solve_linear(a, u0, None, T=max(T_sweep), store_stride=store_stride, consume=weigh)
    times, wnorm = np.array(times), np.array(wnorm)
    ratios = {}
    for T in T_sweep:
        sel = times <= T * (1 + 1e-12)
        ratios[T] = float(np.max(wnorm[sel]) / ((1.0 + T ** (2 * N_w)) * denom))
    vals = list(ratios.values())
    return PropagatorProbeReport(
        ratios=ratios,
        fitted_c=max(vals),
        stability=max(vals) / min(vals),
    )
