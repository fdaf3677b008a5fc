"""Nonlinear IVP du/dt = i A u + N(u, conj(u), D^alpha u) via Picard iteration.

The fixed point is the Duhamel equation

    u = W(t) u0 + int_0^t W(t - t') Ntil(u) dt',

where the frozen-datum part of the monomial nonlinearity N = u^p conj(u)^q
D^alpha u is absorbed into the linear flow: Ntil = (u^p conj(u)^q -
u0^p conj(u0)^q) D^alpha u and W propagates Atil = A - i u0^p conj(u0)^q
D^alpha.  The Duhamel integral uses the propagated composite trapezoid at the
solver step, and the contraction is measured in the four-term norm

    ||u||_X^2 = sup ||u||_s^2 + int int lam |Lambda^{s+1} u|^2
              + sup ||lam^{-1} u||_{s-2N-2}^2 + sup ||lam^{-1} du/dt||_{s-2N-5}^2,

with lam(r) = <r>^{-N}, N = LAM_EXPONENT = 2, the weight `weylab.grid.lam`.

(The display definition of the space uses index s-2N-2 for the weighted
u-term while parts of the argument use s-2N-5; both are computed and
reported.)

A Picard solve keeps three (frames, *grid.shape) trajectory stacks: the
homogeneous flow W(t) u0, the current iterate and its nonlinearity Ntil.  A
sweep builds the new iterate one chunk of consecutive frames at a time
(`CHUNK_BYTES`): the Duhamel recurrence, the one sequential step, writes the
chunk; the chunk then gets its nonlinearity, its difference from the old
iterate, both right-hand sides and every X-norm term, and only after that are
its slots in the current iterate and in Ntil overwritten.  The X-norm
(`_XtsReducer`) keeps running maxima for the sup terms and one value per
frame for the time integral, so a sweep holds the three stacks plus a fixed
number of chunks however many steps it takes.  The nonlinearity, the
operator and the norm kernels act on a chunk through kernels over the last n
axes; a transform of a chunk gives each frame the bits of a transform of the
whole stack.  The frozen part of the stepped
equation is a forcing that writes into one buffer of its own, and so is the
nonlinearity of the direct solve, so neither steps with a state-sized
allocation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolve import (
    Solution,
    SpectralMap,
    _march,
    _nonlinear_steps,
    build_evolution_operator,
    lawson_stepper,
    wrap_guard,
)
from .grid import (
    LAM_EXPONENT,
    Field,
    Grid,
    _bessel_sq,
    _positive_weight,
    _sobolev_sq,
    _spectrum,
    _tail_fraction,
    _weighted_sq,
    lam,
    sobolev_norm,
    tail_mass_fraction,
)
from .symbol.core import Symbol

__all__ = [
    "NonlinearitySpec",
    "PicardRun",
    "PicardDivergenceError",
    "nonlinearity_eval",
    "picard_solve",
    "direct_nonlinear_solve",
]

SCHWARTZ_TAIL_TOL = 1e-8
DIVERGENCE_PATIENCE = 3
MAX_SWEEPS = 25  # a Picard solve that has not converged after this many sweeps stops
# A Picard sweep and the X-norm take this many bytes of frames per chunk (at
# least one frame).
CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class NonlinearitySpec:
    """Monomial derivative nonlinearity u^p conj(u)^q D^alpha u."""

    p: int
    q: int
    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        # refused, not truncated; bool is named because it subclasses int
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in self.alpha):
            raise ValueError(f"alpha entries must be integers, got alpha={self.alpha}")
        if self.p < 0 or self.q < 0:
            raise ValueError("powers p, q must be nonnegative")
        if (self.p, self.q) == (0, 0):
            raise ValueError("(p, q) = (0, 0) is excluded (no linear terms)")
        if any(k < 0 for k in self.alpha):
            raise ValueError(f"alpha entries must be nonnegative, got alpha={self.alpha}")
        if sum(self.alpha) > 2:
            raise ValueError("derivative order |alpha| must not exceed 2")

    def check_dimension(self, n: int) -> None:
        """Refuse an alpha with more entries than the n variables D^alpha acts on."""
        if len(self.alpha) > n:
            raise ValueError(f"multi-index {self.alpha} has more entries than the dimension {n}")


def _xi_alpha(g: Grid, spec: NonlinearitySpec) -> np.ndarray:
    """Multiplier of D^alpha = prod_j (-i d_j)^{alpha_j}, namely xi^alpha."""
    spec.check_dimension(g.n)
    out = np.ones(g.shape, dtype=complex)
    mesh = g.xi_mesh
    for j, a in enumerate(spec.alpha):
        if a:
            out = out * mesh[..., j] ** a
    return out


def _chunks(g: Grid, start: int, stop: int) -> list[slice]:
    """Consecutive slices of the frames start..stop-1, CHUNK_BYTES of frames each."""
    rows = max(1, CHUNK_BYTES // (16 * g.size))
    return [slice(a, min(a + rows, stop)) for a in range(start, stop, rows)]


def _monomial(
    values: np.ndarray,
    p: int,
    q: int,
    out: Optional[np.ndarray] = None,
    spare: Optional[np.ndarray] = None,
) -> np.ndarray:
    """values^p conj(values)^q, written into out with spare as scratch (both
    allocated when not given); the in-place powers take the ufuncs of `**`."""
    if out is None:
        out, spare = np.empty((2, *values.shape), dtype=complex)
    out[...] = values
    out **= p
    np.conjugate(values, out=spare)
    spare **= q
    return np.multiply(out, spare, out=out)


class _Nonlinearity:
    """u -> N(u) = u^p conj(u)^q D^alpha u, or with c_frozen = u0^p conj(u0)^q
    the frozen Ntil = (u^p conj(u)^q - c_frozen) D^alpha u, on samples whose
    leading axes index a stack, written into arrays the caller passes.  The
    product is de-aliased with the 2/3 mask.

    The product is formed in the one order (D^alpha u, coeff) at every size:
    complex multiplication is not bitwise commutative.
    """

    def __init__(self, g: Grid, spec: NonlinearitySpec, c_frozen: Optional[np.ndarray] = None):
        self.grid, self.spec, self.c_frozen = g, spec, c_frozen
        self.mult = _xi_alpha(g, spec)
        self.drop = ~g.dealias_mask

    def dalpha(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """D^alpha u of the samples `values`, written into out."""
        g = self.grid
        out[...] = values
        g.fftn(out, overwrite_x=True)
        return g.ifftn(np.multiply(out, self.mult, out=out), overwrite_x=True)

    def __call__(self, values: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """N (or Ntil) of `values` written into out, with spare as scratch;
        neither may share memory with `values`."""
        g, spec = self.grid, self.spec
        coeff = _monomial(values, spec.p, spec.q, out, spare)
        if self.c_frozen is not None:
            coeff -= self.c_frozen
        d = self.dalpha(values, spare)
        np.multiply(d, coeff, out=out)
        g.fftn(out, overwrite_x=True)
        np.copyto(out, 0.0, where=self.drop)
        g.ifftn(out, overwrite_x=True)
        return out


def nonlinearity_eval(u: Field, spec: NonlinearitySpec) -> Field:
    """Evaluate N(u) = u^p conj(u)^q D^alpha u, de-aliased with the 2/3 mask."""
    g = u.grid
    out, spare = np.empty((2, *g.shape), dtype=complex)
    return Field(g, _Nonlinearity(g, spec)(u.values, out, spare))


@dataclass
class _XtsNorm:
    value: float
    terms: dict


class _XtsReducer:
    """The four-term norm of a trajectory, reduced one chunk of consecutive
    frames at a time: `add` takes the chunk's samples and du/dt, `norm` the
    times of all frames added.  The sup terms are running maxima; the time
    integral keeps one value per frame and is taken once, by `np.trapezoid`.

    With `decay_gate`, `norm` refuses a trajectory whose largest tail
    fraction outside |x| <= L/2 exceeds it."""

    SUP_TERMS = (
        "sup_Hs_sq",
        "sup_weighted_low_sq(s-2N-2)",
        "sup_weighted_low_sq(s-2N-5)",
        "sup_weighted_dt_sq(s-2N-5)",
    )

    def __init__(self, grid: Grid, s: float, decay_gate: Optional[float] = 1e-6):
        N = LAM_EXPONENT
        if s < 2 * N + 5:
            raise ValueError(f"s={s} too small: the norm needs s >= 2 N + 5 = {2 * N + 5}")
        self.grid, self.decay_gate = grid, decay_gate
        # the per-chunk operands, taken once: the weight, its inverse and the
        # Bessel powers of the four terms
        self.w = _positive_weight(grid, lam)
        self.inv_lam = 1.0 / self.w
        low, base = s - 2 * N, grid.bessel_base
        self.bessel = {
            "Hs": base ** (2.0 * s),
            "weighted": base ** (s + 1.0),
            "low-2": base ** (2.0 * (low - 2)),
            "low-5": base ** (2.0 * (low - 5)),
        }
        self.sup = dict.fromkeys(self.SUP_TERMS, -np.inf)
        self.tail = -np.inf
        self.weighted: list = []  # the smoothing integrand, one array per chunk

    def _sup(self, name: str, values: np.ndarray) -> None:
        self.sup[name] = np.max(values, initial=self.sup[name])

    def add(self, values: np.ndarray, rhs: np.ndarray) -> None:
        """Reduce the frames `values` and their du/dt `rhs`, the next in time."""
        g, b = self.grid, self.bessel
        if self.decay_gate is not None:
            self.tail = np.max(_tail_fraction(g, values, g.L / 2.0), initial=self.tail)
        # one chunk of spectra at a time: each is reduced and freed before the next is formed
        hat = _spectrum(g, values)
        self._sup("sup_Hs_sq", _bessel_sq(g, hat, b["Hs"]))
        self.weighted.append(_weighted_sq(g, hat, self.w, b["weighted"]))
        hat = _spectrum(g, self.inv_lam * values)
        self._sup("sup_weighted_low_sq(s-2N-2)", _bessel_sq(g, hat, b["low-2"]))
        self._sup("sup_weighted_low_sq(s-2N-5)", _bessel_sq(g, hat, b["low-5"]))
        hat = _spectrum(g, self.inv_lam * rhs)
        self._sup("sup_weighted_dt_sq(s-2N-5)", _bessel_sq(g, hat, b["low-5"]))

    def norm(self, times: np.ndarray) -> _XtsNorm:
        if self.decay_gate is not None and self.tail > self.decay_gate:
            raise ValueError("field mass leaks outside |x| <= L/2; lam^{-1} weights unreliable")
        sup = {name: float(v) for name, v in self.sup.items()}
        smoothing = float(np.trapezoid(np.concatenate(self.weighted), times))
        value = float(
            np.sqrt(
                sup["sup_Hs_sq"]
                + smoothing
                + sup["sup_weighted_low_sq(s-2N-2)"]
                + sup["sup_weighted_dt_sq(s-2N-5)"]
            )
        )
        terms = {"sup_Hs_sq": sup.pop("sup_Hs_sq"), "weighted_smoothing": smoothing, **sup}
        return _XtsNorm(value=value, terms=terms)


def _frozen_forcing(g: Grid, c_frozen: np.ndarray, mult_alpha: np.ndarray) -> SpectralMap:
    """The stepper's forcing for the frozen part, uhat -> F(c_frozen D^alpha u),
    written into one buffer that the forcing owns and returns; every product
    keeps the operand order written here at every size."""
    buf = np.empty(g.shape, dtype=complex)

    def frozen_term(uhat, t):
        g.ifftn(np.multiply(uhat, mult_alpha, out=buf), overwrite_x=True)
        return g.fftn(np.multiply(c_frozen, buf, out=buf), overwrite_x=True)

    return frozen_term


def _direct_forcing(g: Grid, spec: NonlinearitySpec) -> SpectralMap:
    """The stepper's forcing of the direct solve, uhat -> F(N(u)), written into
    buffers that the forcing owns; it returns one of them."""
    kernel = _Nonlinearity(g, spec)
    values, out, spare = (np.empty(g.shape, dtype=complex) for _ in range(3))

    def nonlinearity(uhat, t):
        values[...] = uhat
        g.ifftn(values, overwrite_x=True)
        return g.fftn(kernel(values, out, spare), overwrite_x=True)

    return nonlinearity


class PicardDivergenceError(RuntimeError):
    """Picard iterates stopped contracting."""


@dataclass
class PicardRun:
    solution: Solution
    xts_history: list
    contraction_factors: list
    residual: float
    iterations: int
    converged: bool


def picard_solve(
    a: Symbol,
    u0: Field,
    spec: NonlinearitySpec,
    s: float,
    T: float,
    *,
    tol: float = 1e-6,
    dt: Optional[float] = None,
) -> PicardRun:
    """Solve the NLIVP by Picard iteration on the frozen-datum Duhamel
    equation of the module docstring; the solution keeps every frame.

    [0, T] is cut into the fewest equal steps no longer than dt (picked when
    None); a dt beyond the stability bound raises ValueError.  Raises
    PicardDivergenceError (with diagnostics suggesting a smaller T)
    when the contraction factor stays >= 1 for three consecutive sweeps or an
    iterate blows past the overflow guard.
    """
    g = u0.grid
    if tail_mass_fraction(u0, g.L / 2.0) > SCHWARTZ_TAIL_TOL and np.max(np.abs(u0.values)) > 0:
        raise ValueError("datum is not localized enough (tail mass above 1e-8 outside L/2)")
    if s < 2 * LAM_EXPONENT + 5:
        raise ValueError(f"s={s} below the norm floor 2 N + 5 = {2 * LAM_EXPONENT + 5}")
    floor = g.n + 4 * LAM_EXPONENT + 5
    if s < floor or int(s) % 2 == 0:
        warnings.warn(
            f"s={s} is below the odd-integer regularity floor s >= n + 4N + 5 = {floor}; "
            "the discrete solve remains meaningful",
            stacklevel=2,
        )
    guard = wrap_guard(a, u0)
    guard.check(T)

    op = build_evolution_operator(a, g)
    c_frozen = _monomial(u0.values, spec.p, spec.q)
    nonlinearity = _Nonlinearity(g, spec, c_frozen)
    mult_alpha = nonlinearity.mult
    frozen_term = _frozen_forcing(g, c_frozen, mult_alpha)
    bound = "clock" if dt is None else "given"
    steps, dt = _nonlinear_steps(op, guard.xi_cap, T, dt, c_frozen, mult_alpha)
    times = dt * np.arange(steps + 1)
    step = lawson_stepper(op, dt, frozen_term)

    # the three trajectory stacks, each (steps + 1, *grid.shape): W(t) u0,
    # the current iterate and its nonlinearity
    _, hom = _march(step, g, u0.values, steps, dt)
    current = hom.copy()
    nl = np.empty_like(hom)
    chunks = _chunks(g, 0, steps + 1)
    # the chunk buffers, and the frame buffers of the Duhamel recurrence
    work = np.empty((6, chunks[0].stop, *g.shape), dtype=complex)
    arg, acc_prev, nl_prev = np.empty((3, *g.shape), dtype=complex)
    for sl in chunks:
        nonlinearity(hom[sl], nl[sl], work[0, : sl.stop - sl.start])

    def rhs(traj, nl_traj, spare):
        # du/dt of the stepped equation: i A u + Ntil + the frozen part, in
        # the operand order the products had on whole stacks
        out = op.apply(traj)
        np.multiply(out, 1j, out=out)
        out += nl_traj
        out += np.multiply(c_frozen, nonlinearity.dalpha(traj, spare), out=spare)
        return out

    half = dt / 2.0

    def sweep():
        """One sweep, chunk by chunk: the X-norm reducers of the difference
        and of the new iterate; the new iterate and its nonlinearity replace
        the old."""
        # differences of iterates are near-zero fields whose relative tail
        # fraction is meaningless; only physical iterates get the decay gate
        d_norm = _XtsReducer(g, s, decay_gate=None)
        x_norm = _XtsReducer(g, s, decay_gate=1e-6)
        for sl in chunks:
            new, nl_hat, nl_new, spare, diff, d_nl = work[:, : sl.stop - sl.start]
            nl_hat[...] = nl[sl]
            g.fftn(nl_hat, overwrite_x=True)
            # the Duhamel coefficients acc[i] = step(acc[i-1] + (dt/2) nl_hat[i-1])
            # + (dt/2) nl_hat[i], acc[0] = 0; the chunk's first step takes the
            # last row of the one before
            for j, i in enumerate(range(sl.start, sl.stop)):
                if i == 0:
                    new[j] = 0.0
                    continue
                prev, prev_nl = (new[j - 1], nl_hat[j - 1]) if j else (acc_prev, nl_prev)
                np.add(prev, np.multiply(half, prev_nl, out=arg), out=arg)
                np.add(step(arg, (i - 1) * dt), np.multiply(half, nl_hat[j], out=new[j]), out=new[j])
            acc_prev[...] = new[-1]
            nl_prev[...] = nl_hat[-1]
            g.ifftn(new, overwrite_x=True)
            new += hom[sl]
            nonlinearity(new, nl_new, spare)
            # rhs(diff) is formed from diff itself: rhs(new) - rhs(current)
            # would cancel at the round-off floor of the late sweeps
            np.subtract(new, current[sl], out=diff)
            d_norm.add(diff, rhs(diff, np.subtract(nl_new, nl[sl], out=d_nl), spare))
            x_norm.add(new, rhs(new, nl_new, spare))
            current[sl] = new
            nl[sl] = nl_new
        return d_norm, x_norm

    history = []
    rhos = []
    prev_diff = None
    overflow_cap = 1e8 * max(1.0, sobolev_norm(u0, s))
    bad_streak = 0
    converged = False
    it = 0
    for it in range(1, MAX_SWEEPS + 1):
        d_norm, x_norm = sweep()
        try:
            dn, xn = d_norm.norm(times).value, x_norm.norm(times).value
        except ValueError:
            raise PicardDivergenceError(
                "iterate mass escaped the box; reduce T (or the datum amplitude)"
            )
        history.append(xn)
        if not np.isfinite(xn) or xn > overflow_cap:
            raise PicardDivergenceError(
                f"iterate norm {xn:.3g} exceeds the overflow guard after {it} sweeps; "
                "the contraction fails at this T -- try a smaller horizon"
            )
        scale = max(1.0, xn)
        stagnated = False
        if prev_diff is not None and prev_diff > 0:
            rho = dn / prev_diff
            rhos.append(rho)
            # rho near 1 with a relatively tiny difference is the roundoff
            # floor of the high-order norm, i.e. convergence, not divergence
            stagnated = rho >= 0.9 and dn <= 1e-5 * scale
            genuine = rho >= 1.0 and dn > 1e-3 * scale
            bad_streak = bad_streak + 1 if genuine else 0
            if bad_streak >= DIVERGENCE_PATIENCE:
                raise PicardDivergenceError(
                    f"contraction factor >= 1 for {DIVERGENCE_PATIENCE} consecutive sweeps "
                    f"(last rho={rho:.3g}); Picard diverges at this horizon -- reduce T"
                )
        prev_diff = dn
        if dn < tol or stagnated:
            converged = True
            break
    del hom

    # PDE residual of the converged iterate against the original equation,
    # with du/dt from centered differences of the stored trajectory: interior
    # frames a chunk at a time, each with a one-frame halo
    plain = _Nonlinearity(g, spec)
    resid = 0.0
    for sl in _chunks(g, 1, steps):
        r, plain_nl, spare = work[:3, : sl.stop - sl.start]
        np.subtract(current[sl.start + 1 : sl.stop + 1], current[sl.start - 1 : sl.stop - 1], out=r)
        np.divide(r, 2.0 * dt, out=r)
        a_u = op.apply(current[sl])
        np.subtract(r, np.multiply(a_u, 1j, out=a_u), out=r)
        r -= plain(current[sl], plain_nl, spare)
        resid = np.max(np.sqrt(_sobolev_sq(g, _spectrum(g, r), s - 3.0)), initial=resid)
    del nl, work

    sol = Solution(
        grid=g,
        times=times,
        values=current,
        dt=dt,
        guard=guard,
        step_bound=bound,
    )
    return PicardRun(
        solution=sol,
        xts_history=history,
        contraction_factors=rhos,
        residual=float(resid),
        iterations=it,
        converged=converged,
    )


def direct_nonlinear_solve(
    a: Symbol,
    u0: Field,
    spec: NonlinearitySpec,
    T: float,
    *,
    dt: Optional[float] = None,
) -> Solution:
    """Method-of-lines integration of du/dt = i A u + N(u) with Lawson RK4,
    on the step rule of `picard_solve`; the solution keeps every frame."""
    g = u0.grid
    guard = wrap_guard(a, u0)
    guard.check(T)

    op = build_evolution_operator(a, g)
    bound = "clock" if dt is None else "given"
    steps, dt = _nonlinear_steps(
        op, guard.xi_cap, T, dt, _monomial(u0.values, spec.p, spec.q), _xi_alpha(g, spec)
    )
    step = lawson_stepper(op, dt, _direct_forcing(g, spec))
    times, stored = _march(step, g, u0.values, steps, dt)
    return Solution(
        grid=g,
        times=times,
        values=stored,
        dt=dt,
        guard=guard,
        step_bound=bound,
    )
