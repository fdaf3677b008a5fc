"""Nonlinear IVP du/dt = i A u + N(u, conj(u), D^alpha u) via Picard iteration.

The fixed point is the Duhamel equation

    u = W(t) u0 + int_0^t W(t - t') Ntil(u) dt',

where the frozen-datum part of the monomial nonlinearity N = u^p conj(u)^q
D^alpha u is absorbed into the linear flow: Ntil = (u^p conj(u)^q -
u0^p conj(u0)^q) D^alpha u and W propagates Atil = A - i u0^p conj(u0)^q
D^alpha.  The Duhamel integral uses the propagated composite trapezoid at the
solver step, and the contraction is measured in the four-term norm

    ||u||_X^2 = sup ||u||_s^2 + int int lam |Lambda^{s+1} u|^2
              + sup ||lam^{-1} u||_{s-2N-2}^2 + sup ||lam^{-1} du/dt||_{s-2N-5}^2.

(The display definition of the space uses index s-2N-2 for the weighted
u-term while parts of the argument use s-2N-5; both are computed and
reported.)

A trajectory is one (frames, *grid.shape) array.  The nonlinearity and the
operator act on the whole stack at once through kernels over the last n axes,
so a Picard sweep is a fixed number of stacked transforms plus the Duhamel
recurrence, the one sequential step.  The X-norm forms one stack of spectra
at a time (of u, of lam^{-1} u, of lam^{-1} du/dt) and reduces and frees each
before it forms the next, so a sweep holds at most one stack of spectra.
The frozen part of the stepped equation is a forcing that writes into one
buffer of its own, so a Picard step allocates no state-sized array.
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
    _stored_steps,
    build_evolution_operator,
    lawson_stepper,
    wrap_guard,
)
from .grid import (
    Field,
    Grid,
    _sobolev_sq,
    _spectrum,
    _tail_fraction,
    _weighted_sq,
    sobolev_norm,
    tail_mass_fraction,
)
from .symbol.core import Symbol
from .weights import WeightFn

__all__ = [
    "NonlinearitySpec",
    "PicardRun",
    "PicardDivergenceError",
    "XtsNorm",
    "nonlinearity_eval",
    "xts_norm",
    "picard_solve",
    "direct_nonlinear_solve",
]

SCHWARTZ_TAIL_TOL = 1e-8
DIVERGENCE_PATIENCE = 3


@dataclass(frozen=True)
class NonlinearitySpec:
    """Monomial derivative nonlinearity u^p conj(u)^q D^alpha u."""

    p: int
    q: int
    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        if self.p < 0 or self.q < 0:
            raise ValueError("powers p, q must be nonnegative")
        if (self.p, self.q) == (0, 0):
            raise ValueError("(p, q) = (0, 0) is excluded (no linear terms)")
        if sum(self.alpha) > 2:
            raise ValueError("derivative order |alpha| must not exceed 2")

    def degree(self) -> int:
        return self.p + self.q + 1


def _xi_alpha(g: Grid, alpha: tuple) -> np.ndarray:
    """Multiplier of D^alpha = prod_j (-i d_j)^{alpha_j}, namely xi^alpha."""
    if len(alpha) > g.n:
        raise ValueError(f"multi-index {alpha} has more entries than the dimension {g.n}")
    out = np.ones(g.shape, dtype=complex)
    mesh = g.xi_mesh
    for j, a in enumerate(alpha):
        if a:
            out = out * mesh[..., j] ** a
    return out


def _dalpha(g: Grid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    return g.ifftn(g.fftn(values) * mult)


def _monomial(values: np.ndarray, p: int, q: int) -> np.ndarray:
    return values**p * np.conj(values) ** q


def _nonlinearity(
    g: Grid,
    values: np.ndarray,
    spec: NonlinearitySpec,
    c_frozen: Optional[np.ndarray] = None,
    dealias: bool = True,
) -> np.ndarray:
    """N(u) = u^p conj(u)^q D^alpha u on samples whose leading axes index a
    stack; with c_frozen = u0^p conj(u0)^q, the frozen Ntil = (u^p conj(u)^q -
    c_frozen) D^alpha u.  The product is de-aliased with the 2/3 mask."""
    coeff = _monomial(values, spec.p, spec.q)
    if c_frozen is not None:
        coeff = coeff - c_frozen
    out = coeff * _dalpha(g, values, _xi_alpha(g, spec.alpha))
    if dealias:
        out = g.ifftn(np.where(g.dealias_mask, g.fftn(out), 0.0))
    return out


def nonlinearity_eval(
    u: Field,
    spec: NonlinearitySpec,
    u0: Optional[Field] = None,
    *,
    frozen: bool = False,
    dealias: bool = True,
) -> Field:
    """Evaluate N(u) = u^p conj(u)^q D^alpha u (or Ntil when frozen=True).

    Products are de-aliased with the 2/3 mask by default.
    """
    if frozen and u0 is None:
        raise ValueError("the frozen variant requires the datum u0")
    c_frozen = _monomial(u0.values, spec.p, spec.q) if frozen else None
    return Field(u.grid, _nonlinearity(u.grid, u.values, spec, c_frozen, dealias))


@dataclass
class XtsNorm:
    value: float
    terms: dict


def _xts_terms(
    grid: Grid,
    times: np.ndarray,
    values: np.ndarray,
    rhs: np.ndarray,
    s: float,
    lam: WeightFn,
    N_w: int,
    *,
    decay_gate: Optional[float] = 1e-6,
) -> XtsNorm:
    """The four terms for a frame stack `values` and its du/dt stack `rhs`."""
    if s < 2 * N_w + 5:
        raise ValueError(f"s={s} too small: the norm needs s >= 2 N_w + 5 = {2 * N_w + 5}")
    if decay_gate is not None and np.max(_tail_fraction(grid, values, grid.L / 2.0)) > decay_gate:
        raise ValueError("field mass leaks outside |x| <= L/2; lam^{-1} weights unreliable")
    inv_lam = 1.0 / lam(grid.x_radius)
    # one stack of spectra at a time: each is reduced and freed before the next is formed
    hat = _spectrum(grid, values)
    sup_s2 = float(np.max(_sobolev_sq(grid, hat, s)))
    smoothing = float(np.trapezoid(_weighted_sq(grid, hat, lam, s + 1.0), times))
    del hat
    hat = _spectrum(grid, inv_lam * values)
    sup_low = float(np.max(_sobolev_sq(grid, hat, s - 2 * N_w - 2)))
    sup_low_alt = float(np.max(_sobolev_sq(grid, hat, s - 2 * N_w - 5)))
    del hat
    sup_dt = float(np.max(_sobolev_sq(grid, _spectrum(grid, inv_lam * rhs), s - 2 * N_w - 5)))
    value = float(np.sqrt(sup_s2 + smoothing + sup_low + sup_dt))
    return XtsNorm(
        value=value,
        terms={
            "sup_Hs_sq": sup_s2,
            "weighted_smoothing": smoothing,
            "sup_weighted_low_sq(s-2N-2)": sup_low,
            "sup_weighted_low_sq(s-2N-5)": sup_low_alt,
            "sup_weighted_dt_sq(s-2N-5)": sup_dt,
        },
    )


def xts_norm(sol: Solution, s: float, lam: WeightFn, N_w: int) -> XtsNorm:
    """Four-term solution norm; du/dt comes from the equation (sol.rhs_values)."""
    return _xts_terms(sol.grid, sol.times, sol.values, sol.rhs_values(), s, lam, N_w)


def _frozen_forcing(g: Grid, c_frozen: np.ndarray, mult_alpha: np.ndarray) -> SpectralMap:
    """The stepper's forcing for the frozen part, uhat -> F(c_frozen D^alpha u),
    written into one buffer that the forcing owns and returns; every product
    keeps the operand order written here at every size."""
    buf = np.empty(g.shape, dtype=complex)

    def frozen_term(uhat, t):
        g.ifftn(np.multiply(uhat, mult_alpha, out=buf), overwrite_x=True)
        return g.fftn(np.multiply(c_frozen, buf, out=buf), overwrite_x=True)

    return frozen_term


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
    frozen: bool


def picard_solve(
    a: Symbol,
    u0: Field,
    spec: NonlinearitySpec,
    s: float,
    lam: WeightFn,
    T: float,
    *,
    tol: float = 1e-6,
    max_iter: int = 25,
    dt: Optional[float] = None,
    frozen: bool = True,
    store_stride: int = 1,
) -> PicardRun:
    """Solve the NLIVP by Picard iteration on the Duhamel equation.

    [0, T] is cut into the fewest equal steps no longer than dt (picked when
    None); a dt beyond the stability bound raises ValueError.  Raises
    PicardDivergenceError (with diagnostics suggesting a smaller T)
    when the contraction factor stays >= 1 for three consecutive sweeps or an
    iterate blows past the overflow guard.
    """
    g = u0.grid
    if tail_mass_fraction(u0, g.L / 2.0) > SCHWARTZ_TAIL_TOL and np.max(np.abs(u0.values)) > 0:
        raise ValueError("datum is not localized enough (tail mass above 1e-8 outside L/2)")
    if s < 2 * lam.exponent + 5:
        raise ValueError(f"s={s} below the norm floor 2 N_w + 5 = {2 * lam.exponent + 5}")
    floor = g.n + 4 * lam.exponent + 5
    if s < floor or int(s) % 2 == 0:
        warnings.warn(
            f"s={s} is below the odd-integer regularity floor s >= n + 4N + 5 = {floor}; "
            "the discrete solve remains meaningful",
            stacklevel=2,
        )
    guard = wrap_guard(a, u0)
    if guard.localized:
        guard.check(T)

    op = build_evolution_operator(a, g)
    mult_alpha = _xi_alpha(g, spec.alpha)
    c_frozen = _monomial(u0.values, spec.p, spec.q) if frozen else None
    frozen_term = _frozen_forcing(g, c_frozen, mult_alpha) if frozen else None
    extra_mag = float(np.max(np.abs(c_frozen)) * np.max(np.abs(mult_alpha))) if frozen else 0.0
    steps, dt = _nonlinear_steps(op, u0, T, dt, extra_mag)
    times = dt * np.arange(steps + 1)
    step = lawson_stepper(op, dt, frozen_term)

    # every series below is one (steps + 1, *grid.shape) stack
    _, hom = _march(step, g, u0.values, steps, dt)  # W(t) u0

    def rhs(traj, nl_traj):
        # du/dt of the stepped equation: i A u + Ntil (+ the frozen part)
        out = 1j * op.apply(traj) + nl_traj
        if frozen:
            out = out + c_frozen * _dalpha(g, traj, mult_alpha)
        return out

    def duhamel(nl_traj):
        nl_hat = g.fftn(nl_traj)
        acc = np.zeros_like(nl_hat)  # Duhamel coefficients
        for i in range(steps):
            acc[i + 1] = step(acc[i] + (dt / 2.0) * nl_hat[i], i * dt) + (dt / 2.0) * nl_hat[i + 1]
        return g.ifftn(acc)

    def x_norm_of(traj, rhs_traj, gate=None):
        # differences of iterates are near-zero fields whose relative tail
        # fraction is meaningless; only physical iterates get the decay gate
        return _xts_terms(g, times, traj, rhs_traj, s, lam, lam.exponent, decay_gate=gate).value

    current = hom
    nl_current = _nonlinearity(g, current, spec, c_frozen)
    history = []
    rhos = []
    prev_diff = None
    overflow_cap = 1e8 * max(1.0, sobolev_norm(u0, s))
    bad_streak = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new = hom + duhamel(nl_current)
        nl_new = _nonlinearity(g, new, spec, c_frozen)
        diff = new - current
        try:
            # rhs(diff) is formed from diff itself: rhs(new) - rhs(current)
            # would cancel at the round-off floor of the late sweeps
            dn = x_norm_of(diff, rhs(diff, nl_new - nl_current))
            xn = x_norm_of(new, rhs(new, nl_new), gate=1e-6)
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
        current, nl_current = new, nl_new
        if dn < tol or stagnated:
            converged = True
            break

    # PDE residual of the converged iterate against the original equation,
    # with du/dt from centered differences of the stored trajectory
    plain_nl = _nonlinearity(g, current, spec) if frozen else nl_current
    dudt = (current[2:] - current[:-2]) / (2.0 * dt)
    r = dudt - 1j * op.apply(current[1:-1]) - plain_nl[1:-1]
    resid = np.max(np.sqrt(_sobolev_sq(g, _spectrum(g, r), s - 3.0)), initial=0.0)

    keep = _stored_steps(steps, store_stride)
    sol = Solution(
        grid=g,
        symbol=a,
        times=times[keep],
        values=current[keep],
        dt=dt,
        scheme="picard_duhamel",
        stride=store_stride,
        source=None,
        guard=guard,
        operator=op,
    )
    return PicardRun(
        solution=sol,
        xts_history=history,
        contraction_factors=rhos,
        residual=float(resid),
        iterations=it,
        converged=converged,
        frozen=frozen,
    )


def direct_nonlinear_solve(
    a: Symbol,
    u0: Field,
    spec: NonlinearitySpec,
    T: float,
    *,
    dt: Optional[float] = None,
    store_stride: int = 1,
) -> Solution:
    """Method-of-lines integration of du/dt = i A u + N(u) with Lawson RK4,
    on the step rule of `picard_solve`."""
    g = u0.grid
    guard = wrap_guard(a, u0)
    if guard.localized:
        guard.check(T)

    op = build_evolution_operator(a, g)
    mult_alpha = _xi_alpha(g, spec.alpha)
    nl_mag = float(
        np.max(np.abs(_monomial(u0.values, spec.p, spec.q))) * np.max(np.abs(mult_alpha))
    )
    steps, dt = _nonlinear_steps(op, u0, T, dt, nl_mag)

    def nonlinearity(uhat, t):
        return g.fftn(_nonlinearity(g, g.ifftn(uhat), spec))

    step = lawson_stepper(op, dt, nonlinearity)
    times, stored = _march(step, g, u0.values, steps, dt, store_stride)
    return Solution(
        grid=g,
        symbol=a,
        times=times,
        values=stored,
        dt=dt,
        scheme="nonlinear_if_rk4",
        stride=store_stride,
        source=None,
        guard=guard,
        operator=op,
    )
