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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evolve import (
    Solution,
    _march,
    _pick_dt,
    build_evolution_operator,
    lawson_stepper,
    wrap_guard,
)
from .grid import Field, Grid, sobolev_norm, tail_mass_fraction, weighted_pairing
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
    g = u.grid
    if frozen and u0 is None:
        raise ValueError("the frozen variant requires the datum u0")
    mult = _xi_alpha(g, spec.alpha)
    du = _dalpha(g, u.values, mult)
    coeff = _monomial(u.values, spec.p, spec.q)
    if frozen:
        coeff = coeff - _monomial(u0.values, spec.p, spec.q)
    out = coeff * du
    if dealias:
        spec_out = g.fftn(out)
        out = g.ifftn(np.where(g.dealias_mask, spec_out, 0.0))
    return Field(g, out)


@dataclass
class XtsNorm:
    value: float
    terms: dict

    def as_dict(self) -> dict:
        return {"value": float(self.value), "terms": {k: float(v) for k, v in self.terms.items()}}


def _xts_terms(
    grid: Grid,
    times: np.ndarray,
    fields: list[np.ndarray],
    rhs_fields: Optional[list[np.ndarray]],
    s: float,
    lam: WeightFn,
    N_w: int,
    *,
    decay_gate: Optional[float] = 1e-6,
) -> XtsNorm:
    if s < 2 * N_w + 5:
        raise ValueError(f"s={s} too small: the norm needs s >= 2 N_w + 5 = {2 * N_w + 5}")
    inv_lam = 1.0 / lam(grid.x_radius)
    sup_s2 = 0.0
    sup_low = 0.0
    sup_low_alt = 0.0
    sup_dt = 0.0
    weighted = []
    for i, vals in enumerate(fields):
        f = Field(grid, vals)
        if (
            decay_gate is not None
            and np.max(np.abs(vals)) > 0
            and tail_mass_fraction(f, grid.L / 2.0) > decay_gate
        ):
            raise ValueError("field mass leaks outside |x| <= L/2; lam^{-1} weights unreliable")
        sup_s2 = max(sup_s2, sobolev_norm(f, s) ** 2)
        weighted.append(weighted_pairing(f, lam, s + 1.0))
        wf = Field(grid, inv_lam * vals)
        sup_low = max(sup_low, sobolev_norm(wf, s - 2 * N_w - 2) ** 2)
        sup_low_alt = max(sup_low_alt, sobolev_norm(wf, s - 2 * N_w - 5) ** 2)
        if rhs_fields is not None:
            wdt = Field(grid, inv_lam * rhs_fields[i])
            sup_dt = max(sup_dt, sobolev_norm(wdt, s - 2 * N_w - 5) ** 2)
    smoothing = float(np.trapezoid(weighted, times))
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


def xts_norm(
    sol: Solution,
    s: float,
    lam: WeightFn,
    N_w: int,
    *,
    rhs_fields: Optional[list[np.ndarray]] = None,
) -> XtsNorm:
    """Four-term solution norm; du/dt comes from the equation (sol.rhs_field)
    unless explicit rhs samples are supplied."""
    if rhs_fields is None:
        rhs_fields = [sol.rhs_field(i).values for i in range(len(sol.times))]
    return _xts_terms(sol.grid, sol.times, sol.values, rhs_fields, s, lam, N_w)


class PicardDivergenceError(RuntimeError):
    """Picard iterates stopped contracting; carries the partial run."""

    def __init__(self, message: str, run: Optional["PicardRun"] = None):
        super().__init__(message)
        self.run = run


@dataclass
class PicardRun:
    solution: Solution
    xts_history: list
    contraction_factors: list
    residual: float
    iterations: int
    converged: bool
    frozen: bool
    rhs_fields: list = field(repr=False, default_factory=list)

    @property
    def final_rho(self) -> Optional[float]:
        return self.contraction_factors[-1] if self.contraction_factors else None


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

    Raises PicardDivergenceError (with diagnostics suggesting a smaller T)
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
    c_frozen = _monomial(u0.values, spec.p, spec.q)
    extra = frozen_term = None
    if frozen:

        def extra(v):  # on samples
            return c_frozen * _dalpha(g, v, mult_alpha)

        def frozen_term(uhat, t):  # on coefficients, for the stepper
            return g.fftn(c_frozen * g.ifftn(uhat * mult_alpha))

    extra_mag = float(np.max(np.abs(c_frozen)) * np.max(np.abs(mult_alpha))) if frozen else 0.0
    if dt is None:
        dt = _pick_dt(op, u0, T, extra_mag)
    steps = max(1, int(np.round(T / dt)))
    dt = T / steps
    times = dt * np.arange(steps + 1)
    step = lawson_stepper(op, dt, frozen_term)

    # homogeneous trajectory W(t) u0
    _, hom = _march(step, g, u0.values, steps, dt)

    def nonlinear_series(traj):
        out = []
        for vals in traj:
            out.append(
                nonlinearity_eval(
                    Field(g, vals), spec, u0 if frozen else None, frozen=frozen
                ).values
                if frozen
                else nonlinearity_eval(Field(g, vals), spec).values
            )
        return out

    def duhamel(nl_series):
        nl_hat = [g.fftn(v) for v in nl_series]
        acc_hat = np.zeros(g.shape, dtype=complex)
        acc = [acc_hat.copy()]
        for i in range(steps):
            acc_hat = step(acc_hat + (dt / 2.0) * nl_hat[i], i * dt) + (dt / 2.0) * nl_hat[i + 1]
            acc.append(g.ifftn(acc_hat))
        return acc

    def x_norm_of(traj, rhs_traj, gate=None):
        # differences of iterates are near-zero fields whose relative tail
        # fraction is meaningless; only physical iterates get the decay gate
        return _xts_terms(g, times, traj, rhs_traj, s, lam, lam.exponent, decay_gate=gate).value

    def rhs_series(traj, nl_series):
        out = []
        for vals, nl in zip(traj, nl_series):
            r = 1j * op.apply(vals) + nl
            if frozen:
                r = r + extra(vals)
            out.append(r)
        return out

    current = hom
    nl_current = nonlinear_series(current)
    history = []
    rhos = []
    prev_diff = None
    overflow_cap = 1e8 * max(1.0, sobolev_norm(u0, s))
    bad_streak = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        integral = duhamel(nl_current)
        new = [h + i for h, i in zip(hom, integral)]
        nl_new = nonlinear_series(new)
        diff = [b - c for b, c in zip(new, current)]
        diff_rhs = [
            1j * op.apply(d) + (nb - nc) + (extra(d) if frozen else 0.0)
            for d, nb, nc in zip(diff, nl_new, nl_current)
        ]
        try:
            dn = x_norm_of(diff, diff_rhs)
            xn = x_norm_of(new, rhs_series(new, nl_new), gate=1e-6)
        except ValueError:
            raise PicardDivergenceError(
                "iterate mass escaped the box; reduce T (or the datum amplitude)", None
            )
        history.append(xn)
        if not np.isfinite(xn) or xn > overflow_cap:
            raise PicardDivergenceError(
                f"iterate norm {xn:.3g} exceeds the overflow guard after {it} sweeps; "
                "the contraction fails at this T -- try a smaller horizon",
                None,
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
                    f"(last rho={rho:.3g}); Picard diverges at this horizon -- reduce T",
                    None,
                )
        prev_diff = dn
        current, nl_current = new, nl_new
        if dn < tol or stagnated:
            converged = True
            break

    rhs_final = rhs_series(current, nl_current)

    # PDE residual of the converged iterate against the original equation,
    # with du/dt from centered differences of the stored trajectory
    resid = 0.0
    plain_nl = nonlinear_series(current) if frozen else nl_current
    if frozen:
        plain_nl = [
            nonlinearity_eval(Field(g, v), spec, dealias=True).values for v in current
        ]
    for i in range(1, steps):
        dudt = (current[i + 1] - current[i - 1]) / (2.0 * dt)
        r = dudt - 1j * op.apply(current[i]) - plain_nl[i]
        resid = max(resid, sobolev_norm(Field(g, r), s - 3.0))

    keep = list(range(0, steps + 1, store_stride))
    if keep[-1] != steps:
        keep.append(steps)
    sol = Solution(
        grid=g,
        symbol=a,
        times=times[keep],
        values=[current[i] for i in keep],
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
        rhs_fields=[rhs_final[i] for i in keep],
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
    """Method-of-lines integration of du/dt = i A u + N(u) with Lawson RK4."""
    g = u0.grid
    op = build_evolution_operator(a, g)
    mult_alpha = _xi_alpha(g, spec.alpha)
    nl_mag = float(
        np.max(np.abs(_monomial(u0.values, spec.p, spec.q))) * np.max(np.abs(mult_alpha))
    )
    if dt is None:
        dt = _pick_dt(op, u0, T, nl_mag)
    steps = max(1, int(np.round(T / dt)))
    dt = T / steps

    def nonlinearity(uhat, t):
        return g.fftn(nonlinearity_eval(Field(g, g.ifftn(uhat)), spec).values)

    step = lawson_stepper(op, dt, nonlinearity)
    times, stored = _march(step, g, u0.values, steps, dt, store_stride)
    guard = wrap_guard(a, u0)
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
