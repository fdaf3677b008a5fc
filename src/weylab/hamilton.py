"""Bicharacteristic flows of the principal symbol and non-trapping probes.

Trajectories solve (x', xi') = (grad_xi a_m, -grad_x a_m) with classical RK4
in unbounded phase space (no torus: bicharacteristics are ODE objects
independent of the PDE grid).  The forward and backward paths march as one
batch of two rows, one field call per RK4 stage.  A path halts if its |xi|
falls below a floor, since homogeneous symbols are not smooth at xi = 0; the
other path goes on.

Escape times are located by linear interpolation between accepted steps plus
bisection refinement.  A finite-horizon computation can certify escape but
never trapping, so verdicts are escape certificates or inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import sympy as sp

from .export import write_csv
from .symbol.core import Symbol, SympySymbol, _derivative_expr, as_points

__all__ = [
    "Trajectory",
    "TrappingVerdict",
    "EllipticityClassification",
    "QDeltaReport",
    "hamiltonian_field",
    "hamilton_derivative",
    "qdelta_symbol",
    "integrate_bicharacteristic",
    "classify_strong_ellipticity",
    "escape_verdict",
    "trapping_probe",
    "qdelta_monotonicity",
    "qdelta_values",
    "trajectory_to_csv",
]

XI_FLOOR = 1e-6
DRIFT_TOLERANCE = 1e-6  # largest accepted |a(x(t), xi(t)) - a(x0, xi0)| on a trajectory
ELLIPTIC_TOL = 1e-10  # |a_m| below this (relative to its max) is a degeneracy
ESCAPE_REFINE_TOL = 1e-8  # time resolution of the bisected escape time


def hamiltonian_field(a: Symbol, x, xi) -> tuple[np.ndarray, np.ndarray]:
    """(x_dot, xi_dot) = (grad_xi a, -grad_x a) from the derivative closures."""
    xdot = np.real(a.grad_xi(x, xi))
    xidot = -np.real(a.grad_x(x, xi))
    return xdot, xidot


def hamilton_derivative(a: Symbol, b: Symbol, x, xi) -> np.ndarray:
    """H_a b = {a, b} = x_dot . grad_x b + xi_dot . grad_xi b along the H_a flow
    (real parts: the calculus runs on Re(a))."""
    # component by component, in index order: no stacked gradient and no
    # reduction over a short trailing axis
    zero = (0,) * a.n
    total = None
    for i in range(a.n):
        e = tuple(int(j == i) for j in range(a.n))
        xdot = np.real(a.deriv(e, zero, x, xi))
        xidot = -np.real(a.deriv(zero, e, x, xi))
        term = xdot * np.real(b.deriv(zero, e, x, xi)) + xidot * np.real(b.deriv(e, zero, x, xi))
        total = term if total is None else total + term
    return total


def qdelta_symbol(a: Symbol, delta: float, scale: float = 1.0) -> SympySymbol:
    """scale <xi>_delta^{-(m-1)} sum_j x_j d_{xi_j} a, <xi>_delta = (delta+|xi|^2)^{1/2},
    derived from the sympy expression of a (delta = 1 gives the Garding weight)."""
    if not isinstance(a, SympySymbol):
        raise TypeError("q_delta is derived from the sympy expression; pass a SympySymbol")
    n, xs, xis = a.n, a._xs, a._xis
    bes = (sp.nsimplify(delta, rational=True) + sum(v**2 for v in xis)) ** (
        -sp.Rational(1, 2) * sp.nsimplify(a.order - 1)
    )
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    expr = sp.nsimplify(scale, rational=False) * bes * sum(
        xs[i] * _derivative_expr(a.expr, n, e, (0,) * n) for i, e in enumerate(units)
    )
    return SympySymbol(expr, a.n, 0.0, zero_nyquist=False, label="q")


@dataclass
class Trajectory:
    """Sampled bicharacteristic (t_i, x(t_i), xi(t_i)), time-sorted."""

    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    drift: float
    xi_min: float
    xi_max: float
    truncated_forward: bool = False
    truncated_backward: bool = False

    @property
    def accepted(self) -> bool:
        return self.drift <= DRIFT_TOLERANCE

    @property
    def start_index(self) -> int:
        return int(np.argmin(np.abs(self.t)))


def _rk4_path(a: Symbol, z0: np.ndarray, T: float, h: float, signs) -> list:
    """Fixed-step RK4 of a batch of states z0 (P, 2n), row p from 0 to signs[p]*T.

    Every row takes the same number of steps, of size signs[p]*T/steps.  A row
    whose |xi| falls below XI_FLOOR stops there and the others go on.
    Returns, per row, its times, its states and whether it stopped early.
    """
    P, n = z0.shape[0], z0.shape[1] // 2
    steps = max(1, int(np.ceil(T / h - 1e-12)))
    hh = np.asarray(signs, dtype=float) * T / steps

    def f(z):
        xd, xid = hamiltonian_field(a, z[:, :n], z[:, n:])
        return np.concatenate([xd, xid], axis=1)

    ts = np.zeros((steps + 1, P))
    zs = np.empty((steps + 1, P, 2 * n))
    zs[0] = z0
    taken = np.full(P, steps)
    live = np.arange(P)  # rows still marching; z holds their states
    z = z0.copy()
    for k in range(1, steps + 1):
        hl = hh[live, None]
        k1 = f(z)
        k2 = f(z + 0.5 * hl * k1)
        k3 = f(z + 0.5 * hl * k2)
        k4 = f(z + hl * k3)
        z = z + (hl / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        low = np.linalg.norm(z[:, n:], axis=1) < XI_FLOOR
        if low.any():
            taken[live[low]] = k - 1
            live, z = live[~low], z[~low]
            if not live.size:
                break
        ts[k, live] = ts[k - 1, live] + hh[live]
        zs[k, live] = z
    return [(ts[: m + 1, p], zs[: m + 1, p], m < steps) for p, m in enumerate(taken)]


def integrate_bicharacteristic(
    a_m: Symbol,
    x0,
    xi0,
    T: float,
    h: float,
) -> Trajectory:
    """Integrate the H_{a_m} flow forward and backward to +-T with step h."""
    n = a_m.n
    x0 = as_points(x0, n).reshape(n)
    xi0 = as_points(xi0, n).reshape(n)
    if np.linalg.norm(xi0) <= XI_FLOOR:
        raise ValueError("initial frequency must satisfy |xi0| > 0")
    if h <= 0 or T <= 0:
        raise ValueError("horizon T and step h must be positive")
    z0 = np.concatenate([x0, xi0])
    # forward and backward march as one batch of two rows
    (tf, zf, trunc_f), (tb, zb, trunc_b) = _rk4_path(a_m, np.stack([z0, z0]), T, h, (1.0, -1.0))
    t = np.concatenate([tb[::-1][:-1], tf])
    z = np.concatenate([zb[::-1][:-1], zf], axis=0)
    x = z[:, :n]
    xi = z[:, n:]
    a_vals = np.real(a_m.eval(x, xi))
    a0 = np.real(a_m.eval(x0[None, :], xi0[None, :]))[0]
    drift = float(np.max(np.abs(a_vals - a0)))
    xin = np.linalg.norm(xi, axis=1)
    return Trajectory(
        t=t,
        x=x,
        xi=xi,
        drift=drift,
        xi_min=float(np.min(xin)),
        xi_max=float(np.max(xin)),
        truncated_forward=trunc_f,
        truncated_backward=trunc_b,
    )


@dataclass
class EllipticityClassification:
    ok: bool
    C: float
    reason: str = ""


def classify_strong_ellipticity(a_m: Symbol, traj: Trajectory) -> EllipticityClassification:
    """Fit C with C^{-1}|xi(t)|^m <= |a_m| <= C|xi(t)|^m along the trajectory.

    Points with a_m ~ 0 are off the elliptic co-sphere and are rejected
    (reported, not raised)."""
    if not traj.accepted:
        return EllipticityClassification(False, np.inf, "trajectory drift above tolerance")
    vals = np.abs(np.real(a_m.eval(traj.x, traj.xi)))
    start = vals[traj.start_index]
    if start < ELLIPTIC_TOL:
        return EllipticityClassification(
            False, np.inf, "a_m vanishes at the start point (not on the elliptic co-sphere)"
        )
    base = np.linalg.norm(traj.xi, axis=1) ** a_m.order
    if np.min(vals) < ELLIPTIC_TOL * max(1.0, float(np.max(vals))):
        return EllipticityClassification(False, np.inf, "a_m degenerates along the flow")
    C = float(max(np.max(vals / base), np.max(base / vals)))
    return EllipticityClassification(True, C, "")


@dataclass
class TrappingVerdict:
    forward_escape_time: Optional[float]
    backward_escape_time: Optional[float]
    verdict: str  # forward_nontrapped | backward_nontrapped | nontrapped_both | inconclusive

    @property
    def nontrapped(self) -> bool:
        return self.verdict != "inconclusive"


def _first_escape(t: np.ndarray, x: np.ndarray, R: float):
    """First |x(t)| >= R by linear interpolation between samples + bisection."""
    r = np.linalg.norm(x, axis=1)
    hit = np.nonzero(r >= R)[0]
    if hit.size == 0:
        return None
    i = int(hit[0])
    if i == 0:
        return float(t[0])
    t_lo, t_hi = float(t[i - 1]), float(t[i])
    x_lo, x_hi = x[i - 1], x[i]

    # bisect on the segment parameter (times may run either direction)
    def radius_at(w):
        return np.linalg.norm(x_lo + w * (x_hi - x_lo))

    lo, hi = 0.0, 1.0
    while (hi - lo) * abs(t_hi - t_lo) > ESCAPE_REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if radius_at(mid) >= R:
            hi = mid
        else:
            lo = mid
    return t_lo + hi * (t_hi - t_lo)


def escape_verdict(traj: Trajectory, R: float) -> TrappingVerdict:
    """Certify escape from |x| < R along a trajectory, in either direction."""
    i0 = traj.start_index
    fwd = _first_escape(traj.t[i0:], traj.x[i0:], R)
    bwd = _first_escape(traj.t[: i0 + 1][::-1], traj.x[: i0 + 1][::-1], R)
    if fwd is not None and bwd is not None:
        verdict = "nontrapped_both"
    elif fwd is not None:
        verdict = "forward_nontrapped"
    elif bwd is not None:
        verdict = "backward_nontrapped"
    else:
        verdict = "inconclusive"
    return TrappingVerdict(forward_escape_time=fwd, backward_escape_time=bwd, verdict=verdict)


def trapping_probe(a_m: Symbol, x0, xi0, R: float, T_max: float, h: float) -> TrappingVerdict:
    """Certify escape from |x| < R within the horizon, in either direction."""
    return escape_verdict(integrate_bicharacteristic(a_m, x0, xi0, T_max, h), R)


def qdelta_values(a_m: Symbol, x, xi, delta: float) -> np.ndarray:
    """q_delta = <xi>_delta^{-(m-1)} sum_j x_j d_{xi_j} a_m, <xi>_delta = (delta+|xi|^2)^{1/2}."""
    return qdelta_symbol(a_m, delta).eval(x, xi).real


@dataclass
class QDeltaReport:
    identity_rel_error: float
    mu: float
    ls_slope: float
    t: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)


def qdelta_monotonicity(a_m: Symbol, traj: Trajectory, delta: float) -> QDeltaReport:
    """Verify q_delta(x(t), xi(t)) = q_delta(0) + int_0^t H_{a_m} q_delta along the
    trajectory and fit the growth rate mu with q_delta(t) >= q_delta(0) + mu t."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if not traj.accepted:
        raise ValueError("trajectory drift exceeds tolerance; refine the step")
    i0 = traj.start_index
    t = traj.t[i0:]
    x = traj.x[i0:]
    xi = traj.xi[i0:]
    q = qdelta_symbol(a_m, delta)
    qv = q.eval(x, xi).real
    hv = hamilton_derivative(a_m, q, x, xi)
    # cumulative composite trapezoid of H q_delta against the endpoint values
    integ = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (hv[1:] + hv[:-1]))])
    scale = float(np.max(np.abs(qv - qv[0])))
    err = 0.0 if scale == 0 else float(np.max(np.abs(qv - qv[0] - integ)) / scale)
    dt_pos = t[1:] - t[0]
    ratios = (qv[1:] - qv[0]) / dt_pos
    mu = float(np.min(ratios)) if ratios.size else 0.0
    ls = float(np.polyfit(t, qv, 1)[0]) if t.size > 2 else np.nan
    return QDeltaReport(identity_rel_error=err, mu=mu, ls_slope=ls, t=t, q_values=qv)


def trajectory_to_csv(path, traj: Trajectory, a_m: Symbol, delta: float) -> None:
    """Export (t, x, xi, a_m, q_delta) samples."""
    n = traj.x.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)] + ["a_m", "q_delta"]
    a_vals = np.real(a_m.eval(traj.x, traj.xi))
    columns = [traj.t, *traj.x.T, *traj.xi.T, a_vals, qdelta_values(a_m, traj.x, traj.xi, delta)]
    write_csv(path, header, columns)
