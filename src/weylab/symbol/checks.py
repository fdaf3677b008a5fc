"""Numerical verification of the symbol-class conditions.

The checks sample log-spaced frequency shells crossed with a spatial lattice
(the conditions are homogeneous in xi, so shells capture them) and fit the
constants of

  * gradient ellipticity   1/C |xi|^{m-1} <= |grad_xi Re a| <= C |xi|^{m-1}
  * spatial decay          |d_x^beta d_xi^alpha Re a| <= eps lam(|x|) |xi|^{m-|alpha|}
  * imaginary smallness    |Im a| <= c0 lam(|x|) |xi|^{m-1}  (the principal
                           part a_m is real, so Im a = Im a_{m-1})

with lam(r) = <r>^{-2} the package's one spatial weight, `weylab.grid.lam`.

Verdicts: fail when the slack is negative beyond tolerance at a sample,
inconclusive when it sits inside the tolerance band, pass otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..grid import lam
from .core import Symbol, multi_indices_upto

__all__ = [
    "SampleSet",
    "ConditionReport",
    "check_grad_ellipticity",
    "check_x_decay",
    "check_im_smallness",
]

# |xi|^{m-1} is regularized as max(|xi|, XI_FLOOR)^{m-1} purely for ratio
# fitting near xi = 0, where both sides of the conditions vanish.
XI_FLOOR = 1e-8
NUM_DIRECTIONS = 32  # frequency directions per shell of a 2D standard sample set
# gradient ellipticity fails when min |grad_xi Re a| / |xi|^{m-1} <= GRAD_DEGENERATE_TOL
# and is inconclusive below GRAD_PASS_TOL
GRAD_DEGENERATE_TOL = 1e-8
GRAD_PASS_TOL = 1e-3
X_DECAY_MAX_ORDER = 3  # x-decay fit over |alpha| + |beta| <= X_DECAY_MAX_ORDER
VERDICT_BAND = 1e-9  # slack within +-VERDICT_BAND of 0 is inconclusive
# the symbol-class constants the fitted ones are checked against
X_DECAY_EPS = 1.0  # x-decay: eps_hat <= X_DECAY_EPS
IM_SMALLNESS_C0 = 1.0  # imaginary smallness: c0_hat <= IM_SMALLNESS_C0
TIE_RTOL = 1e-12  # samples within this relative distance of an extreme tie with it


@dataclass(frozen=True)
class SampleSet:
    """Phase-space sample points: X and XI of shape (M, n), with shell metadata."""

    n: int
    X: np.ndarray
    XI: np.ndarray
    shell_radii: np.ndarray
    shell_index: np.ndarray
    description: str = ""

    def __post_init__(self):
        for name in ("X", "XI", "shell_radii", "shell_index"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def xi_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.XI**2, axis=-1))

    @property
    def x_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.X**2, axis=-1))

    @classmethod
    def standard(
        cls,
        n: int,
        x_radius: float = 10.0,
        xi_max: float = 64.0,
        num_shells: int = 24,
        x_points: int = 33,
    ) -> "SampleSet":
        """Default scan: 24 log shells |xi| in [1, xi_max], 32 directions (n=2)
        or {+-1} (n=1), crossed with a 33^n spatial lattice over the box."""
        radii = np.logspace(0.0, np.log10(xi_max), num_shells)
        if n == 1:
            dirs = np.array([[1.0], [-1.0]])
        elif n == 2:
            ang = 2.0 * np.pi * np.arange(NUM_DIRECTIONS) / NUM_DIRECTIONS
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            raise ValueError("standard sample sets support n in {1, 2}")
        xi_pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        shell_of_xi = np.repeat(np.arange(num_shells), dirs.shape[0])

        axis = np.linspace(-x_radius, x_radius, x_points)
        x_lattice = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)

        X = np.repeat(x_lattice, xi_pts.shape[0], axis=0)
        XI = np.tile(xi_pts, (x_lattice.shape[0], 1))
        shell_index = np.tile(shell_of_xi, x_lattice.shape[0])
        desc = (
            f"{num_shells} log shells |xi| in [1, {xi_max:g}] x {dirs.shape[0]} directions "
            f"x {x_points}^{n} spatial lattice over [-{x_radius:g}, {x_radius:g}]^{n}"
        )
        return cls(n=n, X=X, XI=XI, shell_radii=radii, shell_index=shell_index, description=desc)


@dataclass
class ConditionReport:
    condition: str
    sample_description: str
    constants: dict = field(default_factory=dict)
    worst_point: Optional[tuple] = None
    worst_value: float = np.nan
    verdict: str = "inconclusive"
    threshold: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "samples": self.sample_description,
            "constants": {k: v for k, v in self.constants.items()},
            "worst_point": None
            if self.worst_point is None
            else [list(map(float, p)) for p in self.worst_point],
            "worst_value": float(self.worst_value),
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


def _band_verdict(slack: float) -> str:
    if slack > VERDICT_BAND:
        return "pass"
    return "inconclusive" if slack >= -VERDICT_BAND else "fail"


def _worst(S: SampleSet, idx: int) -> tuple:
    return (tuple(S.X[idx]), tuple(S.XI[idx]))


def _first_tie(ratio: np.ndarray, idx: int) -> int:
    """The first sample whose ratio lies within a relative TIE_RTOL of the
    extreme ratio[idx].  The ratios are flat along |xi| shells, so the exact
    argmin/argmax moves with a one-ulp change; the first tie does not."""
    extreme = ratio[idx]
    if not np.isfinite(extreme):
        return idx
    return int(np.argmax(np.abs(ratio - extreme) <= TIE_RTOL * abs(extreme)))


def check_grad_ellipticity(
    a: Symbol,
    S: SampleSet,
) -> ConditionReport:
    """Two-sided fit of |grad_xi Re a| against |xi|^{m-1} over the sample set."""
    m = a.order
    grad = a.grad_xi(S.X, S.XI)
    gnorm = np.sqrt(np.sum(np.real(grad) ** 2, axis=-1))
    base = np.maximum(S.xi_norm, XI_FLOOR) ** (m - 1.0)
    ratio = gnorm / base
    i_min = int(np.argmin(ratio))
    i_max = int(np.argmax(ratio))
    r_min = float(ratio[i_min])
    r_max = float(ratio[i_max])
    c_lower = np.inf if r_min == 0 else 1.0 / r_min
    constants = {
        "C_lower": float(c_lower),
        "C_upper": r_max,
        "C": float(max(c_lower, r_max)),
    }
    if r_min <= GRAD_DEGENERATE_TOL:
        verdict = "fail"
    elif r_min < GRAD_PASS_TOL:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return ConditionReport(
        condition="grad_ellipticity",
        sample_description=S.description,
        constants=constants,
        worst_point=_worst(S, _first_tie(ratio, i_min)),
        worst_value=r_min,
        verdict=verdict,
        threshold=GRAD_PASS_TOL,
    )


def check_x_decay(a: Symbol, S: SampleSet) -> ConditionReport:
    """Fit eps_hat = max |d_x^beta d_xi^alpha Re a| / (lam(|x|) |xi|^{m-|alpha|})
    over 1 <= |beta|, |alpha| + |beta| <= X_DECAY_MAX_ORDER, against X_DECAY_EPS."""
    m = a.order
    lam_vals = lam(S.x_norm)
    xi = np.maximum(S.xi_norm, XI_FLOOR)
    eps_hat = 0.0
    worst_idx = 0
    worst_key = None
    by_index = {}
    for alpha in multi_indices_upto(a.n, X_DECAY_MAX_ORDER):
        for beta in multi_indices_upto(a.n, X_DECAY_MAX_ORDER - sum(alpha)):
            if sum(beta) < 1:
                continue
            vals = np.abs(np.real(a.deriv(alpha, beta, S.X, S.XI)))
            ratio = vals / (lam_vals * xi ** (m - sum(alpha)))
            j = int(np.argmax(ratio))
            by_index[f"alpha={alpha},beta={beta}"] = float(ratio[j])
            if ratio[j] > eps_hat:
                eps_hat = float(ratio[j])
                worst_idx = _first_tie(ratio, j)
                worst_key = (alpha, beta)
    slack = X_DECAY_EPS - eps_hat
    verdict = _band_verdict(slack)
    return ConditionReport(
        condition="x_decay",
        sample_description=S.description,
        constants={"eps_hat": eps_hat, "worst_index": str(worst_key), "by_index": by_index},
        worst_point=_worst(S, worst_idx),
        worst_value=eps_hat,
        verdict=verdict,
        threshold=X_DECAY_EPS,
    )


def check_im_smallness(a: Symbol, S: SampleSet) -> ConditionReport:
    """Fit c0_hat = max |Im a| / (lam(|x|) |xi|^{m-1}) over the sample set,
    against IM_SMALLNESS_C0."""
    m = a.order
    if a.real_valued:
        im_vals = np.zeros(S.X.shape[0])
    else:
        im_vals = np.abs(np.imag(a.eval(S.X, S.XI)))
    lam_vals = lam(S.x_norm)
    ratio = im_vals / (lam_vals * np.maximum(S.xi_norm, XI_FLOOR) ** (m - 1.0))
    j = int(np.argmax(ratio))
    c0_hat = float(ratio[j])
    slack = IM_SMALLNESS_C0 - c0_hat
    verdict = _band_verdict(slack)
    return ConditionReport(
        condition="im_smallness",
        sample_description=S.description,
        constants={"c0_hat": c0_hat},
        worst_point=_worst(S, _first_tie(ratio, j)),
        worst_value=c0_hat,
        verdict=verdict,
        threshold=IM_SMALLNESS_C0,
    )

