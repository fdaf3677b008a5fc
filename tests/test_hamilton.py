"""Bicharacteristic integration, strong ellipticity, trapping, q_delta growth."""

import csv

import numpy as np
import pytest

from weylab import hamilton
from weylab.calculus import poisson_bracket
from weylab.hamilton import (
    XI_HALT,
    Trajectory,
    classify_strong_ellipticity,
    escape_verdict,
    hamilton_derivative,
    hamiltonian_field,
    integrate_bicharacteristic,
    qdelta_monotonicity,
    qdelta_symbol,
    qdelta_values,
    trajectory_to_csv,
    trapping_probe,
)
from weylab.symbol.catalog import catalog
from weylab.symbol.checks import SampleSet
from weylab.symbol.core import FuncSymbol, SympySymbol, phase_symbols
from weylab.weights import garding_weight


def test_hamiltonian_field_airy():
    xd, xid = hamiltonian_field(catalog("airy"), 0.0, 1.0)
    assert np.allclose(xd, [[3.0]]) and np.allclose(xid, [[0.0]])


def test_hamiltonian_field_zk():
    xd, xid = hamiltonian_field(catalog("zk"), np.zeros(2), np.array([0.0, 1.0]))
    assert np.allclose(xd, [[1.0, 0.0]]) and np.allclose(xid, [[0.0, 0.0]])


def test_hamiltonian_field_gaussian_kdv_symmetry():
    # even coefficient: grad_x a = 0 at x = 0
    xd, xid = hamiltonian_field(catalog("gaussian_kdv", eps=0.3), 0.0, 1.0)
    assert abs(xid.ravel()[0]) < 1e-14


@pytest.mark.parametrize("name", ["gaussian_kdv", "zk"])
def test_hamilton_derivative_matches_exact_bracket(name):
    # H_a q of the Garding weight against the exact sympy bracket {a, q}
    a = catalog(name)
    S = SampleSet.standard(a.n, x_points=9)
    q = garding_weight(a, S=S).q
    got = hamilton_derivative(a, q, S.X, S.XI)
    ref = poisson_bracket(a, q).eval(S.X, S.XI).real
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["gaussian_kdv", "zk", "ultrahyperbolic"])
def test_hamilton_derivative_sums_components_bit_for_bit(name):
    # the per-component sum equals the sum over the stacked gradients exactly
    a = catalog(name)
    S = SampleSet.standard(a.n, x_points=9)
    q = garding_weight(a, S=S).q
    xdot, xidot = hamiltonian_field(a, S.X, S.XI)
    stacked = np.sum(
        xdot * np.real(q.grad_x(S.X, S.XI)) + xidot * np.real(q.grad_xi(S.X, S.XI)), axis=-1
    )
    assert np.array_equal(hamilton_derivative(a, q, S.X, S.XI), stacked)


def _one_direction(a, z0, T, h, direction):
    """RK4 from 0 to direction*T at one point per field call; stops below XI_HALT."""
    n = z0.size // 2

    def f(z):
        xd, xid = hamiltonian_field(a, z[None, :n], z[None, n:])
        return np.concatenate([xd[0], xid[0]])

    steps = max(1, int(np.ceil(T / h - 1e-12)))
    hh = direction * T / steps
    ts, zs, z, t = [0.0], [z0.copy()], z0.copy(), 0.0
    for _ in range(steps):
        k1 = f(z)
        k2 = f(z + 0.5 * hh * k1)
        k3 = f(z + 0.5 * hh * k2)
        k4 = f(z + hh * k3)
        z = z + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
        if np.linalg.norm(z[n:]) < XI_HALT:
            return np.array(ts), np.array(zs), True
        ts.append(t)
        zs.append(z.copy())
    return np.array(ts), np.array(zs), False


_XXI = SympySymbol(phase_symbols(1)[0][0] * phase_symbols(1)[1][0], 1, 2.0, label="x xi")


@pytest.mark.parametrize(
    "a, x0, xi0, T, h",
    [
        (catalog("gaussian_kdv"), [0.3], [1.0], 4.0, 0.005),
        (catalog("zk"), [0.1, -0.2], [1.0, 0.5], 1.0, 0.005),
        # xi(t) = e^{-t}: only the forward path falls below XI_HALT
        (_XXI, [0.5], [1.0], 20.0, 0.01),
    ],
    ids=["gaussian_kdv", "zk", "x_xi"],
)
def test_batched_march_matches_each_direction_bit_for_bit(a, x0, xi0, T, h, monkeypatch):
    z0 = np.concatenate([x0, xi0])
    tf, zf, trunc_f = _one_direction(a, z0, T, h, +1.0)
    tb, zb, trunc_b = _one_direction(a, z0, T, h, -1.0)
    calls = []
    monkeypatch.setattr(
        hamilton, "hamiltonian_field", lambda *args: calls.append(1) or hamiltonian_field(*args)
    )
    traj = integrate_bicharacteristic(a, np.array(x0), np.array(xi0), T, h)
    # one field call per RK4 stage serves both directions
    assert len(calls) == 4 * round(T / h)
    n = a.n
    z = np.concatenate([zb[::-1][:-1], zf])
    assert np.array_equal(traj.t, np.concatenate([tb[::-1][:-1], tf]))
    assert np.array_equal(traj.x, z[:, :n]) and np.array_equal(traj.xi, z[:, n:])
    assert (traj.truncated_forward, traj.truncated_backward) == (trunc_f, trunc_b)
    if a is _XXI:
        assert trunc_f and not trunc_b
        # |xi| = e^{-t} < 1e-6 from t = 13.8 on; the backward path runs to -T
        assert traj.t[-1] < 14.0 and np.isclose(traj.t[0], -T)


def test_qdelta_symbol_is_derived_from_sympy_only():
    f = FuncSymbol(lambda X, XI: XI[..., 0] ** 3, 1, 3.0)
    with pytest.raises(TypeError):
        qdelta_symbol(f, 0.5)
    # delta = 1 gives <xi>^{-2} x d_xi a = 3 x xi^2 / (1 + xi^2) for airy;
    # a normalization such as 54 scales the value outside the call
    q = qdelta_symbol(catalog("airy"), 1.0)
    assert np.isclose(54.0 * q.eval(1.0, 2.0).real.item(), 54.0 * 3 * 4 / 5, rtol=1e-14)


def test_integrate_airy_straight_line():
    traj = integrate_bicharacteristic(catalog("airy"), 0.0, 1.0, T=2.0, h=0.01)
    i_end = np.argmax(traj.t)
    assert abs(traj.t[i_end] - 2.0) < 1e-12
    assert abs(traj.x[i_end, 0] - 6.0) < 1e-10
    assert np.max(np.abs(traj.xi - 1.0)) < 1e-12
    assert traj.drift < 1e-12


def test_integrate_zk_straight_line():
    traj = integrate_bicharacteristic(catalog("zk"), np.zeros(2), np.array([1.0, 0.0]), T=1.0, h=0.01)
    i_end = np.argmax(traj.t)
    assert np.allclose(traj.x[i_end], [3.0, 0.0], atol=1e-10)


def test_integrate_gaussian_kdv_fine_step_reference():
    a = catalog("gaussian_kdv", eps=0.3)
    coarse = integrate_bicharacteristic(a, 0.3, 1.0, T=5.0, h=0.02)
    fine = integrate_bicharacteristic(a, 0.3, 1.0, T=5.0, h=0.002)
    ic, it = np.argmax(coarse.t), np.argmax(fine.t)
    assert abs(coarse.x[ic, 0] - fine.x[it, 0]) < 1e-6
    assert abs(coarse.xi[ic, 0] - fine.xi[it, 0]) < 1e-8


def test_integrate_rejects_zero_frequency():
    with pytest.raises(ValueError):
        integrate_bicharacteristic(catalog("airy"), 0.0, 0.0, T=1.0, h=0.01)


def test_drift_fourth_order_halving():
    # conservation drift scales O(h^4): halving h cuts it by a factor in [12, 20]
    a = catalog("gaussian_kdv", eps=0.05)
    d1 = integrate_bicharacteristic(a, 0.5, 1.2, T=3.0, h=0.08).drift
    d2 = integrate_bicharacteristic(a, 0.5, 1.2, T=3.0, h=0.04).drift
    assert 12.0 <= d1 / d2 <= 20.0


def test_classify_strong_ellipticity_airy():
    a = catalog("airy")
    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=2.0, h=0.01)
    cls = classify_strong_ellipticity(a, traj)
    assert cls.ok and np.isclose(cls.C, 1.0, rtol=1e-10)


def test_classify_strong_ellipticity_zk_elliptic_start():
    a = catalog("zk")
    traj = integrate_bicharacteristic(a, np.zeros(2), np.array([1.0, 0.0]), T=1.0, h=0.01)
    cls = classify_strong_ellipticity(a, traj)
    assert cls.ok and np.isclose(cls.C, 1.0, rtol=1e-10)


def test_classify_rejects_characteristic_start():
    # zk at xi = (0, 1): a_m = 0, not on the elliptic co-sphere; reported, not raised
    a = catalog("zk")
    traj = integrate_bicharacteristic(a, np.zeros(2), np.array([0.0, 1.0]), T=1.0, h=0.01)
    cls = classify_strong_ellipticity(a, traj)
    assert not cls.ok and "co-sphere" in cls.reason


def test_trapping_probe_airy_escape_time():
    v = trapping_probe(catalog("airy"), 0.0, 1.0, R=10.0, T_max=5.0, h=0.01)
    assert v.verdict == "nontrapped_both"
    assert abs(v.forward_escape_time - 10.0 / 3.0) < 1e-6
    assert abs(v.backward_escape_time - (-10.0 / 3.0)) < 1e-6


def test_trapping_probe_inconclusive_within_horizon():
    v = trapping_probe(catalog("airy"), 0.0, 1.0, R=10.0, T_max=1.0, h=0.01)
    assert v.verdict == "inconclusive"
    assert v.forward_escape_time is None and v.backward_escape_time is None


def test_trapping_probe_monotone_in_horizon():
    # enlarging the horizon never flips nontrapped -> inconclusive
    a = catalog("gaussian_kdv", eps=0.05)
    verdicts = []
    for T in (1.0, 2.0, 4.0):
        verdicts.append(trapping_probe(a, 0.0, 1.0, R=8.0, T_max=T, h=0.01).nontrapped)
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later or not earlier


def test_escape_verdict_reuses_trajectory():
    a = catalog("gaussian_kdv", eps=0.05)
    traj = integrate_bicharacteristic(a, 0.0, 1.0, 4.0, 0.01)
    assert escape_verdict(traj, 8.0) == trapping_probe(a, 0.0, 1.0, R=8.0, T_max=4.0, h=0.01)


@pytest.mark.parametrize(
    "speed, verdict, forward, backward",
    [((20.0, 0.0), "forward_nontrapped", 0.5, None), ((0.0, 20.0), "backward_nontrapped", None, -0.5)],
    ids=["forward", "backward"],
)
def test_escape_verdict_one_sided(speed, verdict, forward, backward):
    # a synthetic path on t in [-1, 1] that leaves |x| < 10 in one direction
    # only: |x| = 20 t forward or 20 |t| backward, and 0 the other way
    t = np.linspace(-1.0, 1.0, 41)
    x = np.where(t >= 0, speed[0] * t, -speed[1] * t)[:, None]
    traj = Trajectory(t=t, x=x, xi=np.ones_like(x), drift=0.0, xi_min=1.0, xi_max=1.0)
    v = escape_verdict(traj, 10.0)
    assert v.verdict == verdict and v.nontrapped
    for got, want in ((v.forward_escape_time, forward), (v.backward_escape_time, backward)):
        assert got is None if want is None else abs(got - want) < 1e-8


def test_qdelta_airy_hand_values():
    # delta = 1: q_delta = 3 x xi^2 / (1 + xi^2); along the flow from (0, 1):
    # H q_delta = 9 xi^4/(1+xi^2) = 4.5, so q_delta(t) = 4.5 t exactly
    a = catalog("airy")
    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=2.0, h=0.01)
    rep = qdelta_monotonicity(a, traj, delta=1.0)
    assert rep.identity_rel_error < 1e-10
    fwd = rep.q_values
    assert np.max(np.abs(fwd - 4.5 * rep.t)) < 1e-9
    assert np.isclose(rep.mu, 4.5, rtol=1e-9)


def test_qdelta_values_formula():
    a = catalog("airy")
    x, xi = 2.0, 3.0
    got = qdelta_values(a, x, xi, 0.5).item()
    expect = (0.5 + xi**2) ** (-1.0) * x * 3 * xi**2
    assert np.isclose(got, expect, rtol=1e-12)


def test_qdelta_identity_constant_xi_flow():
    # constant-coefficient flow: xi frozen, identity exact to quadrature tolerance
    a = catalog("zk")
    traj = integrate_bicharacteristic(a, np.zeros(2), np.array([1.0, 0.5]), T=1.0, h=0.005)
    rep = qdelta_monotonicity(a, traj, delta=0.3)
    assert rep.identity_rel_error < 1e-10


def test_qdelta_gaussian_kdv_positive_growth():
    a = catalog("gaussian_kdv", eps=0.05)
    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=4.0, h=0.005)
    cls = classify_strong_ellipticity(a, traj)
    assert cls.ok
    rep = qdelta_monotonicity(a, traj, delta=0.5)
    assert rep.identity_rel_error < 1e-6
    assert rep.mu > 0


def test_qdelta_rejects_bad_delta():
    a = catalog("airy")
    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=1.0, h=0.01)
    with pytest.raises(ValueError):
        qdelta_monotonicity(a, traj, delta=2.0)


def test_trajectory_csv_export(tmp_path):
    a = catalog("airy")
    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=1.0, h=0.1)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(path, traj, a, delta=1.0)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,x1,xi1,a_m,q_delta"
    assert len(rows) == traj.t.size + 1
    # the same bytes as csv.writer, row by row
    ref = tmp_path / "ref.csv"
    a_vals = np.real(a.eval(traj.x, traj.xi))
    q_vals = qdelta_values(a, traj.x, traj.xi, 1.0)
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "xi1", "a_m", "q_delta"])
        for i in range(traj.t.size):
            w.writerow([traj.t[i], *traj.x[i], *traj.xi[i], a_vals[i], q_vals[i]])
    assert path.read_bytes() == ref.read_bytes()
