"""Nonlinearity evaluation, X-norm, Picard iteration, direct cross-checks."""

import tracemalloc

import numpy as np
import pytest

from weylab.evolve import WrapGuardError, build_evolution_operator, lawson_stepper, wrap_guard
from weylab.grid import (
    Field,
    gaussian_wavepacket,
    l2_norm,
    make_grid,
    sobolev_norm,
    tail_mass_fraction,
    weighted_pairing,
)
from weylab.nonlinear import (
    NonlinearitySpec,
    PicardDivergenceError,
    _frozen_forcing,
    _monomial,
    _xi_alpha,
    _xts_terms,
    direct_nonlinear_solve,
    nonlinearity_eval,
    picard_solve,
    xts_norm,
)
from weylab.symbol import catalog
from weylab.weights import WeightFn

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

LAM = WeightFn(2)
SPEC = NonlinearitySpec(1, 0, (1,))


@pytest.fixture(scope="module")
def setup():
    g = make_grid(1, 20 * np.pi, 256)
    a = catalog("airy")
    u0 = Field.from_function(g, lambda x: 0.01 * np.exp(-(x**2) / 8))
    return g, a, u0


# -- nonlinearity -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec(0, 0, (1,))
    with pytest.raises(ValueError):
        NonlinearitySpec(1, 0, (3,))
    with pytest.raises(ValueError):
        NonlinearitySpec(-1, 0, (1,))


def test_nonlinearity_zero_field(setup):
    g, _, _ = setup
    out = nonlinearity_eval(Field.zero(g), SPEC)
    assert np.max(np.abs(out.values)) == 0.0


def test_nonlinearity_plane_wave():
    # u = e^{ix}: D u = e^{ix}, so N = u D u = e^{2ix}
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(1j * x))
    out = nonlinearity_eval(u, SPEC, dealias=False)
    exact = Field.from_function(g, lambda x: np.exp(2j * x))
    assert np.max(np.abs(out.values - exact.values)) < 1e-13


def test_nonlinearity_frozen_vanishes_at_datum(setup):
    g, _, u0 = setup
    out = nonlinearity_eval(u0, SPEC, u0, frozen=True)
    assert np.max(np.abs(out.values)) == 0.0


def test_nonlinearity_conjugate_power():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(1j * x))
    out = nonlinearity_eval(u, NonlinearitySpec(0, 1, (1,)), dealias=False)
    # conj(u) D u = e^{-ix} e^{ix} = 1
    assert np.max(np.abs(out.values - 1.0)) < 1e-13


# -- X_T^s norm --------------------------------------------------------------------


def test_xts_norm_zero(setup):
    g, a, _ = setup
    from weylab.evolve import solve_linear

    sol = solve_linear(a, Field.zero(g), T=0.01, dt=1e-3)
    out = xts_norm(sol, 15.0, LAM, 2)
    assert out.value == 0.0


def test_xts_norm_stationary_zero_symbol(setup):
    # A = 0, N = 0: norm reduces to known closed form of the frozen datum
    g, _, u0 = setup
    from weylab.symbol import zero_symbol
    from weylab.evolve import solve_linear

    T = 0.25
    sol = solve_linear(zero_symbol(1), u0, T=T, dt=0.025, enforce_wrap_guard=False)
    out = xts_norm(sol, 15.0, LAM, 2)
    s = 15.0
    from weylab.grid import weighted_pairing

    expect = (
        sobolev_norm(u0, s) ** 2
        + T * weighted_pairing(u0, LAM, s + 1.0)
        + sobolev_norm(Field(g, u0.values / LAM(g.x_radius)), s - 2 * 2 - 2) ** 2
    )
    assert np.isclose(out.value**2, expect, rtol=1e-7)
    assert out.terms["sup_weighted_dt_sq(s-2N-5)"] == 0.0


def test_xts_norm_reassembly_oracle(setup):
    # independent quadrature assembly of the four terms for an airy run
    g, a, u0 = setup
    from weylab.evolve import solve_linear
    from weylab.grid import weighted_pairing

    sol = solve_linear(a, u0, T=0.05, dt=1e-3, store_stride=5)
    out = xts_norm(sol, 15.0, LAM, 2)
    s = 15.0
    inv = 1.0 / LAM(g.x_radius)
    sup_s2 = max(sobolev_norm(sol.field(i), s) ** 2 for i in range(len(sol.times)))
    wvals = [weighted_pairing(sol.field(i), LAM, s + 1.0) for i in range(len(sol.times))]
    smooth = np.trapezoid(wvals, sol.times)
    low = max(
        sobolev_norm(Field(g, inv * sol.values[i]), s - 6.0) ** 2 for i in range(len(sol.times))
    )
    dtv = max(
        sobolev_norm(Field(g, inv * sol.rhs_field(i).values), s - 9.0) ** 2
        for i in range(len(sol.times))
    )
    assert np.isclose(out.value**2, sup_s2 + smooth + low + dtv, rtol=1e-12)


def _xts_terms_per_frame(g, times, fields, rhs_fields, s, lam, N_w, decay_gate):
    """The four-term norm frame by frame through the per-Field functions."""
    inv_lam = 1.0 / lam(g.x_radius)
    sup_s2 = sup_low = sup_low_alt = sup_dt = 0.0
    weighted = []
    for vals, rhs in zip(fields, rhs_fields):
        f = Field(g, vals)
        if (
            decay_gate is not None
            and np.max(np.abs(vals)) > 0
            and tail_mass_fraction(f, g.L / 2.0) > decay_gate
        ):
            raise ValueError("field mass leaks outside |x| <= L/2")
        sup_s2 = max(sup_s2, sobolev_norm(f, s) ** 2)
        weighted.append(weighted_pairing(f, lam, s + 1.0))
        wf = Field(g, inv_lam * vals)
        sup_low = max(sup_low, sobolev_norm(wf, s - 2 * N_w - 2) ** 2)
        sup_low_alt = max(sup_low_alt, sobolev_norm(wf, s - 2 * N_w - 5) ** 2)
        sup_dt = max(sup_dt, sobolev_norm(Field(g, inv_lam * rhs), s - 2 * N_w - 5) ** 2)
    return {
        "sup_Hs_sq": sup_s2,
        "weighted_smoothing": float(np.trapezoid(weighted, times)),
        "sup_weighted_low_sq(s-2N-2)": sup_low,
        "sup_weighted_low_sq(s-2N-5)": sup_low_alt,
        "sup_weighted_dt_sq(s-2N-5)": sup_dt,
    }


@pytest.mark.parametrize("kind", ["physical", "difference"])
def test_xts_terms_stacked_match_per_frame(setup, kind):
    g, a, u0 = setup
    from weylab.evolve import solve_linear

    sol = solve_linear(a, u0, T=0.05, dt=1e-3, store_stride=5)
    values, rhs, gate = sol.values, sol.rhs_values(), 1e-6
    if kind == "difference":
        # a near-zero difference of two trajectories, normed without the gate
        pert = Field(g, u0.values * (1.0 + 1e-6 * np.exp(1j * g.x_mesh[..., 0])))
        other = solve_linear(a, pert, T=0.05, dt=1e-3, store_stride=5)
        values, rhs, gate = other.values - values, other.rhs_values() - rhs, None
    out = _xts_terms(g, sol.times, values, rhs, 15.0, LAM, 2, decay_gate=gate)
    ref = _xts_terms_per_frame(g, sol.times, values, rhs, 15.0, LAM, 2, gate)
    assert set(out.terms) == set(ref)
    for name, val in ref.items():
        assert val > 0
        assert abs(out.terms[name] - val) <= 1e-13 * val, name


def test_xts_norm_rejects_small_s(setup):
    g, a, u0 = setup
    from weylab.evolve import solve_linear

    sol = solve_linear(a, u0, T=0.01, dt=1e-3)
    with pytest.raises(ValueError):
        xts_norm(sol, 3.0, LAM, 2)


# -- Picard ------------------------------------------------------------------------


def test_picard_zero_datum_fixed_point(setup):
    g, a, _ = setup
    run = picard_solve(a, Field.zero(g), SPEC, s=15.0, lam=LAM, T=0.1, dt=1e-3)
    assert run.converged and run.iterations == 1
    assert max(np.max(np.abs(v)) for v in run.solution.values) == 0.0


def test_picard_small_datum_converges(setup):
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, lam=LAM, T=0.1, tol=1e-8, dt=2e-4, store_stride=8)
    assert run.converged
    assert all(r < 0.5 for r in run.contraction_factors)
    assert run.residual <= 1e-4


def test_picard_agrees_with_direct_integration(setup):
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, lam=LAM, T=0.1, tol=1e-8, dt=2e-4, store_stride=8)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1, dt=2e-4, store_stride=8)
    agree = max(
        l2_norm(run.solution.field(i) - direct.field(i)) for i in range(len(direct.times))
    )
    assert agree <= 1e-4


def test_picard_frozen_equivalence(setup):
    g, a, u0 = setup
    kw = dict(s=15.0, lam=LAM, T=0.1, tol=1e-8, dt=2e-4, store_stride=8)
    run_f = picard_solve(a, u0, SPEC, frozen=True, **kw)
    run_p = picard_solve(a, u0, SPEC, frozen=False, **kw)
    agree = max(
        l2_norm(run_f.solution.field(i) - run_p.solution.field(i))
        for i in range(len(run_f.solution.times))
    )
    assert agree <= 1e-8


def test_frozen_picard_steps_allocate_no_state_array():
    # the criterion-9 frozen step (airy, u0 = 0.01 e^{-x^2/8}, dt = 2e-4): the
    # forcing writes its transforms into its own buffer, allocated with the
    # stepper's arrays before the first step
    g = make_grid(1, 20 * np.pi, 256)
    u0 = gaussian_wavepacket(g, [0.0], 8.0, 0.01)
    dt = 2e-4
    forcing = _frozen_forcing(g, _monomial(u0.values, SPEC.p, SPEC.q), _xi_alpha(g, SPEC.alpha))
    step = lawson_stepper(build_evolution_operator(catalog("airy"), g), dt, forcing)
    uhat = step(g.fftn(u0.values), 0.0)
    # scipy.fft keeps about 9 KiB of small objects over its first ~80 calls
    # with overwrite_x in a process, more than this 4 KiB state: make them
    # before tracing
    scratch = uhat.copy()
    for _ in range(100):
        g.fftn(scratch, overwrite_x=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for k in range(1, 11):
            uhat = step(uhat, k * dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < uhat.nbytes


def test_picard_divergence_abort(setup):
    g, a, _ = setup
    u_big = Field.from_function(g, lambda x: 100.0 * np.exp(-(x**2) / 8))
    with pytest.raises(PicardDivergenceError):
        picard_solve(a, u_big, SPEC, s=15.0, lam=LAM, T=0.1, dt=2e-4)


def test_picard_contraction_improves_with_smaller_T(setup):
    g, a, _ = setup
    u0 = Field.from_function(g, lambda x: 0.5 * np.exp(-(x**2) / 8))
    rhos = []
    for T in (0.1, 0.05, 0.025):
        run = picard_solve(a, u0, SPEC, s=15.0, lam=LAM, T=T, tol=1e-12, dt=2e-4, max_iter=14)
        rhos.append(run.contraction_factors[0])
    assert rhos[0] > rhos[1] > rhos[2]


def test_picard_datum_continuity(setup):
    g, a, u0 = setup
    pert = Field.from_function(g, lambda x: np.exp(-(x**2) / 6) * np.exp(1j * x))
    kw = dict(s=15.0, lam=LAM, T=0.05, tol=1e-10, dt=2e-4, store_stride=8)
    run0 = picard_solve(a, u0, SPEC, **kw)
    ratios = []
    for delta in (1e-3, 5e-4, 2.5e-4):
        und = Field(g, u0.values + delta * pert.values)
        rund = picard_solve(a, und, SPEC, **kw)
        change = max(
            l2_norm(rund.solution.field(i) - run0.solution.field(i))
            for i in range(len(run0.solution.times))
        )
        ratios.append(change / delta)
    assert max(ratios) / min(ratios) < 3.0


def test_nonlinear_solves_refuse_beyond_wrap_horizon(setup):
    # both solves check the wrap guard before stepping (horizon ~0.95 here)
    g, a, u0 = setup
    T = 1.5 * wrap_guard(a, u0).horizon
    with pytest.raises(WrapGuardError):
        picard_solve(a, u0, SPEC, s=15.0, lam=LAM, T=T, dt=2e-4)
    with pytest.raises(WrapGuardError):
        direct_nonlinear_solve(a, u0, SPEC, T=T, dt=2e-4)


def test_nonlinear_solves_share_the_step_rule(setup):
    # an explicit dt is never exceeded: T = 0.1 at dt = 0.0096 takes 11 steps,
    # not 10 steps of 0.01
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, lam=LAM, T=0.1, dt=0.0096, max_iter=2)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1, dt=0.0096)
    for sol in (run.solution, direct):
        assert len(sol.times) == 12 and sol.dt == 0.1 / 11
    # and a dt beyond the stability bound is refused, as in solve_linear
    bumpy = catalog("gaussian_kdv", eps=0.5)
    with pytest.raises(ValueError, match="stability"):
        picard_solve(bumpy, u0, SPEC, s=15.0, lam=LAM, T=0.1, dt=0.05)
    with pytest.raises(ValueError, match="stability"):
        direct_nonlinear_solve(bumpy, u0, SPEC, T=0.1, dt=0.05)


def test_picard_rejects_delocalized_datum(setup):
    g, a, _ = setup
    plane = Field.from_function(g, lambda x: np.exp(1j * x))
    with pytest.raises(ValueError):
        picard_solve(a, plane, SPEC, s=15.0, lam=LAM, T=0.05)


def test_picard_warns_below_regularity_floor(setup):
    g, a, u0 = setup
    with pytest.warns(UserWarning):
        picard_solve(a, u0, SPEC, s=10.0, lam=LAM, T=0.02, dt=1e-3)
