"""Nonlinearity evaluation, X-norm, Picard iteration, direct cross-checks."""

import hashlib

import numpy as np
import pytest

from weylab import nonlinear
from weylab.calculus import EvolutionOperator
from weylab.evolve import (
    WrapGuardError,
    _stored_steps,
    build_evolution_operator,
    lawson_stepper,
    solve_linear,
    wrap_guard,
)
from weylab.grid import (
    LAM_EXPONENT,
    Field,
    Grid,
    gaussian_wavepacket,
    l2_norm,
    lam,
    make_grid,
    sobolev_norm,
    tail_mass_fraction,
    weighted_pairing,
)
from weylab.nonlinear import (
    NonlinearitySpec,
    PicardDivergenceError,
    _chunks,
    _direct_forcing,
    _frozen_forcing,
    _monomial,
    _Nonlinearity,
    _xi_alpha,
    _XtsReducer,
    direct_nonlinear_solve,
    nonlinearity_eval,
    picard_solve,
)
from weylab.symbol import SympySymbol, catalog

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

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


@pytest.mark.parametrize("alpha", [(-1,), (2, -1), (-1, -2)])
def test_spec_refuses_negative_alpha(alpha):
    # a negative entry used to reach the step rule as an infinite multiplier
    # and surface as "violates the stability bound 0"
    with pytest.raises(ValueError, match="alpha"):
        NonlinearitySpec(1, 0, alpha)


def test_nonlinearity_zero_field(setup):
    g, _, _ = setup
    out = nonlinearity_eval(Field.zero(g), SPEC)
    assert np.max(np.abs(out.values)) == 0.0


def test_nonlinearity_plane_wave():
    # u = e^{ix}: D u = e^{ix}, so N = u D u = e^{2ix}
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(1j * x))
    out = nonlinearity_eval(u, SPEC)
    exact = Field.from_function(g, lambda x: np.exp(2j * x))
    assert np.max(np.abs(out.values - exact.values)) < 1e-13


def test_nonlinearity_frozen_vanishes_at_datum(setup):
    g, _, u0 = setup
    out, spare = np.empty((2, *g.shape), dtype=complex)
    _Nonlinearity(g, SPEC, _monomial(u0.values, 1, 0))(u0.values, out, spare)
    assert np.max(np.abs(out)) == 0.0


def test_nonlinearity_conjugate_power():
    g = make_grid(1, np.pi, 64)
    u = Field.from_function(g, lambda x: np.exp(1j * x))
    out = nonlinearity_eval(u, NonlinearitySpec(0, 1, (1,)))
    # conj(u) D u = e^{-ix} e^{ix} = 1
    assert np.max(np.abs(out.values - 1.0)) < 1e-13


# -- X_T^s norm --------------------------------------------------------------------


def _rhs(a, sol):
    """du/dt at every stored frame of a source-free solve, from the equation."""
    return 1j * EvolutionOperator(a, sol.grid).apply(sol.values)


def _xts(a, sol, s):
    """The four-term norm of a stored source-free solve, reduced one chunk
    of frames at a time."""
    reducer = _XtsReducer(sol.grid, s)
    rhs = _rhs(a, sol)
    for sl in _chunks(sol.grid, 0, len(sol.times)):
        reducer.add(sol.values[sl], rhs[sl])
    return reducer.norm(sol.times)


def test_xts_norm_zero(setup):
    g, a, _ = setup
    sol = solve_linear(a, Field.zero(g), T=0.01, dt=1e-3)
    out = _xts(a, sol, 15.0)
    assert out.value == 0.0


def test_xts_norm_stationary_zero_symbol(setup):
    # A = 0, N = 0: norm reduces to known closed form of the frozen datum
    g, _, u0 = setup
    zero = SympySymbol(0, 1, 0.0, zero_nyquist=False)
    T = 0.25
    sol = solve_linear(zero, u0, T=T, dt=0.025)  # no group speed: no horizon to pass
    out = _xts(zero, sol, 15.0)
    s = 15.0
    expect = (
        sobolev_norm(u0, s) ** 2
        + T * weighted_pairing(u0, lam, s + 1.0)
        + sobolev_norm(Field(g, u0.values / lam(g.x_radius)), s - 2 * 2 - 2) ** 2
    )
    assert np.isclose(out.value**2, expect, rtol=1e-7)
    assert out.terms["sup_weighted_dt_sq(s-2N-5)"] == 0.0


def test_xts_norm_reassembly_oracle(setup):
    # independent quadrature assembly of the four terms for an airy run
    g, a, u0 = setup
    sol = solve_linear(a, u0, T=0.05, dt=1e-3, store_stride=5)
    out = _xts(a, sol, 15.0)
    s = 15.0
    inv = 1.0 / lam(g.x_radius)
    rhs = _rhs(a, sol)
    sup_s2 = max(sobolev_norm(sol.field(i), s) ** 2 for i in range(len(sol.times)))
    wvals = [weighted_pairing(sol.field(i), lam, s + 1.0) for i in range(len(sol.times))]
    smooth = np.trapezoid(wvals, sol.times)
    low = max(
        sobolev_norm(Field(g, inv * sol.values[i]), s - 6.0) ** 2 for i in range(len(sol.times))
    )
    dtv = max(
        sobolev_norm(Field(g, inv * rhs[i]), s - 9.0) ** 2
        for i in range(len(sol.times))
    )
    assert np.isclose(out.value**2, sup_s2 + smooth + low + dtv, rtol=1e-12)


def _xts_terms_per_frame(g, times, fields, rhs_fields, s, decay_gate):
    """The four-term norm frame by frame through the per-Field functions."""
    N = LAM_EXPONENT
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
        sup_low = max(sup_low, sobolev_norm(wf, s - 2 * N - 2) ** 2)
        sup_low_alt = max(sup_low_alt, sobolev_norm(wf, s - 2 * N - 5) ** 2)
        sup_dt = max(sup_dt, sobolev_norm(Field(g, inv_lam * rhs), s - 2 * N - 5) ** 2)
    return {
        "sup_Hs_sq": sup_s2,
        "weighted_smoothing": float(np.trapezoid(weighted, times)),
        "sup_weighted_low_sq(s-2N-2)": sup_low,
        "sup_weighted_low_sq(s-2N-5)": sup_low_alt,
        "sup_weighted_dt_sq(s-2N-5)": sup_dt,
    }


def test_xts_reducer_takes_its_per_chunk_operands_once(setup, monkeypatch):
    # lam(|x|), its positivity check and the Bessel powers are taken when the
    # reducer is made, not for every chunk
    g, a, u0 = setup
    sol = solve_linear(a, u0, T=0.05, dt=1e-3, store_stride=5)
    rhs = _rhs(a, sol)
    calls, reads = [], []
    bessel = Grid.bessel_base
    monkeypatch.setattr(Grid, "bessel_base", property(lambda g: reads.append(1) or bessel.fget(g)))

    def counted(r):
        calls.append(1)
        return lam(r)

    monkeypatch.setattr(nonlinear, "lam", counted)
    reducer = _XtsReducer(g, 15.0)
    made = (len(calls), len(reads))
    for lo in range(len(sol.times)):
        reducer.add(sol.values[lo : lo + 1], rhs[lo : lo + 1])
    assert (len(calls), len(reads)) == made


@pytest.mark.parametrize("kind", ["physical", "difference"])
def test_xts_terms_stacked_match_per_frame(setup, kind):
    g, a, u0 = setup
    sol = solve_linear(a, u0, T=0.05, dt=1e-3, store_stride=5)
    values, rhs, gate = sol.values, _rhs(a, sol), 1e-6
    if kind == "difference":
        # a near-zero difference of two trajectories, normed without the gate
        pert = Field(g, u0.values * (1.0 + 1e-6 * np.exp(1j * g.x_mesh[..., 0])))
        other = solve_linear(a, pert, T=0.05, dt=1e-3, store_stride=5)
        values, rhs, gate = other.values - values, _rhs(a, other) - rhs, None
    ref = _xts_terms_per_frame(g, sol.times, values, rhs, 15.0, gate)
    # the reducer takes chunks of consecutive frames; how the frames are cut
    # into chunks does not move a bit
    outs = []
    for cuts in ([0, len(values)], [0, 3, 4, 7, len(values)], list(range(len(values) + 1))):
        reducer = _XtsReducer(g, 15.0, decay_gate=gate)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            reducer.add(values[lo:hi], rhs[lo:hi])
        outs.append(reducer.norm(sol.times))
    out = outs[0]
    assert all(o.terms == out.terms and o.value == out.value for o in outs)
    assert set(out.terms) == set(ref)
    for name, val in ref.items():
        assert val > 0
        assert abs(out.terms[name] - val) <= 1e-13 * val, name


def test_xts_norm_rejects_small_s(setup):
    g, _, _ = setup
    with pytest.raises(ValueError):
        _XtsReducer(g, 3.0)


# -- Picard ------------------------------------------------------------------------


def test_picard_zero_datum_fixed_point(setup):
    g, a, _ = setup
    run = picard_solve(a, Field.zero(g), SPEC, s=15.0, T=0.1, dt=1e-3)
    assert run.converged and run.iterations == 1
    assert max(np.max(np.abs(v)) for v in run.solution.values) == 0.0


def test_picard_small_datum_converges(setup):
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, T=0.1, tol=1e-8, dt=2e-4)
    assert run.converged
    assert all(r < 0.5 for r in run.contraction_factors)
    assert run.residual <= 1e-4


def test_picard_agrees_with_direct_integration(setup):
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, T=0.1, tol=1e-8, dt=2e-4)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1, dt=2e-4)
    agree = max(
        l2_norm(run.solution.field(i) - direct.field(i)) for i in range(len(direct.times))
    )
    assert agree <= 1e-4


def test_picard_matches_the_direct_solve_to_round_off(setup):
    # the frozen-datum iteration against the method-of-lines cross-check, at
    # the bound that held frozen against the plain Picard iteration
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, T=0.1, tol=1e-8, dt=2e-4)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1, dt=2e-4)
    agree = max(
        l2_norm(run.solution.field(i) - direct.field(i)) for i in range(len(direct.times))
    )
    assert agree <= 1e-8


def _criterion_9(T=0.1, p=1):
    g = make_grid(1, 20 * np.pi, 256)
    u0 = gaussian_wavepacket(g, 0.0, 8.0, amplitude=0.01)
    kw = dict(s=15.0, T=T, tol=1e-8, dt=2e-4)
    return catalog("airy"), u0, NonlinearitySpec(p, 0, (1,)), kw


def _ten_steps_peak(traced_peak, forcing_of):
    """The traced peak of steps 2-11 of the criterion-9 stepper with the
    forcing forcing_of(g, u0), and the bytes of its state; the first step,
    untraced, allocates the stepper's arrays."""
    a, u0, _, kw = _criterion_9()
    g, dt = u0.grid, kw["dt"]
    step = lawson_stepper(build_evolution_operator(a, g), dt, forcing_of(g, u0))
    uhat = step(g.fftn(u0.values), 0.0)

    def ten_steps():
        for k in range(1, 11):
            step(uhat, k * dt)

    return traced_peak(ten_steps, g), uhat.nbytes


def test_frozen_picard_steps_allocate_no_state_array(traced_peak):
    # the frozen forcing writes its transforms into its own buffer, allocated
    # with the stepper's arrays before the first step
    def frozen(g, u0):
        return _frozen_forcing(g, _monomial(u0.values, SPEC.p, SPEC.q), _xi_alpha(g, SPEC.alpha))

    peak, state = _ten_steps_peak(traced_peak, frozen)
    assert peak < state


def test_direct_nonlinear_steps_allocate_no_state_array(traced_peak):
    # the direct solve's forcing evaluates N(u) in buffers of its own
    peak, state = _ten_steps_peak(traced_peak, lambda g, u0: _direct_forcing(g, SPEC))
    assert peak < state


def _small_2d():
    # a coarse grid, so the residual is large: only the bits matter here
    g = make_grid(2, 8 * np.pi, 32)
    u0 = gaussian_wavepacket(g, [0.0, 0.0], 8.0, amplitude=0.5)
    kw = dict(s=15.0, T=0.05, tol=1e-8)
    return catalog("ultrahyperbolic", eps=0.3), u0, NonlinearitySpec(1, 1, (1, 0)), kw


# Taken with float.hex from the solve as it was before sweeps were built one
# chunk of frames at a time, when every series was one whole-trajectory stack;
# "frames" is the first 16 hex digits of the sha256 of frame 0, every
# stride-th frame and the last, for the stride given after the config: the
# frames that solve stored.
# Floor-level factors such as criterion 9's 0.364 are round-off noise, so any
# drift could cross the benchmark's rho < 0.5 check: the solve must not move
# a bit.
PICARD_GOLDEN = {
    "criterion-9": (
        _criterion_9,
        8,
        5,
        ["0x1.07b551aacf167p-9", "0x1.b3574ad1b7e29p-6", "0x1.74a9de20a11fcp-2",
         "0x1.004f4337eadd5p-13"],
        ["0x1.635837b81e7dep+1", "0x1.6358364a4d0cep+1", "0x1.6358364a8a828p+1",
         "0x1.6358364a89249p+1", "0x1.6358364a89249p+1"],
        "0x1.5e38357d260cbp-14",
        "78620b72988c3e85",
    ),
    "p2-q0": (
        lambda: _criterion_9(p=2),
        8,
        3,
        ["0x1.4dd5788d75127p-11", "0x1.2d7c66a5c49d2p-18"],
        ["0x1.62ea914c6dd14p+1", "0x1.62ea914bbde02p+1", "0x1.62ea914bbd1e3p+1"],
        "0x1.01e78de7b530ap-12",
        "6577e9774ffcf1f7",
    ),
    "2d-p1-q1": (
        _small_2d,
        1,
        3,
        ["0x1.9883be60a8d5cp-16", "0x1.f1b1a441d137ap-15"],
        ["0x1.192c6f877dbbep+12", "0x1.192c6f877de37p+12", "0x1.192c6f877de39p+12"],
        "0x1.0ea7c53d48e52p+8",
        "88055a9ae8c74863",
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", list(PICARD_GOLDEN))
def test_picard_golden_bits(case):
    config, stride, iterations, rhos, history, residual, frames = PICARD_GOLDEN[case]
    a, u0, spec, kw = config()
    run = picard_solve(a, u0, spec, **kw)
    stored = run.solution.values[_stored_steps(len(run.solution.times) - 1, stride)]
    assert run.converged and run.iterations == iterations
    assert [float(r).hex() for r in run.contraction_factors] == rhos
    assert [float(x).hex() for x in run.xts_history] == history
    assert float(run.residual).hex() == residual
    assert hashlib.sha256(stored.tobytes()).hexdigest()[:16] == frames


@pytest.mark.parametrize("T", [0.1, 0.2])
def test_picard_memory_is_three_stacks_and_chunks(T, traced_peak):
    # the solve keeps W(t) u0, the iterate and its nonlinearity, each one
    # (steps + 1, N) stack, plus a fixed number of chunks of frames, so the
    # bound in stacks holds at any T
    a, u0, spec, kw = _criterion_9(T)
    picard_solve(a, u0, spec, **{**kw, "T": 0.01})  # fills the grid's and the symbol's caches
    stack = (round(T / kw["dt"]) + 1) * u0.values.nbytes
    assert traced_peak(lambda: picard_solve(a, u0, spec, **kw), u0.grid) <= 4 * stack


def test_picard_divergence_abort(setup):
    g, a, _ = setup
    u_big = Field.from_function(g, lambda x: 100.0 * np.exp(-(x**2) / 8))
    with pytest.raises(PicardDivergenceError):
        picard_solve(a, u_big, SPEC, s=15.0, T=0.1, dt=2e-4)


def test_picard_contraction_improves_with_smaller_T(setup):
    g, a, _ = setup
    u0 = Field.from_function(g, lambda x: 0.5 * np.exp(-(x**2) / 8))
    rhos = []
    for T in (0.1, 0.05, 0.025):
        run = picard_solve(a, u0, SPEC, s=15.0, T=T, tol=1e-12, dt=2e-4)
        rhos.append(run.contraction_factors[0])
    assert rhos[0] > rhos[1] > rhos[2]


def test_picard_datum_continuity(setup):
    g, a, u0 = setup
    pert = Field.from_function(g, lambda x: np.exp(-(x**2) / 6) * np.exp(1j * x))
    kw = dict(s=15.0, T=0.05, tol=1e-10, dt=2e-4)
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
        picard_solve(a, u0, SPEC, s=15.0, T=T, dt=2e-4)
    with pytest.raises(WrapGuardError):
        direct_nonlinear_solve(a, u0, SPEC, T=T, dt=2e-4)
    # a plane wave has no horizon: the guard never refuses its direct solve
    plane = Field.from_function(g, lambda x: 0.01 * np.exp(1j * x))
    assert wrap_guard(a, plane).horizon is None
    sol = direct_nonlinear_solve(a, plane, SPEC, T=T, dt=T / 8)
    assert np.isclose(sol.times[-1], T) and np.all(np.isfinite(sol.final.values))


def test_nonlinear_solves_share_the_step_rule(setup):
    # an explicit dt is never exceeded: T = 0.1 at dt = 0.0096 takes 11 steps,
    # not 10 steps of 0.01
    g, a, u0 = setup
    run = picard_solve(a, u0, SPEC, s=15.0, T=0.1, dt=0.0096)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1, dt=0.0096)
    for sol in (run.solution, direct):
        assert len(sol.times) == 12 and sol.dt == 0.1 / 11
    # a picked dt: both solves step the same forcing, so the clock gives
    # them one dt and one step count
    run = picard_solve(a, u0, SPEC, s=15.0, T=0.1)
    direct = direct_nonlinear_solve(a, u0, SPEC, T=0.1)
    assert run.solution.dt == direct.dt
    assert len(run.solution.times) == len(direct.times)
    assert run.solution.step_bound == direct.step_bound == "clock"
    # and a dt beyond the stability bound is refused, as in solve_linear
    bumpy = catalog("gaussian_kdv", eps=0.5)
    with pytest.raises(ValueError, match="stability"):
        picard_solve(bumpy, u0, SPEC, s=15.0, T=0.1, dt=0.05)
    with pytest.raises(ValueError, match="stability"):
        direct_nonlinear_solve(bumpy, u0, SPEC, T=0.1, dt=0.05)


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("solve", ["linear-picked", "linear-given"])
def test_every_solve_names_a_bad_store_stride(setup, solve, stride):
    # a stride below 1 is refused by name before any step; it used to surface
    # as ZeroDivisionError, IndexError or range()'s "arg 3 must not be zero".
    # The nonlinear solves take no stride: they keep every frame
    g, a, u0 = setup
    calls = {
        "linear-picked": lambda: solve_linear(a, u0, T=0.1, store_stride=stride),
        "linear-given": lambda: solve_linear(a, u0, T=0.1, dt=1e-3, store_stride=stride),
    }
    with pytest.raises(ValueError, match="store_stride must be a positive integer"):
        calls[solve]()


def test_picard_rejects_delocalized_datum(setup):
    g, a, _ = setup
    plane = Field.from_function(g, lambda x: np.exp(1j * x))
    with pytest.raises(ValueError):
        picard_solve(a, plane, SPEC, s=15.0, T=0.05)


def test_picard_warns_below_regularity_floor(setup):
    g, a, u0 = setup
    with pytest.warns(UserWarning):
        picard_solve(a, u0, SPEC, s=10.0, T=0.02, dt=1e-3)
