"""Linear IVP solver, wrap guard, smoothing reports, weighted propagator probe."""

from dataclasses import dataclass, field, replace

import numpy as np
import pytest
import sympy as sp

from weylab import calculus, evolve
from weylab.calculus import EvolutionOperator, apply_fast, quantize_dense
from weylab.evolve import (
    ESTIMATES,
    WRAP_MARGIN,
    NormSeries,
    SmoothingSeries,
    WrapGuardError,
    _active_cap,
    build_evolution_operator,
    lawson_stepper,
    smoothing_report,
    solve_linear,
    weighted_propagator_probe,
    wrap_guard,
)
from weylab.grid import (
    Field,
    Grid,
    SpectralField,
    gaussian_wavepacket,
    inverse,
    l2_norm,
    lam,
    make_grid,
    sobolev_norm,
    transform,
    weighted_pairing,
)
from weylab.symbol.catalog import catalog
from weylab.symbol.core import SympySymbol, phase_symbols
from weylab.symbol.kdv import VectorFieldSystem, build_kdv_type


def airy_packet(g, k=4.0, width2=8.0):
    return Field.from_function(g, lambda x: np.exp(1j * k * x) * np.exp(-(x**2) / width2))


def _unguarded(a, u0, f=None):
    """The wrap guard of (a, u0, f) without its horizon: a solve given it
    runs past T_wrap."""
    return replace(wrap_guard(a, u0, f), horizon=None)


# -- dispersion and conservation ---------------------------------------------------


def test_airy_plane_wave_dispersion_rk4():
    g = make_grid(1, np.pi, 128)
    u0 = Field.from_function(g, lambda x: np.exp(4j * x))
    sol = solve_linear(catalog("airy"), u0, T=0.1, scheme="rk4")
    exact = Field.from_function(g, lambda x: np.exp(1j * (4 * x + 64 * sol.times[-1])))
    assert l2_norm(sol.final - exact) / l2_norm(exact) <= 1e-6


def test_airy_plane_wave_dispersion_integrating_factor():
    g = make_grid(1, np.pi, 128)
    u0 = Field.from_function(g, lambda x: np.exp(4j * x))
    sol = solve_linear(catalog("airy"), u0, T=0.1, scheme="if_rk4")
    exact = Field.from_function(g, lambda x: np.exp(1j * (4 * x + 64 * sol.times[-1])))
    assert l2_norm(sol.final - exact) / l2_norm(exact) <= 1e-12


def test_l2_conservation_real_symbol():
    g = make_grid(1, 40 * np.pi, 1024)
    u0 = airy_packet(g, k=1.0)
    norms = NormSeries(g)
    solve_linear(catalog("gaussian_kdv", eps=0.05), u0, T=1.0, store_stride=8, consume=norms)
    assert norms.l2_drift() <= 1e-6


def test_rk4_step_halving_order():
    # endpoint error against a fine reference shrinks ~16x per halving
    g = make_grid(1, 20 * np.pi, 256)
    a = catalog("gaussian_kdv", eps=0.3)
    u0 = airy_packet(g, k=1.0, width2=4.0)
    fine = solve_linear(a, u0, T=0.3, dt=1e-3 / 8, scheme="if_rk4", store_stride=10**6)
    errs = []
    for dt in (4e-3, 2e-3):
        sol = solve_linear(a, u0, T=0.3, dt=dt, scheme="if_rk4", store_stride=10**6)
        errs.append(l2_norm(sol.final - fine.final))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@dataclass(frozen=True)
class CountingGrid(Grid):
    """Grid that records every transform made through its FFT seam."""

    transforms: list = field(default_factory=list, compare=False, repr=False)

    def fftn(self, values, *, overwrite_x=False):
        self.transforms.append("fftn")
        return super().fftn(values, overwrite_x=overwrite_x)

    def ifftn(self, values, *, overwrite_x=False):
        self.transforms.append("ifftn")
        return super().ifftn(values, overwrite_x=overwrite_x)


def _zk_packet(g):
    return gaussian_wavepacket(g, [1.0, 0.0], width2=4.0)


def test_pure_multiplier_matches_exact_propagator():
    # zk has no remainder: every stored frame is e^{i t a(xi)} uhat0 exactly
    g = make_grid(2, 8 * np.pi, 64)
    a = catalog("zk")
    u0 = _zk_packet(g)
    T, stride = 0.15, 5
    sol = solve_linear(a, u0, T=T, store_stride=stride)
    # the clock's MIN_STEPS steps make ceil(64 / 5) = 13 equal frame
    # intervals, and an exact step spans each
    frames = -(-evolve.MIN_STEPS // stride)
    assert (sol.steps, sol.step_bound, sol.step_error) == (frames, "stability", None)
    assert np.array_equal(sol.times, np.arange(frames + 1) * sol.dt)
    assert sol.times[-1] == pytest.approx(T, rel=1e-15)

    xi = g.xi_mesh.reshape(-1, 2)
    symbol = a.eval(np.zeros((1, 2)), xi).reshape(g.shape)
    symbol = np.where(g.nyquist_mask, 0.0, symbol)  # odd order: Nyquist zeroed
    uhat0 = transform(u0).coeffs
    for t, vals in zip(sol.times, sol.values):
        exact = inverse(SpectralField(g, np.exp(1j * t * symbol) * uhat0)).values
        assert np.linalg.norm(vals - exact) <= 1e-12 * np.linalg.norm(exact)


def test_pure_multiplier_transforms_independent_of_steps():
    # stepping a pure multiplier is a diagonal multiply; only set-up and stored
    # frames transform, however many steps are taken
    counts = []
    for steps, stride in ((64, 16), (256, 64)):
        g = CountingGrid(2, 8 * np.pi, 64)
        T = 0.15
        sol = solve_linear(catalog("zk"), _zk_packet(g), T=T, dt=T / steps, store_stride=stride)
        assert len(sol.times) == 5
        counts.append(len(g.transforms))
        assert counts[-1] <= len(sol.times) + 4
    assert counts[0] == counts[1]


def _remainder_reference(op, values):
    """(A - a0(D)) u on samples, term by term with numpy's FFT."""

    def G(v, gv):
        return np.fft.ifftn(np.fft.fftn(v) * gv)

    out = np.zeros(op.grid.shape, dtype=complex)
    for fv, gv in op.pairs:
        out += 0.5 * (fv * G(values, gv) + G(fv * values, gv))
    return out


def _real_split_outside_catalog():
    # real and x-dependent, no catalog entry: its split is derived from the
    # expression, so it evolves through symmetrized pairs
    xs, xis = phase_symbols(1)
    return SympySymbol((1 + 0.1 * sp.exp(-xs[0] ** 2)) * xis[0] ** 2, 1, 2.0)


def _complex_symbol():
    # complex and x-dependent: two pairs, symmetrized like real ones
    xs, xis = phase_symbols(1)
    bump = sp.exp(-xs[0] ** 2)
    return SympySymbol((1 + 0.1 * bump) * xis[0] ** 2 + 0.1 * sp.I * bump * xis[0], 1, 2.0)


def _two_pair_symbol():
    # (1 + 0.1 e^{-x^2}) xi^3 + 0.2 x e^{-x^2} xi: the multiplier xi^3 and two pairs
    xs, xis = phase_symbols(1)
    bump = sp.exp(-xs[0] ** 2)
    return SympySymbol((1 + 0.1 * bump) * xis[0] ** 3 + 0.2 * xs[0] * bump * xis[0], 1, 3.0)


_REMAINDER_CASES = [  # (symbol, grid)
    (lambda: catalog("gaussian_kdv", eps=0.3), (1, 10.0, 128)),
    (lambda: catalog("ultrahyperbolic", eps=0.3), (2, 4.0, 32)),
    (_real_split_outside_catalog, (1, 6.0, 48)),
    (_complex_symbol, (1, 6.0, 48)),
    (_two_pair_symbol, (1, 10.0, 128)),
]
_REMAINDER_IDS = ["gaussian_kdv", "ultrahyperbolic", "real-split", "complex", "two-pair"]


@pytest.mark.parametrize(
    "make_symbol, grid, stacked",
    [case + (False,) for case in _REMAINDER_CASES] + [case + (True,) for case in _REMAINDER_CASES],
    ids=_REMAINDER_IDS + [f"{name}-stack" for name in _REMAINDER_IDS],
)
def test_spectral_remainder_matches_physical_reference(make_symbol, grid, stacked):
    g = make_grid(*grid)
    op = build_evolution_operator(make_symbol(), g)
    assert op.pairs
    u = gaussian_wavepacket(g, [1.0] + [0.5] * (g.n - 1), width2=2.0).values
    if stacked:
        # leading axes index a stack: each array maps exactly as it does alone
        us = np.stack([u, 0.5j * np.conj(u), np.roll(u, 5, axis=-1)])
        got = op.apply_remainder(g.fftn(us))
        full = op.apply(us)
        for i, v in enumerate(us):
            assert np.array_equal(got[i], op.apply_remainder(g.fftn(v)))
            assert np.array_equal(full[i], op.apply(v))
        return
    ref = _remainder_reference(op, u)
    got = g.ifftn(op.apply_remainder(g.fftn(u)))
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    full = ref + (0 if op.multiplier is None else np.fft.ifftn(np.fft.fftn(u) * op.multiplier))
    assert np.linalg.norm(op.apply(u) - full) <= 1e-13 * np.linalg.norm(full)


def _kdv_type_symbol():
    # the complex kdv-type build: a split exists, so both tags apply it matrix-free
    xs, _ = phase_symbols(1)
    a = build_kdv_type(VectorFieldSystem(1, [[1 + sp.Rational(1, 10) * sp.exp(-xs[0] ** 2)]])).full
    assert not a.real_valued and a.split is not None
    return a


_KN_CASES = [  # (symbol, grid) applied with the KN tag
    (lambda: catalog("gaussian_kdv", eps=0.3), (1, 10.0, 128)),
    (lambda: catalog("ultrahyperbolic", eps=0.3), (2, 4.0, 32)),
    (_two_pair_symbol, (1, 10.0, 128)),
    (_kdv_type_symbol, (1, 10.0, 128)),
]
_KN_IDS = ["kn-gaussian_kdv", "kn-ultrahyperbolic", "kn-two-pair", "kn-kdv-type"]


def _per_pair_remainder(op, uhat):
    """apply_remainder as one transform pair per split pair, summed in the
    same order: what the stacked calls must reproduce bit for bit.  KN
    applies each pair as f G(u), Weyl as (f G(u) + G(f u))/2."""
    g = op.grid
    values = g.ifftn(uhat)
    phys = np.zeros_like(uhat)
    spec = np.zeros_like(uhat)
    for fv, gv in op.pairs:
        if op.tag == "kn":
            phys += fv * g.ifftn(uhat * gv)
            continue
        phys += 0.5 * fv * g.ifftn(uhat * gv)
        spec += 0.5 * gv * g.fftn(fv * values)
    return g.fftn(phys) + spec


@pytest.mark.parametrize(
    "make_symbol, grid, tag",
    [case + ("weyl",) for case in _REMAINDER_CASES] + [case + ("kn",) for case in _KN_CASES],
    ids=_REMAINDER_IDS + _KN_IDS,
)
def test_stacked_remainder_matches_per_pair_transforms_bit_for_bit(make_symbol, grid, tag):
    g = make_grid(*grid)
    op = EvolutionOperator(make_symbol(), g, tag)
    u = gaussian_wavepacket(g, [1.0] + [0.5] * (g.n - 1), width2=2.0).values
    us = np.stack([u, 0.5j * np.conj(u), np.roll(u, 5, axis=-1)])
    for v in (u, us):
        uhat = g.fftn(v)
        assert np.array_equal(op.apply_remainder(uhat), _per_pair_remainder(op, uhat))


_CALL_CASES = [  # (symbol, grid, pairs, transform calls of one remainder application)
    (lambda: catalog("airy"), (1, 10.0, 64), 0, []),
    (lambda: catalog("gaussian_kdv", eps=0.3), (1, 10.0, 128), 1, ["ifftn", "fftn"]),
    (_two_pair_symbol, (1, 10.0, 128), 2, ["ifftn", "fftn"]),
]
_CALL_IDS = ["multiplier", "one-pair", "two-pair"]


@pytest.mark.parametrize(
    "make_symbol, grid, pairs, calls, tag",
    [case + ("weyl",) for case in _CALL_CASES]
    + [(_complex_symbol, (1, 6.0, 48), 2, ["ifftn", "fftn"], "weyl")]
    + [case + ("kn",) for case in _CALL_CASES]
    + [(_kdv_type_symbol, (1, 10.0, 128), 10, ["ifftn", "fftn"], "kn")],
    ids=_CALL_IDS + ["complex"] + [f"kn-{name}" for name in _CALL_IDS] + ["kn-kdv-type"],
)
def test_remainder_makes_one_inverse_and_one_forward_call(make_symbol, grid, pairs, calls, tag):
    g = CountingGrid(*grid)
    op = EvolutionOperator(make_symbol(), g, tag)
    assert len(op.pairs) == pairs
    uhat = g.fftn(airy_packet(g).values)
    for v in (uhat, np.stack([uhat, 2.0 * uhat])):
        g.transforms.clear()
        op.apply_remainder(v)
        assert g.transforms == calls


def test_lawson_step_transforms():
    # four RK4 stages, each one remainder application of two calls
    g = CountingGrid(1, 10.0, 128)
    op = build_evolution_operator(catalog("gaussian_kdv", eps=0.05), g)
    uhat = g.fftn(airy_packet(g).values)
    g.transforms.clear()
    lawson_stepper(op, 1e-3)(uhat, 0.0)
    assert len(g.transforms) == 8
    # a pure multiplier with forcing steps the forcing alone: no transform,
    # and the forcing's array is never written to
    g = CountingGrid(1, 10.0, 64)
    op = build_evolution_operator(catalog("airy"), g)
    uhat = g.fftn(airy_packet(g).values)
    fhat = 0.1 * uhat
    kept = fhat.copy()
    g.transforms.clear()
    out = lawson_stepper(op, 1e-3, lambda u, t: fhat)(uhat, 0.0)
    assert g.transforms == [] and np.array_equal(fhat, kept)
    e_h = np.exp(0.5e-3j * op.multiplier)
    e_f = e_h * e_h
    ref = e_f * uhat + (1e-3 / 6.0) * (e_f * fhat + 4.0 * e_h * fhat + fhat)
    assert np.allclose(out, ref, rtol=1e-14, atol=0)


def _closure_stepper(op, dt, forcing=None, *, integrating_factor=True):
    """The closure-built Lawson stepper the buffered one replaced, kept as a
    reference: every stage expression makes fresh arrays."""
    mult = op.multiplier if integrating_factor else None
    stepped_mult = None if integrating_factor else op.multiplier
    if mult is None:
        e_h = e_f = 1.0
    else:
        e_h = np.exp(1j * mult * (dt / 2.0))
        e_f = e_h * e_h
    terms = []
    if op.pairs:
        terms.append(lambda uhat, t: 1j * op.apply_remainder(uhat))
    if stepped_mult is not None:
        terms.append(lambda uhat, t: 1j * stepped_mult * uhat)
    if forcing is not None:
        terms.append(forcing)
    if not terms:
        return lambda uhat, t: e_f * uhat
    first, *rest = terms

    def rhs(uhat, t):
        out = first(uhat, t)
        for term in rest:
            out += term(uhat, t)
        return out

    def step(u, t):
        a1 = rhs(u, t)
        a2 = rhs(e_h * (u + (dt / 2.0) * a1), t + dt / 2.0)
        a3 = rhs(e_h * u + (dt / 2.0) * a2, t + dt / 2.0)
        a4 = rhs(e_f * u + dt * e_h * a3, t + dt)
        return e_f * u + (dt / 6.0) * (e_f * a1 + 2.0 * e_h * (a2 + a3) + a4)

    return step


def _march_both(op, uhat, dt, steps, forcing=None, integrating_factor=True):
    """uhat after `steps` steps of the buffered and of the reference stepper."""
    step = lawson_stepper(op, dt, forcing, integrating_factor=integrating_factor)
    ref = _closure_stepper(op, dt, forcing, integrating_factor=integrating_factor)
    got, want = uhat.copy(), uhat.copy()
    for k in range(steps):
        got = step(got, k * dt)  # the step is handed its own last result
        want = ref(want, k * dt)
    return got, want


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
@pytest.mark.parametrize("symbol", ["gaussian_kdv", "airy"], ids=["pairs", "multiplier"])
@pytest.mark.parametrize("scheme", ["if_rk4", "rk4"])
def test_buffered_stepper_matches_closure_stepper_bit_for_bit_1d(scheme, symbol, forced):
    # 1D arrays are below numpy's 256 KiB elision threshold, so every product
    # of the reference runs in the order written, as in the buffered stepper
    g = make_grid(1, 10.0, 128)
    a = catalog(symbol, eps=0.3) if symbol == "gaussian_kdv" else catalog(symbol)
    op = build_evolution_operator(a, g)
    uhat = g.fftn(airy_packet(g).values)
    fhat = 0.1 * uhat
    forcing = (lambda u, t: fhat) if forced else None
    got, want = _march_both(op, uhat, 2e-4, 20, forcing, integrating_factor=scheme == "if_rk4")
    assert np.array_equal(got, want)


def test_buffered_stepper_matches_closure_stepper_2d():
    # above 256 KiB numpy swaps the operands of e_h * (u + dt/2 a1) in the
    # reference; the buffered stepper keeps the written order at every size
    g = make_grid(*UH_GRID)
    op = build_evolution_operator(catalog("ultrahyperbolic", eps=0.05), g)
    uhat = g.fftn(gaussian_wavepacket(g, [8.0, 0.0], width2=3.0).values)
    got, want = _march_both(op, uhat, 1e-3, 20)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("symbol", ["ultrahyperbolic", "zk"])
def test_lawson_steps_allocate_no_state_array(symbol, traced_peak):
    # the stepper and the operator's row stack are allocated by the first step;
    # the later steps run in that storage
    g = make_grid(2, 8 * np.pi, 64)
    a = catalog(symbol, eps=0.05) if symbol == "ultrahyperbolic" else catalog(symbol)
    op = build_evolution_operator(a, g)
    dt = 1e-3
    step = lawson_stepper(op, dt)
    uhat = step(g.fftn(_zk_packet(g).values), 0.0)

    def ten_steps():
        for k in range(1, 11):
            step(uhat, k * dt)

    assert traced_peak(ten_steps, g) < uhat.nbytes


def test_unknown_scheme_is_refused_before_any_operator_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the scheme was checked")

    monkeypatch.setattr(EvolutionOperator, "__init__", refuse)
    monkeypatch.setattr(evolve, "wrap_guard", refuse)
    g = make_grid(1, 10.0, 64)
    with pytest.raises(ValueError, match="unknown scheme"):
        solve_linear(catalog("airy"), airy_packet(g), T=0.01, scheme="euler")


# -- the Weyl tag against dense Weyl, and evolution with no dense matrix -------------


def _low_degree_pairs(n, c):
    """xi^2 + c e^{-x^2} xi + x e^{-x^2}/5 (1D) or
    xi1^2 - xi2^2 + c e^{-|x|^2} xi1 + x1 e^{-|x|^2} xi2/5 (2D): every pair
    has xi-degree <= 1."""
    xs, xis = phase_symbols(n)
    bump = sp.exp(-sum(v**2 for v in xs))
    if n == 1:
        expr = xis[0] ** 2 + c * bump * xis[0] + xs[0] * bump / 5
    else:
        expr = xis[0] ** 2 - xis[1] ** 2 + c * bump * xis[0] + xs[0] * bump * xis[1] / 5
    return SympySymbol(expr, n, 2.0)


@pytest.mark.parametrize("c", [sp.Rational(1, 10), sp.I / 10], ids=["real", "complex"])
@pytest.mark.parametrize(
    "grid, decay, carrier, tol",
    [((1, 4 * np.pi, 256), 80.0, [4.0], 1e-12), ((2, 2 * np.pi, 48), 30.0, [1.0, 0.0], 1e-8)],
    ids=["1d", "2d"],
)
def test_weyl_tag_matches_dense_weyl_for_low_degree_pairs(c, grid, decay, carrier, tol):
    # A symmetrized pair (fG + Gf)/2 is exactly Op^w(f g) when g has xi-degree
    # <= 1.  Pairs of xi-degree >= 2 keep a gap of order m - 2 to Op^w (the
    # missing exact-ordering term), so they are not compared here.  The 2D
    # error is set by resolution: 4e-9 at N = 48, 8e-5 at N = 32.
    g = make_grid(*grid)
    a = _low_degree_pairs(g.n, c)
    assert a.real_valued == (c.is_real is True)
    u = gaussian_wavepacket(g, carrier, width2=g.L**2 / decay).values
    got = EvolutionOperator(a, g).apply(u)
    ref = quantize_dense(a, g, "weyl").apply_values(u)
    assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


def test_evolution_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quantize_dense called")

    monkeypatch.setattr(calculus, "quantize_dense", refuse)
    # _KN_CASES holds the 1D kdv-type .full
    cases = _REMAINDER_CASES + _KN_CASES + [(lambda: _kdv_type_2d().full, (2, 6.0, 24))]
    for make_symbol, grid in cases:
        for tag in ("weyl", "kn"):
            op = EvolutionOperator(make_symbol(), make_grid(*grid), tag)
            assert op.pairs and not hasattr(op, "dense")
    # the complex kdv-type generator above the dense budget, a few steps
    g = make_grid(1, 10.0, 16384)
    assert not g.dense_eligible
    a = _kdv_type_symbol()
    dt = 2.0 / build_evolution_operator(a, g).max_abs_remainder()
    u0 = gaussian_wavepacket(g, [2.0], width2=2.0)
    norms = NormSeries(g)
    solve_linear(a, u0, T=4 * dt, dt=dt, consume=norms)
    assert len(norms.times) == 5
    # a frame with a non-finite sample has a non-finite L^2 norm
    assert np.all(np.isfinite(norms.l2)) and norms.l2_drift() < 1e-6


def test_complex_symbol_steps_with_integrating_factor():
    # xi^3 - (i/2) <x>^{-2} xi^2: the multiplier xi^3 is propagated exactly and
    # only the complex pair is stepped (1,051 steps to T = 1, against 46,526
    # classical RK4 steps when such symbols were quantized densely)
    xs, xis = phase_symbols(1)
    a = SympySymbol(xis[0] ** 3 - sp.I / 2 / (1 + xs[0] ** 2) * xis[0] ** 2, 1, 3.0)
    g = make_grid(1, 16 * np.pi, 256)
    u0 = gaussian_wavepacket(g, 4.0, 8.0)
    sol = solve_linear(a, u0, T=1.0, store_stride=10**6, guard=_unguarded(a, u0))
    assert round(1.0 / sol.dt) <= 1100
    assert l2_norm(sol.final) > l2_norm(u0)  # Im a < 0 makes the norm grow


def _no_split_symbol():
    # no f(x) g(xi) split, expanded or not
    xs, xis = phase_symbols(1)
    expr = sp.sqrt(1 + (1 + sp.exp(-xs[0] ** 2)) * xis[0] ** 2)
    return SympySymbol(expr, 1, 1.0, label="sqrt-bump")


def test_symbol_without_split_is_refused():
    a = _no_split_symbol()
    assert a.split is None
    g = make_grid(1, 6.0, 48)
    u0 = airy_packet(g, k=2.0, width2=1.0)
    for tag in ("weyl", "kn"):
        with pytest.raises(ValueError, match="sqrt-bump"):
            EvolutionOperator(a, g, tag)
    with pytest.raises(ValueError, match="sqrt-bump"):
        apply_fast(a, u0)
    with pytest.raises(ValueError, match="sqrt-bump"):
        solve_linear(a, u0, T=0.01)


# Reference: each catalog entry's multiplier and f(x) g(xi) pair written out
# by hand, as (name, params, grid, frequency factor g, spatial factor f or
# None for a pure multiplier, whether g is zeroed at the Nyquist modes).
def _stated_terms():
    (x,), (xi,) = phase_symbols(1)
    (x1, x2), (xi1, xi2) = phase_symbols(2)
    uh_bump = sp.exp(-(x1**2) - x2**2)
    g2 = (2, 4.0, 32)
    return [
        ("airy", {}, (1, 10.0, 64), xi**3, None, True),
        ("zk", {}, g2, xi1 * (xi1**2 + xi2**2), None, True),
        ("kdv_sum", {}, g2, (xi1 + xi2) * (xi1**2 + xi2**2), None, True),
        ("kdv_sum", {"n": 1}, (1, 5.0, 64), xi * xi**2, None, True),
        ("gaussian_kdv", {"eps": 0.05}, (1, 10.0, 128), xi**3, 0.05 * sp.exp(-(x**2)), True),
        ("gaussian_kdv", {"eps": 0.3}, (1, 10.0, 128), xi**3, 0.3 * sp.exp(-(x**2)), True),
        ("ultrahyperbolic", {}, g2, xi1**2 - xi2**2, None, False),
        ("ultrahyperbolic", {"eps": 0.05}, g2, xi1**2 - xi2**2, 0.05 * uh_bump, False),
        (
            "ultrahyperbolic",
            {"eps": 0.3, "matrix": [[1, 0.5], [0.5, -1]]},
            g2,
            xi1**2 + xi1 * xi2 - xi2**2,
            0.3 * uh_bump,
            False,
        ),
    ]


def _sampled(expr, variables, pts):
    fn = sp.lambdify(variables, expr, modules="numpy")
    out = np.asarray(fn(*[pts[..., i] for i in range(len(variables))]), dtype=complex)
    return np.broadcast_to(out, pts.shape[:-1])


@pytest.mark.parametrize(
    "name, params, grid, g_expr, f_expr, zero_nyquist",
    _stated_terms(),
    ids=[f"{case[0]}-{i}" for i, case in enumerate(_stated_terms())],
)
def test_catalog_split_matches_stated_terms(name, params, grid, g_expr, f_expr, zero_nyquist):
    a = catalog(name, **params)
    assert a.real_valued and a.zero_nyquist == zero_nyquist
    g = make_grid(*grid)
    op = build_evolution_operator(a, g)
    xs, xis = phase_symbols(g.n)
    gv = _sampled(g_expr, xis, g.xi_mesh)
    if zero_nyquist:
        gv = np.where(g.nyquist_mask, 0.0, gv)
    assert np.array_equal(op.multiplier, gv)
    if f_expr is None:
        assert a.x_independent and op.pairs == []
    else:
        [(fv, gv_pair)] = op.pairs
        assert np.array_equal(fv, _sampled(f_expr, xs, g.x_mesh))
        assert np.array_equal(gv_pair, gv)


def test_user_dt_stability_rejection():
    g = make_grid(1, np.pi, 128)
    u0 = Field.from_function(g, lambda x: np.exp(4j * x))
    with pytest.raises(ValueError):
        solve_linear(catalog("airy"), u0, T=0.1, dt=1e-3, scheme="rk4")


# -- the picked step rule ----------------------------------------------------------------
# A picked solve keeps the frame clock's frames and takes only the steps that
# stability and the windowed step-doubling estimate need.  Test-sized members
# of the benchmark families: gkdv (eps 0.3 on a 512-node line) and uh (64^2
# nodes).  At stride 4 the uh member accepts its first window (m = 2); the
# gkdv member's first window rejects, and a wider one accepts.


def _member(name, grid, carrier, width2, **params):
    g = make_grid(*grid)
    a = catalog(name, **params)
    u0 = gaussian_wavepacket(g, carrier, width2)
    gw = wrap_guard(a, u0)
    return a, u0, gw, 0.8 * gw.horizon


_MEMBERS = {
    "gkdv": lambda: _member("gaussian_kdv", (1, 20 * np.pi, 512), [8.0], 4.0, eps=0.3),
    "uh": lambda: _member("ultrahyperbolic", (2, 256 * np.pi / 72, 64), [8.0, 0.0], 3.0, eps=0.05),
}


def _final_error(a, u0, gw, T, dt, finer):
    """The relative L^2 error of the final state of an explicit solve at dt
    against one at dt / finer."""
    fine = solve_linear(a, u0, T=T, dt=dt / finer, store_stride=10**6, guard=gw)
    coarse = solve_linear(a, u0, T=T, dt=dt, store_stride=10**6, guard=gw)
    return l2_norm(coarse.final - fine.final) / l2_norm(fine.final)


@pytest.mark.parametrize("member, factor", [("gkdv", 1e2), ("uh", 2.0)])
def test_step_error_tracks_the_error_against_a_4x_finer_solve(member, factor):
    # the estimate bounds the relative error of the final state from above,
    # within the stated factor: in 2D it is 1.6x the error at m = 2; in 1D
    # the phases of a fast-rotating frame make the step errors cancel, and at
    # the window that accepts it is 33x
    a, u0, gw, T = _MEMBERS[member]()
    sol = solve_linear(a, u0, T=T, store_stride=4, guard=gw)
    assert sol.step_error is not None
    error = _final_error(a, u0, gw, T, sol.dt, 4)
    assert error <= sol.step_error <= factor * error


# the members' picked solves: the first window accepts (uh), a wider window
# accepts (gkdv, stride 4), and every window rejects, so r rises (gkdv,
# stride 16: 3 steps per frame interval)
@pytest.mark.parametrize("member, stride", [("uh", 4), ("gkdv", 4), ("gkdv", 16)])
def test_step_error_is_at_least_the_error_against_an_8x_finer_solve(member, stride):
    a, u0, gw, T = _MEMBERS[member]()
    sol = solve_linear(a, u0, T=T, store_stride=stride, guard=gw)
    assert sol.step_error <= evolve.STEP_TOL
    assert sol.step_error >= _final_error(a, u0, gw, T, sol.dt, 8)


def test_stride_one_picked_solve_keeps_the_clock():
    # stride 1: one step per frame interval, the clock's 348 steps, bit for
    # bit the explicit solve at the clock's dt
    g = make_grid(1, 40 * np.pi, 1024)
    a, u0 = catalog("gaussian_kdv", eps=0.05), gaussian_wavepacket(g, [8.0], 8.0)
    sol = solve_linear(a, u0, T=0.1)
    assert (sol.steps, sol.step_bound, sol.step_error) == (348, "clock", None)
    given = solve_linear(a, u0, T=0.1, dt=0.1 / 348)
    assert given.step_bound == "given" and sol.dt == given.dt
    assert np.array_equal(sol.times, given.times) and np.array_equal(sol.values, given.values)


@pytest.mark.parametrize("member", sorted(_MEMBERS))
@pytest.mark.parametrize("stride", [3, 4, 7])
def test_thinned_solve_steps_between_stability_and_the_clock(member, stride):
    a, u0, gw, T = _MEMBERS[member]()
    clock = solve_linear(a, u0, T=T, guard=gw).steps  # stride 1 takes the clock
    frames = -(-clock // stride)
    sol = solve_linear(a, u0, T=T, store_stride=stride, guard=gw)
    # equal frame intervals of `stride` clock steps, each taking r steps
    assert len(sol.times) == frames + 1 and sol.steps % frames == 0
    assert np.allclose(sol.times, np.linspace(0.0, T, frames + 1), rtol=1e-14, atol=0.0)
    # never more steps per interval than the clock's, never fewer than stability needs
    assert sol.steps <= frames * -(-clock // frames)
    op = build_evolution_operator(a, u0.grid)
    assert sol.dt * op.max_abs_remainder() <= evolve.C_STAB
    assert sol.steps < clock or sol.step_bound == "clock"
    assert sol.step_error <= evolve.STEP_TOL or sol.step_bound == "clock"


def test_member_above_step_tol_in_its_pair_escalates_the_window(monkeypatch):
    # negative control: the 1D member's one-pair estimate at one step per
    # frame exceeds STEP_TOL, yet the member takes one step per frame at
    # STEP_TOL: a wider window accepted
    a, u0, gw, T = _MEMBERS["gkdv"]()
    sol = solve_linear(a, u0, T=T, store_stride=4, guard=gw)
    frames = len(sol.times) - 1
    op = build_evolution_operator(a, u0.grid)
    monkeypatch.setattr(evolve, "STEP_WINDOW", 2)  # the first window alone
    pair = evolve._step_error(op, u0.grid.fftn(u0.values), None, T, T / frames, True)
    assert pair > evolve.STEP_TOL
    assert sol.step_bound == "stability" and sol.steps == frames
    assert sol.step_error <= evolve.STEP_TOL


def test_member_above_step_tol_takes_more_than_one_step_per_frame():
    # negative control: at stride 16 even the widest window rejects one step
    # per frame, so the solve raises the steps per frame interval and
    # estimates again there
    a, u0, gw, T = _MEMBERS["gkdv"]()
    sol = solve_linear(a, u0, T=T, store_stride=16, guard=gw)
    frames = len(sol.times) - 1
    op = build_evolution_operator(a, u0.grid)
    widest = evolve._step_error(op, u0.grid.fftn(u0.values), None, T, T / frames, True)
    assert widest > evolve.STEP_TOL and frames >= evolve.STEP_WINDOW
    assert sol.step_bound == "error" and sol.steps // frames > 1
    assert sol.step_error <= evolve.STEP_TOL


def test_step_error_keeps_no_state_array(traced_peak):
    # nothing state-sized outlives the estimate, whether its first window
    # accepts (uh) or it widens the window (gkdv), and the thinned solve's
    # peak is the march's: no more than the explicit solve at its dt
    import tracemalloc

    for member in ("gkdv", "uh"):
        a, u0, gw, T = _MEMBERS[member]()
        frames = len(solve_linear(a, u0, T=T, store_stride=4, guard=gw).times) - 1
        g = u0.grid
        op = build_evolution_operator(a, g)
        uhat0 = g.fftn(u0.values)
        evolve._step_error(op, uhat0, None, T, T / frames, True)  # fills the operator's row stack
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            evolve._step_error(op, uhat0, None, T, T / frames, True)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - base < uhat0.nbytes / 16

    a, u0, gw, T = _MEMBERS["uh"]()
    g = u0.grid

    def peak(dt):
        series = SmoothingSeries(g, a.order, "ii", 0.0, None)
        return traced_peak(lambda: solve_linear(a, u0, T=T, dt=dt, store_stride=4, guard=gw, consume=series), g)

    thinned = solve_linear(a, u0, T=T, store_stride=4, guard=gw)
    assert thinned.step_error is not None
    peak(None)  # fills the grid's and the symbol's caches
    assert peak(None) - peak(thinned.dt) < u0.values.nbytes


def test_duhamel_consistency():
    # solve with f equals homogeneous solve plus trapezoid Duhamel of the
    # propagated source, to O(dt^2)
    g = make_grid(1, 10.0, 64)
    a = catalog("airy")
    fsrc = Field.from_function(g, lambda x: 0.3 * np.exp(-(x**2)))
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2) / 2))
    T, nsteps = 0.05, 16
    dt = T / nsteps
    full = solve_linear(a, u0, fsrc, T=T, dt=dt, guard=_unguarded(a, u0, fsrc))
    hom = solve_linear(a, u0, T=T, dt=dt, guard=_unguarded(a, u0))
    # trapezoid Duhamel: I = sum w_j W(T - t_j) f
    acc = np.zeros(g.shape, dtype=complex)
    for j, tj in enumerate(np.linspace(0.0, T, nsteps + 1)):
        wgt = dt if 0 < j < nsteps else dt / 2
        if T - tj > 0:
            prop = solve_linear(a, fsrc, T=T - tj, dt=dt, guard=_unguarded(a, fsrc)).final.values
        else:
            prop = fsrc.values
        acc += wgt * prop
    recon = hom.final.values + acc
    err = np.max(np.abs(full.final.values - recon)) / np.max(np.abs(full.final.values))
    assert err < 10 * dt**2


# -- wrap guard -------------------------------------------------------------------


def test_wrap_guard_localized_datum():
    g = make_grid(1, 40 * np.pi, 1024)
    gw = wrap_guard(catalog("airy"), airy_packet(g, k=4.0))
    assert gw.horizon is not None and gw.horizon > 0
    assert gw.data_radius < 15.0


def test_wrap_guard_plane_wave_unlocalized():
    g = make_grid(1, np.pi, 128)
    u0 = Field.from_function(g, lambda x: np.exp(4j * x))
    gw = wrap_guard(catalog("airy"), u0)
    assert gw.horizon is None
    # and the solver does not refuse long horizons for periodic data
    norms = NormSeries(g)
    solve_linear(catalog("airy"), u0, T=1.0, scheme="if_rk4", consume=norms)
    assert norms.l2_drift() < 1e-10


def test_wrap_guard_refuses_long_horizon():
    g = make_grid(1, 40 * np.pi, 1024)
    u0 = airy_packet(g, k=4.0)
    with pytest.raises(WrapGuardError):
        solve_linear(catalog("airy"), u0, T=10.0)


def test_wrap_guard_velocity_estimate():
    # airy group speed 3 xi^2 over the active band; horizon = (L - R - margin)/v
    g = make_grid(1, 40 * np.pi, 1024)
    gw = wrap_guard(catalog("airy"), airy_packet(g, k=4.0))
    assert 3 * 4.0**2 <= gw.v_max <= 3 * 12.0**2


def _kdv_type_2d():
    xs, _ = phase_symbols(2)
    bump = sp.Rational(1, 10) * sp.exp(-sum(v**2 for v in xs))
    return build_kdv_type(VectorFieldSystem(2, [[1 + bump, bump], [0, 1 - bump]]))


def _one_shot_lattice_v_max(a, g, xi_act):
    # the whole (probes, active frequencies, n) gradient in one array
    axis = np.linspace(-g.L / 2, g.L / 2, 9)
    x_lat = np.stack(np.meshgrid(*([axis] * g.n), indexing="ij"), axis=-1).reshape(-1, g.n)
    grads = a.grad_xi(x_lat[:, None, :], xi_act[None, :, :])
    return float(np.max(np.sqrt(np.sum(np.real(grads) ** 2, axis=-1))))


UH_GRID = (2, 256 * np.pi / 72, 256)  # the linear-2d smoothing family


@pytest.mark.parametrize(
    "build, grid, carrier, width2",
    [
        (lambda: catalog("zk"), (2, 40 * np.pi, 128), [1.0, 0.0], 8.0),
        (lambda: catalog("airy"), (1, 40 * np.pi, 1024), [4.0], 8.0),
        (lambda: catalog("ultrahyperbolic", eps=0.05), UH_GRID, [8.0, 0.0], 3.0),
        (lambda: catalog("ultrahyperbolic", eps=0.05), UH_GRID, [32.0, 0.0], 3.0),
        (lambda: catalog("gaussian_kdv", eps=0.05), (1, 40 * np.pi, 4096), [32.0], 8.0),
        (lambda: _kdv_type_2d().a3, (2, 6.0, 48), [2.0, 0.0], 1.0),
    ],
    ids=["zk", "airy", "uh-k8", "uh-k32", "gkdv-k32", "kdv-type-2d"],
)
def test_wrap_guard_matches_one_shot_lattice(build, grid, carrier, width2):
    # marching the probes one at a time gives the one-shot lattice v_max bit for
    # bit; an x-independent symbol is probed at one x and must match the 9^n lattice
    g = make_grid(*grid)
    a = build()
    u0 = gaussian_wavepacket(g, carrier, width2=width2)
    gw = wrap_guard(a, u0)
    assert gw.horizon is not None
    assert gw.xi_cap == _active_cap(g, [transform(u0).coeffs])
    xi_act = g.xi_mesh.reshape(-1, g.n)[(g.xi_norm <= gw.xi_cap).ravel()]
    v_lat = _one_shot_lattice_v_max(a, g, xi_act)
    assert gw.v_max == v_lat
    assert gw.horizon == (g.L - gw.data_radius - WRAP_MARGIN * g.L) / v_lat


@pytest.mark.parametrize("grid", [(1, 40 * np.pi, 2048), UH_GRID])
def test_zero_datum_adds_nothing_to_its_source_guard(grid):
    # a forced solve from rest has the guard of its source as a datum, its
    # active band included
    g = make_grid(*grid)
    a = catalog("airy") if g.n == 1 else catalog("ultrahyperbolic", eps=0.05)
    u0 = gaussian_wavepacket(g, [8.0] + [0.0] * (g.n - 1), width2=3.0)
    gw = wrap_guard(a, u0)
    assert gw.horizon is not None and np.isfinite(gw.xi_cap)
    assert wrap_guard(a, Field.zero(g), u0) == gw


def test_zero_data_have_an_empty_band():
    g = make_grid(1, 10.0, 64)
    gw = wrap_guard(catalog("airy"), Field.zero(g))
    assert gw.xi_cap == -np.inf and gw.horizon is None


def test_picked_dt_solve_transforms_its_data_once(monkeypatch):
    # the wrap guard takes the spectrum of the data, and the frame clock reads
    # the guard's band instead of taking it again
    calls = []

    def counted(g, values):
        calls.append(values.shape)
        return spectrum(g, values)

    spectrum = evolve._spectrum
    monkeypatch.setattr(evolve, "_spectrum", counted)
    g = make_grid(1, 40 * np.pi, 1024)
    u0 = airy_packet(g)
    solve_linear(catalog("airy"), Field.zero(g), u0, T=0.05, store_stride=8)
    assert calls == [(2, *g.shape)]


def test_wrap_guard_memory_is_per_probe(traced_peak):
    # the one-shot (81 probes) x (65k active frequencies) x 2 complex gradient
    # alone is about 168 MB; one probe at a time needs a few arrays of the active band
    g = make_grid(*UH_GRID)
    a = catalog("ultrahyperbolic", eps=0.05)
    u0 = gaussian_wavepacket(g, [32.0, 0.0], width2=3.0)
    assert traced_peak(lambda: wrap_guard(a, u0), g) < 16 * 2**20


# -- smoothing reports ----------------------------------------------------------------


class Frames:
    """A test's frame consumer: a Field copy of every frame it is handed."""

    def __init__(self, grid):
        self.grid, self.times, self.fields = grid, [], []

    def __call__(self, t, values):
        self.times.append(t)
        self.fields.append(Field(self.grid, values))


def test_smoothing_report_zero_solution():
    g = make_grid(1, 10.0, 64)
    for est in ("i", "ii", "iii"):
        rep = smoothing_report(catalog("airy"), Field.zero(g), None, est, 0.0, T=0.01, dt=1e-3)
        assert rep.lhs == 0.0 and rep.ratio == 0.0


def test_smoothing_report_weighted_family_bounded():
    # compact version of the family run: weighted ratio stays bounded while the
    # unweighted integral grows like k^2
    g = make_grid(1, 40 * np.pi, 2048)
    a = catalog("airy")
    packets = {k: airy_packet(g, k=k) for k in (4, 16)}
    T = 0.8 * min(wrap_guard(a, u).horizon for u in packets.values())
    ratios = {}
    unweighted = {}
    for k, u0 in packets.items():
        # one solve scores both quantities
        ii, h1 = SmoothingSeries(g, a.order, "ii", 0.0, None), NormSeries(g, (1.0,))
        solve_linear(a, u0, T=T, store_stride=4, consume=lambda t, v: (ii(t, v), h1(t, v)))
        ratios[k] = ii.report().ratio
        unweighted[k] = np.trapezoid([row[0] ** 2 for row in h1.sobolev], h1.times)
    assert max(ratios.values()) / min(ratios.values()) <= 4.0
    expected = (1 + 16.0**2) / (1 + 4.0**2)
    assert unweighted[16] / unweighted[4] >= 0.8 * expected


@pytest.mark.parametrize("estimate, per_frame", [("i", ["fftn"]), ("ii", ["fftn", "ifftn"])])
def test_smoothing_report_takes_one_spectrum_per_frame(estimate, per_frame):
    g = CountingGrid(1, 40 * np.pi, 1024)
    a = catalog("airy")
    s, gain = 0.5, 1.0
    series, frames, taken = SmoothingSeries(g, a.order, estimate, s, None), Frames(g), []

    def consume(t, v):
        g.transforms.clear()
        series(t, v)
        taken.append(list(g.transforms))
        frames(t, v)

    solve_linear(a, airy_packet(g), T=0.05, store_stride=2, consume=consume)
    g.transforms.clear()
    rep = series.report()
    assert taken == [per_frame] * len(frames.times) and g.transforms == []
    # the unweighted integral squares each norm as a Python float
    norms = [sobolev_norm(u, s + gain) for u in frames.fields]
    assert rep.unweighted_integral == float(np.trapezoid([v**2 for v in norms], frames.times))
    sup = max(sobolev_norm(u, s) for u in frames.fields)
    if estimate == "ii":
        weighted = [weighted_pairing(u, lam, s + gain) for u in frames.fields]
        assert rep.lhs == sup**2 + float(np.trapezoid(weighted, frames.times))
    else:
        assert rep.lhs == sup


@pytest.mark.parametrize("estimate", ESTIMATES)
def test_smoothing_series_takes_its_per_frame_operands_once(monkeypatch, estimate):
    # lam(|x|), its positivity check and the Bessel powers are taken when the
    # consumer is made, not on every frame
    calls, reads = [], []
    bessel = Grid.bessel_base
    monkeypatch.setattr(Grid, "bessel_base", property(lambda g: reads.append(1) or bessel.fget(g)))

    def counted(r):
        calls.append(1)
        return lam(r)

    monkeypatch.setattr(evolve, "lam", counted)
    g = make_grid(1, 40 * np.pi, 1024)
    u0 = airy_packet(g)
    series = SmoothingSeries(g, 3.0, estimate, 0.5, u0 if estimate == "iii" else None)
    made = (len(calls), len(reads))
    for t in range(4):
        series(0.01 * t, u0.values)
    assert (len(calls), len(reads)) == made


@pytest.mark.parametrize(
    "estimate, once", [("i", ["fftn"]), ("ii", ["fftn"]), ("iii", ["fftn", "ifftn"])]
)
def test_smoothing_report_takes_a_constant_source_once(estimate, once):
    # a Field source has the same term at every node: its transforms are made
    # once per report, and the right side is that of the term taken per node
    g = CountingGrid(1, 40 * np.pi, 1024)
    s, gain = 0.5, 1.0
    a, source = catalog("airy"), airy_packet(g)
    g.transforms.clear()
    series = SmoothingSeries(g, a.order, estimate, s, source)
    assert g.transforms == once
    taken = []

    def consume(t, v):
        g.transforms.clear()
        series(t, v)
        taken.append(list(g.transforms))

    solve_linear(a, Field.zero(g), source, T=0.05, store_stride=2, consume=consume)
    rep = series.report()
    per_frame = ["fftn"] if estimate == "i" else ["fftn", "ifftn"]
    assert taken == [per_frame] * len(series.times)
    if estimate == "i":
        terms = [sobolev_norm(source, s) for _ in series.times]
    elif estimate == "ii":
        terms = [sobolev_norm(source, s) ** 2 for _ in series.times]
    else:
        terms = [weighted_pairing(source, lambda r: 1.0 / lam(r), s - gain) for _ in series.times]
    assert rep.rhs == float(np.trapezoid(terms, series.times))  # from rest: u0 adds nothing


# estimates in 1D and 2D: (symbol, grid, carrier, width2, solve arguments)
_STREAM_FAMILIES = {
    "gkdv-1d": (
        lambda: catalog("gaussian_kdv", eps=0.05),
        (1, 40 * np.pi, 1024),
        [8.0],
        8.0,
        {"T": 0.01, "store_stride": 4},
    ),
    "uh-2d": (
        lambda: catalog("ultrahyperbolic", eps=0.05),
        UH_GRID,
        [8.0, 0.0],
        3.0,
        {"T": 8e-3, "dt": 1e-3, "store_stride": 2},
    ),
}


@pytest.mark.parametrize("forcing", ["free", "forced"])
@pytest.mark.parametrize("estimate", ESTIMATES)
@pytest.mark.parametrize("family", sorted(_STREAM_FAMILIES))
def test_streamed_smoothing_report_matches_stored_bit_for_bit(family, estimate, forcing):
    # the streamed report equals, bit for bit, the estimate recomputed per
    # Field with the public norms over stored copies of the streamed frames
    build, grid, carrier, width2, run = _STREAM_FAMILIES[family]
    a, g, s = build(), make_grid(*grid), 0.5
    gain = (a.order - 1.0) / 2.0
    packet = gaussian_wavepacket(g, carrier, width2)
    source = {"free": None, "forced": packet}[forcing]
    datum = packet if source is None else Field.zero(g)
    series, frames = SmoothingSeries(g, a.order, estimate, s, source), Frames(g)
    consume = lambda t, v: (series(t, v), frames(t, v))  # noqa: E731
    if estimate == "iii" and source is None:
        # the estimate needs a source: a free run from data is refused
        with pytest.raises(ValueError):
            solve_linear(a, datum, source, consume=consume, **run)
        with pytest.raises(ValueError):
            smoothing_report(a, datum, source, estimate, s, **run)
        return
    sol = solve_linear(a, datum, source, consume=consume, **run)
    rep = series.report()
    times, fields = frames.times, frames.fields
    sup = max(sobolev_norm(u, s) for u in fields)
    unweighted = float(np.trapezoid([sobolev_norm(u, s + gain) ** 2 for u in fields], times))
    if source is None:
        term = 0.0
    elif estimate == "i":
        term = sobolev_norm(source, s)
    elif estimate == "ii":
        term = sobolev_norm(source, s) ** 2
    else:
        term = weighted_pairing(source, lambda r: 1.0 / lam(r), s - gain)
    rhs_integral = float(np.trapezoid([term for _ in times], times))
    if estimate == "i":
        lhs, rhs = sup, sobolev_norm(fields[0], s) + rhs_integral
    else:
        weighted = [weighted_pairing(u, lam, s + gain) for u in fields]
        lhs = sup**2 + float(np.trapezoid(weighted, times))
        rhs = sobolev_norm(fields[0], s) ** 2 + rhs_integral
    assert (rep.lhs, rep.rhs, rep.unweighted_integral) == (lhs, rhs, unweighted)
    assert rep.lhs > 0 and rep.rhs > 0
    # the streamed solve keeps only its final frame, and smoothing_report
    # gives the same report
    assert sol.values.shape == (1, *g.shape) and sol.times[-1] == times[-1]
    driven = smoothing_report(a, datum, source, estimate, s, **run)
    assert (driven.lhs, driven.rhs, driven.ratio) == (rep.lhs, rep.rhs, rep.ratio)


def test_callable_source_is_refused():
    # a source is a fixed Field: a source that varies in time would need a
    # wrap guard and a step rule that see all of it, not only its value at 0
    g = make_grid(1, 40 * np.pi, 1024)
    packet = airy_packet(g)
    with pytest.raises(TypeError, match="fixed Field"):
        solve_linear(catalog("airy"), Field.zero(g), lambda t: (1.0 + 10.0 * t) * packet, T=0.01)


def test_streamed_solve_refuses_frame_reductions():
    # a streamed solve keeps only its final frame, so its consumer reduces the
    # whole trajectory: reducing that one frame as if it were the trajectory
    # gave ratio 1
    g = make_grid(1, 40 * np.pi, 1024)
    a = catalog("gaussian_kdv", eps=0.05)
    series = SmoothingSeries(g, a.order, "ii", 0.0, None)
    solve_linear(a, airy_packet(g, k=8.0), T=0.01, consume=series)
    assert series.report().ratio > 1.0


def test_streamed_smoothing_memory_does_not_grow_with_frames(traced_peak):
    # a stored solve grows by one state array per frame; a streamed one keeps
    # a few numbers per frame, whatever the stride or the horizon
    g = make_grid(1, 40 * np.pi, 2048)
    a = catalog("gaussian_kdv", eps=0.05)
    u0 = airy_packet(g, k=8.0)

    def streamed_peak(T, stride):
        series = SmoothingSeries(g, a.order, "ii", 0.0, None)
        peak = traced_peak(lambda: solve_linear(a, u0, T=T, store_stride=stride, consume=series), g)
        return peak, len(series.times)

    streamed_peak(0.02, 4)  # fills the grid's and the symbol's caches
    base, frames = streamed_peak(0.02, 4)
    for T, stride in ((0.02, 2), (0.04, 4)):
        peak, more = streamed_peak(T, stride)
        assert more >= 2 * frames - 1
        assert abs(peak - base) < u0.values.nbytes


def test_smoothing_report_iii_forced():
    g = make_grid(1, 40 * np.pi, 1024)
    a = catalog("airy")
    fsrc = Field.from_function(g, lambda x: np.exp(4j * x) * np.exp(-(x**2) / 8))
    rep = smoothing_report(a, Field.zero(g), fsrc, "iii", 0.0, T=0.05, store_stride=4)
    assert np.isfinite(rep.ratio) and rep.ratio > 0


def test_smoothing_report_iii_requires_source():
    g = make_grid(1, 10.0, 64)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="requires the source term"):
        smoothing_report(catalog("airy"), u0, None, "iii", 0.0, T=0.01, dt=1e-3)


def test_smoothing_lhs_monotone_in_T():
    # estimate (ii) LHS accumulates: nondecreasing in T for f = 0
    g = make_grid(1, 40 * np.pi, 1024)
    a = catalog("airy")
    u0 = airy_packet(g, k=4.0)
    sol = solve_linear(a, u0, T=0.05, store_stride=2)
    lhs = []
    for tcut in (0.02, 0.035, 0.05):
        sel = sol.times <= tcut + 1e-12
        times = sol.times[sel]
        weighted = [weighted_pairing(sol.field(i), lam, 1.0) for i in range(sel.sum())]
        sup = max(sobolev_norm(sol.field(i), 0.0) for i in range(sel.sum()))
        lhs.append(sup**2 + np.trapezoid(weighted, times))
    assert lhs[0] <= lhs[1] <= lhs[2]


# -- weighted propagator probe -----------------------------------------------------------


@pytest.fixture(scope="module")
def probe_setup():
    g = make_grid(1, 60 * np.pi, 1024)
    return g, Field.from_function(g, lambda x: np.exp(-(x**2) / 8))


def test_propagator_probe_small_T_below_one(probe_setup):
    g, u0 = probe_setup
    rep = weighted_propagator_probe(catalog("airy"), u0, [1e-3], s=0.0, N_w=1)
    assert rep.fitted_c <= 1.0


def test_propagator_probe_sweep_stable(probe_setup):
    g, u0 = probe_setup
    rep = weighted_propagator_probe(
        catalog("airy"), u0, [0.5, 1.0, 2.0], s=0.0, N_w=1, store_stride=4
    )
    assert rep.stability <= 2.0
    assert all(np.isfinite(v) for v in rep.ratios.values())


def test_propagator_probe_matches_stored_reference(probe_setup):
    # the probe's per-frame weighted norm, recomputed per Field over a stored
    # solve with the same stride, gives the same ratios bit for bit
    g, u0 = probe_setup
    a, s, N_w, sweep = catalog("airy"), 0.0, 1, [0.5, 1.0, 2.0]
    rep = weighted_propagator_probe(a, u0, sweep, s=s, N_w=N_w, store_stride=4)
    w = (1.0 + g.x_radius**2) ** N_w
    sol = solve_linear(a, u0, T=max(sweep), store_stride=4)
    wnorm = np.array([sobolev_norm(Field(g, w * v), s) ** 2 for v in sol.values])
    denom = sobolev_norm(Field(g, w * u0.values), s + 2.0 * N_w) ** 2
    for T in sweep:
        sel = sol.times <= T * (1 + 1e-12)
        assert rep.ratios[T] == float(np.max(wnorm[sel]) / ((1.0 + T ** (2 * N_w)) * denom))


def test_propagator_probe_rejects_plane_wave(probe_setup):
    g, _ = probe_setup
    u0 = Field.from_function(g, lambda x: np.exp(1j * x))
    with pytest.raises(ValueError):
        weighted_propagator_probe(catalog("airy"), u0, [0.5], s=0.0, N_w=1)
