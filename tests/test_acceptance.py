"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per criterion.
"""

import numpy as np
import pytest

from weylab.appendix_checks import lemmatec1_residual, lemmatec3_scan
from weylab.calculus import compose_symbols, quantize_dense
from weylab.evolve import (
    NormSeries,
    SmoothingSeries,
    smoothing_report,
    solve_linear,
    weighted_propagator_probe,
    wrap_guard,
)
from weylab.grid import Field, gaussian_wavepacket, l2_norm, make_grid
from weylab.hamilton import (
    classify_strong_ellipticity,
    integrate_bicharacteristic,
    qdelta_monotonicity,
    trapping_probe,
)
from weylab.nonlinear import (
    NonlinearitySpec,
    PicardDivergenceError,
    direct_nonlinear_solve,
    picard_solve,
)
from weylab.symbol import SampleSet, SympySymbol, catalog, phase_symbols
from weylab.weights import (
    admissibility_report,
    doi_slack,
    doi_weight,
    exp_weight_operators,
    garding_weight,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sample_1d():
    return SampleSet.standard(1, x_radius=10.0, xi_max=64.0)


@pytest.fixture(scope="module")
def sample_2d():
    return SampleSet.standard(2, x_radius=10.0, xi_max=32.0, x_points=9)


# -- 1. Weyl self-adjointness -------------------------------------------------------


def test_criterion_1_weyl_self_adjointness():
    worst = {}
    for name, kw, g in [
        ("airy", {}, make_grid(1, np.pi, 128)),
        ("gaussian_kdv", dict(eps=0.05), make_grid(1, np.pi, 128)),
        ("zk", {}, make_grid(2, np.pi, 32)),
    ]:
        op = quantize_dense(catalog(name, **kw), g, "weyl")
        worst[name] = op.adjoint_residual
    ok = all(v <= 1e-10 for v in worst.values())
    report(1, ok, f"adjoint residuals {({k: f'{v:.2e}' for k, v in worst.items()})} <= 1e-10")


# -- 2. composition ground truth ------------------------------------------------------


def test_criterion_2_composition():
    import sympy as sp

    xs, xis = phase_symbols(1)
    sym_xi = SympySymbol(xis[0], 1, 1.0, zero_nyquist=False)
    sym_x = SympySymbol(xs[0], 1, 0.0)
    c = compose_symbols(sym_xi, sym_x, K=1)
    exact = sp.expand(c.expr - (xs[0] * xis[0] - sp.I / 2)) == 0

    g = make_grid(1, 8.0, 64)
    u = gaussian_wavepacket(g, 2.0, 2.0)
    lhs = quantize_dense(sym_xi, g, "weyl").compose(quantize_dense(sym_x, g, "weyl")).apply(u)
    rhs = quantize_dense(c, g, "weyl").apply(u)
    dense_err = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(lhs.values))

    # truncation-order gain on wavepackets with spectrum in [k0, 2k0]
    a = SympySymbol((1 + sp.exp(-xs[0] ** 2)) * xis[0] ** 2, 1, 2.0, zero_nyquist=False)
    b = SympySymbol(
        sp.exp(-xs[0] ** 2 / 4) * sp.exp(-xis[0] ** 2 / 512), 1, 0.0, zero_nyquist=False
    )
    gg = make_grid(1, 2 * np.pi, 512)
    k0 = 16.0
    A = quantize_dense(a, gg, "weyl")
    B = quantize_dense(b, gg, "weyl")
    composed = [quantize_dense(compose_symbols(a, b, K=K), gg, "weyl") for K in (0, 1, 2, 3)]
    min_gain = np.inf
    for k in (k0, 1.5 * k0, 2 * k0):
        u = Field.from_function(gg, lambda x, k=k: np.exp(-(x**2) / 2) * np.exp(1j * k * x))
        ref = A.apply(B.apply(u)).values
        scale = np.max(np.abs(ref))
        res = [np.max(np.abs(ref - C.apply(u).values)) / scale for C in composed]
        min_gain = min(min_gain, min(hi / lo for hi, lo in zip(res[:-1], res[1:])))
    ok = exact and dense_err <= 1e-8 and min_gain >= k0 / 4.0
    report(
        2,
        ok,
        f"xi#x = x xi - i/2 (exact={exact}, dense err {dense_err:.2e} <= 1e-8), "
        f"min order gain {min_gain:.1f} >= {k0 / 4:.0f}",
    )


# -- 3. conservation and dispersion ----------------------------------------------------


def test_criterion_3_conservation_dispersion():
    g = make_grid(1, np.pi, 128)
    u0 = Field.from_function(g, lambda x: np.exp(4j * x))
    errs = {}
    for scheme, tol in (("rk4", 1e-6), ("if_rk4", 1e-12)):
        sol = solve_linear(catalog("airy"), u0, T=0.1, scheme=scheme)
        exact = Field.from_function(g, lambda x: np.exp(1j * (4 * x + 64 * sol.times[-1])))
        errs[scheme] = l2_norm(sol.final - exact) / l2_norm(exact)
    disp_ok = errs["rk4"] <= 1e-6 and errs["if_rk4"] <= 1e-12

    g1 = make_grid(1, 40 * np.pi, 1024)
    g2 = make_grid(2, 40 * np.pi, 512)
    g2s = make_grid(2, 10 * np.pi, 128)
    runs = {
        "airy": (catalog("airy"), gaussian_wavepacket(g1, 1.0, 8.0)),
        "gaussian_kdv": (catalog("gaussian_kdv", eps=0.05), gaussian_wavepacket(g1, 1.0, 8.0)),
        "zk": (catalog("zk"), gaussian_wavepacket(g2, [1.0, 0.0], 16.0)),
        "kdv_sum": (catalog("kdv_sum", n=2), gaussian_wavepacket(g2, [1.0, 0.0], 16.0)),
        "ultrahyperbolic": (
            catalog("ultrahyperbolic", eps=0.05),
            gaussian_wavepacket(g2s, [1.0, 0.0], 4.0),
        ),
    }
    drifts = {}
    for name, (a, u0) in runs.items():
        norms = NormSeries(u0.grid)
        solve_linear(a, u0, T=1.0, store_stride=16, consume=norms)
        drifts[name] = norms.l2_drift()
    cons_ok = all(v <= 1e-6 for v in drifts.values())
    report(
        3,
        disp_ok and cons_ok,
        f"plane-wave err rk4 {errs['rk4']:.2e} <= 1e-6, if_rk4 {errs['if_rk4']:.2e} <= 1e-12; "
        f"drifts {({k: f'{v:.1e}' for k, v in drifts.items()})} <= 1e-6",
    )


# -- 4. admissibility verdicts ---------------------------------------------------------


def test_criterion_4_admissibility(sample_1d, sample_2d):
    passing = {
        "airy": (catalog("airy"), sample_1d),
        "zk": (catalog("zk"), sample_2d),
        "kdv_sum_n2": (catalog("kdv_sum", n=2), sample_2d),
        "ultrahyperbolic": (catalog("ultrahyperbolic", eps=0.05), sample_2d),
        "gaussian_kdv": (catalog("gaussian_kdv", eps=0.05), sample_1d),
    }
    results = {}
    slacks = {}
    for name, (a, S) in passing.items():
        rep = admissibility_report(a, S)
        results[name] = rep.verdict
        slacks[name] = rep.slack.C1 if rep.slack else 0.0
    pass_ok = all(v == "pass" for v in results.values()) and all(c > 0 for c in slacks.values())

    fail_big = admissibility_report(catalog("gaussian_kdv", eps=5.0), sample_1d).verdict
    xs, xis = phase_symbols(2)
    degenerate = SympySymbol(xis[0] ** 3, 2, 3.0)
    fail_deg = admissibility_report(degenerate, sample_2d).verdict
    fail_ok = fail_big == "fail" and fail_deg == "fail"
    report(
        4,
        pass_ok and fail_ok,
        f"pass verdicts {results} with C1 {({k: f'{v:.2f}' for k, v in slacks.items()})}; "
        f"gaussian_kdv(5)={fail_big}, xi1^3={fail_deg}",
    )


# -- 5. Doi weight ---------------------------------------------------------------------


def test_criterion_5_doi_weight(sample_1d):
    outcomes = {}
    for name, kw in [("airy", {}), ("gaussian_kdv", dict(eps=0.05))]:
        a = catalog(name, **kw)
        gw = garding_weight(a, S=sample_1d)
        dw = doi_weight(a, gw, eps=0.1, S=sample_1d)
        fit = doi_slack(a, dw, sample_1d)
        outcomes[name] = (fit.verdict, fit.C1)
    slack_ok = all(v == "pass" and c > 0 for v, c in outcomes.values())

    # three-region structure at plateau probes (airy weight, unscaled symbol)
    a = catalog("airy")
    gw = garding_weight(a, S=sample_1d)
    dw = doi_weight(a, gw, eps=0.1, S=sample_1d)
    qv = gw.q.eval(5.0, 2.0).item().real
    plateau = dw.base_symbol.eval(5.0, 2.0).item().real
    region_ok = (
        dw.region(5.0, 2.0).item() == 1
        and np.isclose(plateau, dw.f(abs(qv)).item() + 2 * dw.eps, rtol=1e-12)
        and dw.region(0.0, 1.0).item() == 0
        and abs(dw.base_symbol.eval(0.0, 1.0).item().real) < 1e-14
    )

    # f'(|q|) = lam_tilde(|q|) >= lam(|x|), the bound the Doi argument uses
    fprime_ok = dw.lam_tilde_margin(sample_1d) >= -1e-15
    report(
        5,
        slack_ok and region_ok and fprime_ok,
        f"doi slack {({k: f'{v[1]:.3f}' for k, v in outcomes.items()})} > 0; "
        f"three-region exact={region_ok}; f'(|q|) >= lam(|x|)={fprime_ok}",
    )


# -- 6. E-conjugation -------------------------------------------------------------------


def test_criterion_6_exp_weights(sample_1d):
    a = catalog("airy")
    gw = garding_weight(a, S=sample_1d)
    dw = doi_weight(a, gw, eps=0.1, S=sample_1d)
    fits = {}
    for N in (64, 128):
        fits[N] = exp_weight_operators(dw, make_grid(1, 8.0, N)).conjugation_C
    ratio = fits[128] / fits[64]
    pair = exp_weight_operators(dw, make_grid(1, 8.0, 64))
    c1, c2 = pair.equivalence_fit()
    ok = 0.4 <= ratio <= 2.5 and c1 > 0
    report(
        6,
        ok,
        f"conjugation C(64)={fits[64]:.2e}, C(128)={fits[128]:.2e}, ratio {ratio:.2f} in "
        f"[0.4, 2.5]; N(u) equivalence c1={c1:.3f} > 0 (c2={c2:.3f})",
    )


# -- 7. smoothing family ------------------------------------------------------------------


def test_criterion_7_smoothing_family():
    g = make_grid(1, 40 * np.pi, 4096)
    carriers = (4.0, 8.0, 16.0, 32.0)
    results = {}
    for name, kw, spread_bound in [("airy", {}, 4.0), ("gaussian_kdv", dict(eps=0.05), 8.0)]:
        a = catalog(name, **kw)
        data = {k: gaussian_wavepacket(g, k, 8.0) for k in carriers}
        T = 0.8 * min(wrap_guard(a, u).horizon for u in data.values())
        r_ii, r_i, r_iii, unweighted = {}, {}, {}, {}
        for k, u0 in data.items():
            # one solve scores (ii), (i) and the unweighted integral
            ii = SmoothingSeries(g, a.order, "ii", 0.0, None)
            i = SmoothingSeries(g, a.order, "i", 0.0, None)
            h1 = NormSeries(g, (1.0,))
            solve_linear(a, u0, T=T, store_stride=4, consume=lambda t, v: (ii(t, v), i(t, v), h1(t, v)))
            r_ii[k] = ii.report().ratio
            r_i[k] = i.report().ratio
            unweighted[k] = float(np.trapezoid([float(row[0]) ** 2 for row in h1.sobolev], h1.times))
            forced, _ = smoothing_report(a, Field.zero(g), u0, "iii", 0.0, T=T, store_stride=4)
            r_iii[k] = forced.ratio
        spread = max(r_ii.values()) / min(r_ii.values())
        growth = unweighted[32.0] / unweighted[4.0]
        bounded = all(np.isfinite(v) and 0 < v <= 8.0 for v in list(r_i.values()) + list(r_iii.values()))
        results[name] = dict(T=T, spread=spread, growth=growth, bounded=bounded)
    ok = (
        results["airy"]["spread"] <= 4.0
        and results["airy"]["growth"] >= 50.0
        and results["gaussian_kdv"]["spread"] <= 8.0
        and all(r["bounded"] for r in results.values())
    )
    report(
        7,
        ok,
        f"airy spread {results['airy']['spread']:.2f} <= 4, growth "
        f"{results['airy']['growth']:.0f} >= 50; gaussian_kdv spread "
        f"{results['gaussian_kdv']['spread']:.2f} <= 8; (i)/(iii) ratios bounded by 8",
    )


# -- 8. non-trapping ------------------------------------------------------------------------


def test_criterion_8_nontrapping():
    a_airy = catalog("airy")
    verdict = trapping_probe(a_airy, 0.0, 1.0, R=10.0, T_max=5.0, h=0.01)
    escape_ok = (
        verdict.forward_escape_time is not None
        and abs(verdict.forward_escape_time - 10.0 / 3.0) <= 1e-6
    )

    a = catalog("gaussian_kdv", eps=0.05)
    d1 = integrate_bicharacteristic(a, 0.5, 1.2, T=3.0, h=0.08).drift
    d2 = integrate_bicharacteristic(a, 0.5, 1.2, T=3.0, h=0.04).drift
    halving = d1 / d2
    drift_ok = 12.0 <= halving <= 20.0

    traj = integrate_bicharacteristic(a, 0.0, 1.0, T=4.0, h=0.005)
    elliptic = classify_strong_ellipticity(a, traj)
    qrep = qdelta_monotonicity(a, traj, delta=0.5)
    q_ok = elliptic.ok and qrep.identity_rel_error <= 1e-6 and qrep.mu > 0

    # airy integral identity at delta = 1: q_delta(t) = 4.5 t exactly
    traj0 = integrate_bicharacteristic(a_airy, 0.0, 1.0, T=2.0, h=0.01)
    q0 = qdelta_monotonicity(a_airy, traj0, delta=1.0)
    airy_ok = q0.identity_rel_error <= 1e-6 and np.isclose(q0.mu, 4.5, rtol=1e-9)

    ok = escape_ok and drift_ok and q_ok and airy_ok
    report(
        8,
        ok,
        f"escape {verdict.forward_escape_time:.7f} = 10/3 +- 1e-6; drift halving "
        f"{halving:.1f} in [12, 20]; q_delta identity err {qrep.identity_rel_error:.1e} <= 1e-6, "
        f"mu {qrep.mu:.3f} > 0 (airy slope 4.5 exact)",
    )


# -- 9. NLIVP ---------------------------------------------------------------------------------


def test_criterion_9_nlivp():
    g = make_grid(1, 20 * np.pi, 256)
    a = catalog("airy")
    spec = NonlinearitySpec(1, 0, (1,))
    u0 = gaussian_wavepacket(g, 0.0, 8.0, amplitude=0.01)
    kw = dict(s=15.0, T=0.1, tol=1e-8, dt=2e-4, store_stride=8)
    run = picard_solve(a, u0, spec, **kw)
    rho_ok = run.converged and all(r < 0.5 for r in run.contraction_factors)
    res_ok = run.residual <= 1e-4

    direct = direct_nonlinear_solve(a, u0, spec, T=0.1, dt=2e-4, store_stride=8)
    agree = max(
        l2_norm(run.solution.field(i) - direct.field(i)) for i in range(len(direct.times))
    )
    agree_ok = agree <= 1e-4

    pert = Field.from_function(g, lambda x: np.exp(-(x**2) / 6) * np.exp(1j * x))
    kw_c = dict(s=15.0, T=0.05, tol=1e-10, dt=2e-4, store_stride=8)
    base_run = picard_solve(a, u0, spec, **kw_c)
    ratios = []
    for delta in (1e-3, 5e-4, 2.5e-4):
        u0d = Field(g, u0.values + delta * pert.values)
        rund = picard_solve(a, u0d, spec, **kw_c)
        change = max(
            l2_norm(rund.solution.field(i) - base_run.solution.field(i))
            for i in range(len(base_run.solution.times))
        )
        ratios.append(change / delta)
    ladder_ok = max(ratios) / min(ratios) <= 3.0

    diverged = False
    try:
        picard_solve(a, gaussian_wavepacket(g, 0.0, 8.0, amplitude=100.0), spec, **kw)
    except PicardDivergenceError:
        diverged = True

    ok = rho_ok and res_ok and agree_ok and ladder_ok and diverged
    report(
        9,
        ok,
        f"rho max {max(run.contraction_factors):.3f} < 0.5, residual {run.residual:.2e} <= 1e-4, "
        f"direct agreement {agree:.2e} <= 1e-4, continuity spread "
        f"{max(ratios) / min(ratios):.2f} <= 3, amplitude-100 aborts={diverged}",
    )


# -- 10. appendix ------------------------------------------------------------------------------


def test_criterion_10_appendix():
    import sympy as sp

    g = make_grid(1, 10.0, 64)
    xs, xis = phase_symbols(1)
    worst = 0.0
    for deg in (1, 2, 3):
        for N_w in (1, 2):
            for expr in (xis[0] ** deg, xis[0] ** deg + xs[0] ** 2 / 50 * xis[0] ** max(0, deg - 2)):
                sym = SympySymbol(expr, 1, float(deg), zero_nyquist=False)
                worst = max(worst, lemmatec1_residual(sym, N_w, g).residual)
    identity_ok = worst <= 1e-10

    scan = lemmatec3_scan(delta_list=(0.01, 0.1, 0.5, 1.0))
    scan_ok = scan.passed and scan.constants == {"c": 0.5, "c1": 4.0}

    gp = make_grid(1, 60 * np.pi, 1024)
    u0 = Field.from_function(gp, lambda x: np.exp(-(x**2) / 8))
    probe = weighted_propagator_probe(
        catalog("airy"), u0, [0.5, 1.0, 2.0], s=0.0, N_w=1, store_stride=4
    )
    probe_ok = probe.stability <= 2.0

    ok = identity_ok and scan_ok and probe_ok
    report(
        10,
        ok,
        f"commutation residual {worst:.2e} <= 1e-10; scalar scan slack "
        f"{scan.worst_slack:.3f} >= 0; propagator-bound c stable x{probe.stability:.2f} <= 2",
    )


# -- 11. m = 2 regression -----------------------------------------------------------------------


def test_criterion_11_order_two_regression(sample_2d):
    a = catalog("ultrahyperbolic", eps=0.05)

    # criterion 1 at n = 2, N = 32
    adj = quantize_dense(a, make_grid(2, np.pi, 32), "weyl").adjoint_residual
    adj_ok = adj <= 1e-10

    # criterion 3: plane-wave dispersion for the constant part, plus L^2 drift
    a0 = catalog("ultrahyperbolic")
    gp = make_grid(2, np.pi, 32)
    u0p = Field.from_function(gp, lambda x, y: np.exp(1j * (2 * x + y)))
    solp = solve_linear(a0, u0p, T=0.1, scheme="if_rk4")
    # a(2, 1) = 4 - 1 = 3, so u = exp(i(2x + y + 3t))
    exact = Field.from_function(
        gp, lambda x, y: np.exp(1j * (2 * x + y + 3.0 * solp.times[-1]))
    )
    disp = l2_norm(solp.final - exact) / l2_norm(exact)
    g2s = make_grid(2, 10 * np.pi, 128)
    norms = NormSeries(g2s)
    solve_linear(a, gaussian_wavepacket(g2s, [1.0, 0.0], 4.0), T=1.0, store_stride=16, consume=norms)
    drift = norms.l2_drift()
    c3_ok = disp <= 1e-12 and drift <= 1e-6

    # criterion 4
    adm = admissibility_report(a, sample_2d)
    c4_ok = adm.passed and adm.slack.C1 > 0

    # smoothing family with half-derivative gain (weighted index s + 1/2)
    L = 512 * np.pi / (2 * 36.0)
    g = make_grid(2, L, 512)
    carriers = (4.0, 8.0, 16.0, 32.0)
    data = {k: gaussian_wavepacket(g, [k, 0.0], 5.0) for k in carriers}
    T = 0.8 * min(wrap_guard(a, u).horizon for u in data.values())
    ratios = {}
    assert a.order == 2.0  # gain (m-1)/2 = 1/2
    for k, u0 in data.items():
        rep, _ = smoothing_report(a, u0, None, "ii", 0.0, T=T, dt=2.2e-3, store_stride=4)
        ratios[k] = rep.ratio
    spread = max(ratios.values()) / min(ratios.values())
    family_ok = spread <= 8.0

    ok = adj_ok and c3_ok and c4_ok and family_ok
    report(
        11,
        ok,
        f"adjoint {adj:.1e} <= 1e-10; dispersion {disp:.1e} <= 1e-12, drift {drift:.1e} <= 1e-6; "
        f"admissible with C1 {adm.slack.C1:.2f} > 0; half-gain family spread {spread:.2f} <= 8",
    )
