"""Batch experiment driver: config parsing, orchestration, report emission.

Configs are JSON: a single experiment object or {"experiments": [...], "threads": n}.
Every experiment object supports

    {
      "experiment": "check-admissible" | "doi-weight" | "trace-bichar" |
                    "solve-linear" | "smoothing-report" | "solve-nlivp" |
                    "positivity" | "appendix" | "kdv-type-build",
      "symbol":  {"name": "airy", "params": {...}}        # catalog reference
                 | {"coefficients": [["..."]], "n": 1}    # kdv-type-build only
      "grid":    {"n": 1, "L": 125.66, "N": 1024},
      "weight":  {"exponent": 2, "eps": 0.1},
      "run":     {... experiment-specific keys ...},
      "output":  {"prefix": "my_run"},
      "seed":    1234
    }

Unknown keys are rejected with the offending path.  Reports embed the fully
resolved config, all paper-condition verdicts, the seed, and a determinism
hash (sha256 over the canonical report minus the timestamp).  Exit codes:
0 all verdicts pass, 2 a verdict failed or was inconclusive, 1 runtime or
config error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .grid import Field, gaussian_wavepacket, make_grid, sobolev_norm
from .symbol import CATALOG, SampleSet, catalog
from .weights import WeightFn

__all__ = ["run", "list_catalog", "main", "ConfigError"]

ENV_OUT_DIR = "WEYLAB_OUT"

EXPERIMENTS = (
    "check-admissible",
    "doi-weight",
    "trace-bichar",
    "solve-linear",
    "smoothing-report",
    "solve-nlivp",
    "positivity",
    "appendix",
    "kdv-type-build",
)


class ConfigError(ValueError):
    """Config schema violation with the offending field path."""


# -- schema validation ------------------------------------------------------------


def _expect(cfg: dict, path: str, allowed: dict, required: tuple = ()):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{path}.{key}: required key missing")
    for key, val in cfg.items():
        kind = allowed[key]
        if kind is None:
            continue
        if kind == "number" and not isinstance(val, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {type(val).__name__}")
        if kind == "int" and not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {type(val).__name__}")
        if kind == "str" and not isinstance(val, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {type(val).__name__}")
        if kind == "list" and not isinstance(val, list):
            raise ConfigError(f"{path}.{key}: expected a list, got {type(val).__name__}")
        if kind == "dict" and not isinstance(val, dict):
            raise ConfigError(f"{path}.{key}: expected an object, got {type(val).__name__}")
        if kind == "bool" and not isinstance(val, bool):
            raise ConfigError(f"{path}.{key}: expected a boolean, got {type(val).__name__}")


_RUN_KEYS = {
    "check-admissible": {
        "eps_threshold": "number",
        "c0_threshold": "number",
        "x_radius": "number",
        "xi_max": "number",
    },
    "doi-weight": {
        "x_radius": "number",
        "xi_max": "number",
        "export_surface": "bool",
        "p_cap": "number",
    },
    "trace-bichar": {
        "x0": "list",
        "xi0": "list",
        "T": "number",
        "h": "number",
        "R": "number",
        "delta": "number",
    },
    "solve-linear": {
        "T": "number",
        "dt": "number",
        "scheme": "str",
        "store_stride": "int",
        "datum": "dict",
        "conservation_tolerance": "number",
    },
    "smoothing-report": {
        "s": "number",
        "estimate": "str",
        "carriers": "list",
        "width2": "number",
        "T": "number",
        "store_stride": "int",
        "ratio_bound": "number",
        "growth_min": "number",
        "forced": "bool",
    },
    "solve-nlivp": {
        "s": "number",
        "T": "number",
        "dt": "number",
        "tol": "number",
        "max_iter": "int",
        "amplitude": "number",
        "width2": "number",
        "nonlinearity": "dict",
        "residual_tolerance": "number",
    },
    "positivity": {"flavor": "str", "probes": "int"},
    "appendix": {"N_w_max": "int", "degree_max": "int", "delta_list": "list"},
    "kdv-type-build": {"x_radius": "number", "xi_max": "number", "c0_threshold": "number"},
}

_DATUM_KEYS = {"kind": "str", "carrier": None, "width2": "number", "amplitude": "number"}
_NONLIN_KEYS = {"p": "int", "q": "int", "alpha": "list"}


_COEFF_FUNCTIONS = ("exp", "sin", "cos", "tanh", "sqrt")
_COEFF_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_coefficient(c, n: int, path: str) -> None:
    """Accept a number, or a string of numbers, x1..xn, + - * / **, unary minus
    and calls to exp, sin, cos, tanh, sqrt.  The string goes to sympy.sympify,
    which evaluates Python, so nothing else may reach it."""
    if isinstance(c, (int, float)) and not isinstance(c, bool):
        return
    if not isinstance(c, str):
        raise ConfigError(f"{path}: expected a number or an expression string")
    names = {f"x{i + 1}" for i in range(n)}

    def allowed(node) -> bool:
        if isinstance(node, ast.Constant):
            return type(node.value) in (int, float)
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, _COEFF_OPS) and allowed(node.left) and allowed(node.right)
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, ast.USub) and allowed(node.operand)
        if isinstance(node, ast.Call):
            return (
                isinstance(node.func, ast.Name)
                and node.func.id in _COEFF_FUNCTIONS
                and not node.keywords
                and len(node.args) == 1
                and allowed(node.args[0])
            )
        return False

    try:
        ok = allowed(ast.parse(c, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError):
        ok = False
    if not ok:
        raise ConfigError(
            f"{path}: {c!r} is not an expression in numbers, {', '.join(sorted(names))}, "
            f"+ - * / ** and {', '.join(_COEFF_FUNCTIONS)}"
        )


def _validate_experiment(cfg: dict, path: str) -> None:
    _expect(
        cfg,
        path,
        {
            "experiment": "str",
            "symbol": "dict",
            "grid": "dict",
            "weight": "dict",
            "run": "dict",
            "output": "dict",
            "seed": "int",
        },
        required=("experiment",),
    )
    kind = cfg["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(f"{path}.experiment: unknown experiment {kind!r} (known: {EXPERIMENTS})")
    if "symbol" in cfg:
        sym = cfg["symbol"]
        if kind == "kdv-type-build":
            _expect(sym, f"{path}.symbol", {"coefficients": "list", "n": "int"}, ("coefficients",))
            n = sym.get("n", len(sym["coefficients"]))
            for i, row in enumerate(sym["coefficients"]):
                if not isinstance(row, list):
                    raise ConfigError(f"{path}.symbol.coefficients[{i}]: expected a list")
                for j, c in enumerate(row):
                    _check_coefficient(c, n, f"{path}.symbol.coefficients[{i}][{j}]")
        else:
            _expect(sym, f"{path}.symbol", {"name": "str", "params": "dict"}, ("name",))
            if sym["name"] not in CATALOG:
                raise ConfigError(
                    f"{path}.symbol.name: unknown catalog symbol {sym['name']!r}"
                )
    if "grid" in cfg:
        _expect(cfg["grid"], f"{path}.grid", {"n": "int", "L": "number", "N": "int"}, ("n", "L", "N"))
    if "weight" in cfg:
        _expect(cfg["weight"], f"{path}.weight", {"exponent": "int", "eps": "number"})
    if "run" in cfg:
        _expect(cfg["run"], f"{path}.run", _RUN_KEYS[kind])
        if kind == "solve-linear" and "datum" in cfg["run"]:
            _expect(cfg["run"]["datum"], f"{path}.run.datum", _DATUM_KEYS, ("kind",))
        if kind == "solve-nlivp" and "nonlinearity" in cfg["run"]:
            _expect(cfg["run"]["nonlinearity"], f"{path}.run.nonlinearity", _NONLIN_KEYS)
    if "output" in cfg:
        _expect(cfg["output"], f"{path}.output", {"prefix": "str"})


def _validate_config(cfg) -> list[dict]:
    if isinstance(cfg, dict) and "experiments" in cfg:
        _expect(cfg, "config", {"experiments": "list", "threads": "int", "seed": "int"})
        exps = cfg["experiments"]
        if not exps:
            raise ConfigError("config.experiments: must not be empty")
        for i, e in enumerate(exps):
            _validate_experiment(e, f"config.experiments[{i}]")
        return exps
    _validate_experiment(cfg, "config")
    return [cfg]


# -- shared builders -----------------------------------------------------------------


def _build_symbol(cfg: dict):
    sym = cfg.get("symbol", {"name": "airy"})
    return catalog(sym["name"], **sym.get("params", {}))


def _build_grid(cfg: dict, default=None):
    g = cfg.get("grid")
    if g is None:
        if default is None:
            raise ConfigError("config.grid: required for this experiment")
        return default
    return make_grid(g["n"], g["L"], g["N"])


def _build_weight(cfg: dict) -> WeightFn:
    w = cfg.get("weight", {})
    return WeightFn(w.get("exponent", 2))


def _sample_set(a, run: dict, grid=None) -> SampleSet:
    kw = {}
    if "x_radius" in run:
        kw["x_radius"] = run["x_radius"]
    if "xi_max" in run:
        kw["xi_max"] = run["xi_max"]
    if grid is not None:
        kw.setdefault("x_radius", grid.L)
        kw.setdefault("xi_max", grid.xi_max)
    if a.n == 2:
        kw.setdefault("x_points", 9)
        kw.setdefault("xi_max", 32.0)
    return SampleSet.standard(a.n, **kw)


def _datum(grid, spec: Optional[dict]):
    spec = spec or {"kind": "wavepacket", "carrier": 1.0, "width2": 8.0, "amplitude": 1.0}
    kind = spec["kind"]
    carrier = spec.get("carrier", 1.0)
    if np.ndim(carrier) == 0:
        carrier = [float(carrier)] + [0.0] * (grid.n - 1)
    if kind == "wavepacket":
        return gaussian_wavepacket(
            grid, carrier, spec.get("width2", 8.0), spec.get("amplitude", 1.0)
        )
    if kind == "plane_wave":
        amp = spec.get("amplitude", 1.0)
        kvec = np.asarray(carrier)

        def fn(*xs):
            ph = sum(kvec[d] * xs[d] for d in range(grid.n))
            return amp * np.exp(1j * ph)

        return Field.from_function(grid, fn)
    if kind == "gaussian":
        return gaussian_wavepacket(grid, [0.0] * grid.n, spec.get("width2", 8.0), spec.get("amplitude", 1.0))
    raise ConfigError(f"run.datum.kind: unknown datum kind {kind!r}")


# -- experiment implementations ---------------------------------------------------------


def _exp_check_admissible(cfg, rng, outdir, prefix):
    from .weights import admissibility_report

    a = _build_symbol(cfg)
    lam = _build_weight(cfg)
    run = cfg.get("run", {})
    S = _sample_set(a, run)
    rep = admissibility_report(
        a,
        lam,
        S,
        eps_threshold=run.get("eps_threshold", 1.0),
        c0_threshold=run.get("c0_threshold", 1.0),
    )
    artifacts = []
    if rep.slack is not None:
        path = outdir / f"{prefix}_hamilton_slack.csv"
        rep.slack.to_csv(path)
        artifacts.append(str(path))
    return rep.as_dict(), {"admissible": rep.verdict}, artifacts


def _exp_doi_weight(cfg, rng, outdir, prefix):
    from .weights import doi_slack, doi_weight, garding_weight

    a = _build_symbol(cfg)
    lam = _build_weight(cfg)
    run = cfg.get("run", {})
    eps = cfg.get("weight", {}).get("eps", 0.1)
    S = _sample_set(a, run)
    gw = garding_weight(a, S=S)
    dw = doi_weight(a, gw, lam, eps=eps, S=S, p_cap=run.get("p_cap", 1.5))
    fit = doi_slack(a, dw, lam, S)
    t = np.linspace(0.0, 50.0 * dw.K, 2001)
    fprime_ok = bool(np.all(dw.f_prime(t) - dw.lam_tilde(t) >= -1e-15))
    artifacts = []
    if run.get("export_surface", True):
        path = outdir / f"{prefix}_doi_slack.csv"
        fit.to_csv(path)
        artifacts.append(str(path))
    details = {
        "K": dw.K,
        "eps": dw.eps,
        "rho": dw.rho,
        "slack": fit.as_dict(),
        "f_prime_dominates": fprime_ok,
        "f_bound_fit": dw.f_derivative_bound_fit(),
    }
    verdicts = {"doi_slack": fit.verdict, "f_prime_dominates": "pass" if fprime_ok else "fail"}
    return details, verdicts, artifacts


def _exp_trace_bichar(cfg, rng, outdir, prefix):
    from .hamilton import (
        classify_strong_ellipticity,
        escape_verdict,
        integrate_bicharacteristic,
        qdelta_monotonicity,
        trajectory_to_csv,
    )

    a = _build_symbol(cfg)
    run = cfg.get("run", {})
    x0 = run.get("x0", [0.0] * a.n)
    xi0 = run.get("xi0", [1.0] + [0.0] * (a.n - 1))
    T = run.get("T", 4.0)
    h = run.get("h", 0.01)
    delta = run.get("delta", 0.5)
    traj = integrate_bicharacteristic(a, x0, xi0, T=T, h=h)
    cls = classify_strong_ellipticity(a, traj)
    probe = escape_verdict(traj, R=run.get("R", 10.0), horizon=T)
    details = {
        "drift": traj.drift,
        "xi_range": [traj.xi_min, traj.xi_max],
        "strongly_elliptic": {"ok": cls.ok, "C": None if not np.isfinite(cls.C) else cls.C, "reason": cls.reason},
        "trapping": {
            "verdict": probe.verdict,
            "forward_escape_time": probe.forward_escape_time,
            "backward_escape_time": probe.backward_escape_time,
        },
    }
    verdicts = {"nontrapped": "pass" if probe.nontrapped else "inconclusive"}
    if cls.ok:
        qrep = qdelta_monotonicity(a, traj, delta)
        details["qdelta"] = {
            "delta": delta,
            "identity_rel_error": qrep.identity_rel_error,
            "mu": qrep.mu,
            "ls_slope": qrep.ls_slope,
        }
        verdicts["qdelta_identity"] = "pass" if qrep.identity_rel_error <= 1e-6 else "fail"
        verdicts["qdelta_growth"] = "pass" if qrep.mu > 0 else "fail"
    path = outdir / f"{prefix}_trajectory.csv"
    trajectory_to_csv(path, traj, a, delta=delta)
    return details, verdicts, [str(path)]


def _exp_solve_linear(cfg, rng, outdir, prefix):
    from .evolve import solve_linear

    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    run = cfg.get("run", {})
    u0 = _datum(g, run.get("datum"))
    sol = solve_linear(
        a,
        u0,
        T=run.get("T", 0.1),
        dt=run.get("dt"),
        scheme=run.get("scheme", "auto"),
        store_stride=run.get("store_stride", 1),
    )
    drift = sol.l2_drift()
    tol = run.get("conservation_tolerance", 1e-6)
    series_path = outdir / f"{prefix}_norms.csv"
    with open(series_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "l2", "h1"])
        for i, t in enumerate(sol.times):
            w.writerow([t, sobolev_norm(sol.field(i), 0.0), sobolev_norm(sol.field(i), 1.0)])
    details = {
        "scheme": sol.scheme,
        "dt": sol.dt,
        "steps": int(round(sol.times[-1] / sol.dt)),
        "l2_drift": drift,
        "wrap_horizon": sol.guard.horizon if sol.guard else None,
    }
    verdicts = {}
    if a.real_valued and sol.source is None:
        verdicts["l2_conservation"] = "pass" if drift <= tol else "fail"
    return details, verdicts, [str(series_path)]


def _family_T(a, data):
    from .evolve import wrap_guard

    horizons = [wrap_guard(a, u).horizon for u in data]
    horizons = [h for h in horizons if h is not None]
    if not horizons:
        raise ConfigError("smoothing families need localized data (wrap guard undefined)")
    return 0.8 * min(horizons)


def _exp_smoothing_report(cfg, rng, outdir, prefix):
    from .evolve import smoothing_report, solve_linear

    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    lam = _build_weight(cfg)
    run = cfg.get("run", {})
    s = run.get("s", 0.0)
    estimate = run.get("estimate", "ii")
    carriers = run.get("carriers", [4, 8, 16, 32])
    width2 = run.get("width2", 8.0)
    forced = run.get("forced", estimate == "iii")
    stride = run.get("store_stride", 4)
    data = {
        float(k): gaussian_wavepacket(g, [float(k)] + [0.0] * (g.n - 1), width2) for k in carriers
    }
    T = run.get("T") or _family_T(a, list(data.values()))
    gain = (a.order - 1.0) / 2.0
    ratios = {}
    unweighted = {}
    rows = []
    for k, u0 in data.items():
        if forced:
            sol = solve_linear(a, Field.zero(g), u0, T=T, store_stride=stride)
            rep = smoothing_report(sol, estimate, s, lam, f=u0)
        else:
            sol = solve_linear(a, u0, T=T, store_stride=stride)
            rep = smoothing_report(sol, estimate, s, lam)
        ratios[k] = rep.ratio
        unw = float(
            np.trapezoid(
                [sobolev_norm(sol.field(i), s + gain) ** 2 for i in range(len(sol.times))],
                sol.times,
            )
        )
        unweighted[k] = unw
        rows.append([k, rep.lhs, rep.rhs, rep.ratio, unw])
    path = outdir / f"{prefix}_family.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["carrier", "lhs", "rhs", "ratio", "unweighted_integral"])
        w.writerows(rows)
    spread = max(ratios.values()) / min(ratios.values())
    details = {
        "estimate": estimate,
        "s": s,
        "T": T,
        "gain": gain,
        "ratios": {str(k): v for k, v in ratios.items()},
        "ratio_spread": spread,
        "unweighted": {str(k): v for k, v in unweighted.items()},
    }
    verdicts = {"family_bounded": "pass" if spread <= run.get("ratio_bound", 8.0) else "fail"}
    if "growth_min" in run and len(carriers) >= 2:
        ks = sorted(unweighted)
        growth = unweighted[ks[-1]] / unweighted[ks[0]]
        details["unweighted_growth"] = growth
        verdicts["unweighted_growth"] = "pass" if growth >= run["growth_min"] else "fail"
    return details, verdicts, [str(path)]


def _exp_solve_nlivp(cfg, rng, outdir, prefix):
    import warnings

    from .nonlinear import NonlinearitySpec, PicardDivergenceError, picard_solve

    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    lam = _build_weight(cfg)
    run = cfg.get("run", {})
    nl = run.get("nonlinearity", {"p": 1, "q": 0, "alpha": [1]})
    spec = NonlinearitySpec(nl.get("p", 1), nl.get("q", 0), tuple(nl.get("alpha", [1])))
    u0 = gaussian_wavepacket(
        g, [0.0] * g.n, run.get("width2", 8.0), run.get("amplitude", 0.01)
    )
    artifacts = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            picard = picard_solve(
                a,
                u0,
                spec,
                s=run.get("s", 15.0),
                lam=lam,
                T=run.get("T", 0.1),
                tol=run.get("tol", 1e-8),
                max_iter=run.get("max_iter", 25),
                dt=run.get("dt"),
                store_stride=8,
            )
    except PicardDivergenceError as exc:
        return (
            {"diverged": True, "message": str(exc)},
            {"picard_converged": "fail"},
            artifacts,
        )
    path = outdir / f"{prefix}_iterates.json"
    _atomic_json(
        path,
        {
            "xts_history": picard.xts_history,
            "contraction_factors": picard.contraction_factors,
            "residual": picard.residual,
        },
    )
    artifacts.append(str(path))
    tol_res = run.get("residual_tolerance", 1e-4)
    details = {
        "iterations": picard.iterations,
        "contraction_factors": picard.contraction_factors,
        "residual": picard.residual,
        "xts_final": picard.xts_history[-1] if picard.xts_history else None,
    }
    verdicts = {
        "picard_converged": "pass" if picard.converged else "fail",
        "residual": "pass" if picard.residual <= tol_res else "fail",
    }
    return details, verdicts, artifacts


def _exp_positivity(cfg, rng, outdir, prefix):
    from .calculus import positivity_diagnostic

    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    run = cfg.get("run", {})
    rep = positivity_diagnostic(
        a, g, run.get("flavor", "sharp_garding"), probes=run.get("probes", 48), seed=int(rng.integers(2**31))
    )
    stable = 0.5 <= rep.stability_ratio <= 2.0 or all(c <= 1e-10 for c in rep.fitted_C.values())
    return rep.as_dict(), {"refinement_stable": "pass" if stable else "inconclusive"}, []


def _exp_appendix(cfg, rng, outdir, prefix):
    from .appendix_checks import lemmatec1_residual, lemmatec3_scan
    from .symbol import SympySymbol, phase_symbols

    run = cfg.get("run", {})
    g = _build_grid(cfg, default=make_grid(1, 10.0, 64))
    xs, xis = phase_symbols(1)
    degs = range(1, run.get("degree_max", 3) + 1)
    worst = 0.0
    for deg in degs:
        for N_w in range(1, run.get("N_w_max", 2) + 1):
            sym = SympySymbol(xis[0] ** deg, 1, float(deg), zero_nyquist=False)
            worst = max(worst, lemmatec1_residual(sym, N_w, g).residual)
    scan = lemmatec3_scan(delta_list=tuple(run.get("delta_list", [0.01, 0.1, 0.5, 1.0])))
    details = {"commutation_worst_residual": worst, "scalar_scan": scan.as_dict()}
    verdicts = {
        "commutation_identity": "pass" if worst <= 1e-10 else "fail",
        "scalar_inequality": "pass" if scan.passed else "fail",
    }
    return details, verdicts, []


def _exp_kdv_type_build(cfg, rng, outdir, prefix):
    import sympy as sp

    from .symbol import VectorFieldSystem, build_kdv_type
    from .symbol.checks import check_im_smallness

    sym_cfg = cfg["symbol"]
    rows = sym_cfg["coefficients"]
    n = sym_cfg.get("n", len(rows))
    xs_names = {f"x{i + 1}": sp.Symbol(f"x{i + 1}", real=True) for i in range(n)}
    coeffs = [[sp.sympify(c, locals=xs_names) for c in row] for row in rows]
    system = VectorFieldSystem(n, coeffs)
    build = build_kdv_type(system)
    lam = _build_weight(cfg)
    run = cfg.get("run", {})
    S = _sample_set(build.full, run)
    im_rep = check_im_smallness(build.full, lam, S, c0_threshold=run.get("c0_threshold", 1.0))
    from .weights import admissibility_report

    adm = admissibility_report(build.a3, lam, S)
    details = {
        "corrections": [str(c) for c in build.corrections],
        "qualifying_directions": system.qualifying_directions(),
        "im_smallness": im_rep.as_dict(),
        "a3_admissibility": adm.as_dict(),
    }
    verdicts = {"im_smallness": im_rep.verdict, "a3_admissible": adm.verdict}
    return details, verdicts, []


_DISPATCH = {
    "check-admissible": _exp_check_admissible,
    "doi-weight": _exp_doi_weight,
    "trace-bichar": _exp_trace_bichar,
    "solve-linear": _exp_solve_linear,
    "smoothing-report": _exp_smoothing_report,
    "solve-nlivp": _exp_solve_nlivp,
    "positivity": _exp_positivity,
    "appendix": _exp_appendix,
    "kdv-type-build": _exp_kdv_type_build,
}


# -- report plumbing ---------------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _atomic_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_one(cfg: dict, index: int, base_seed: int, outdir: Path) -> dict:
    kind = cfg["experiment"]
    seed = cfg.get("seed", base_seed + index)
    rng = np.random.default_rng(seed)
    prefix = cfg.get("output", {}).get("prefix", f"{kind.replace('-', '_')}_{index}")
    start = time.time()
    details, verdicts, artifacts = _DISPATCH[kind](cfg, rng, outdir, prefix)
    report = {
        "schema_version": 1,
        "weylab_version": __version__,
        "experiment": kind,
        "resolved_config": cfg,
        "seed": seed,
        "details": details,
        "verdicts": verdicts,
        "artifacts": artifacts,
    }
    # wall-clock fields stay out of the determinism hash
    report["determinism_sha256"] = hashlib.sha256(_canonical(report).encode()).hexdigest()
    report["elapsed_seconds"] = round(time.time() - start, 3)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _atomic_json(outdir / f"{prefix}_report.json", report)
    return report


def run(
    config_path,
    out_dir: Optional[str] = None,
    threads: Optional[int] = None,
    seed: Optional[int] = None,
    json_to_stdout: bool = False,
) -> int:
    """Execute a config file; returns the process exit code."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 1
    try:
        experiments = _validate_config(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(out_dir or os.environ.get(ENV_OUT_DIR, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    base_seed = seed if seed is not None else cfg.get("seed", 0) if isinstance(cfg, dict) else 0
    nthreads = threads or (cfg.get("threads", 1) if isinstance(cfg, dict) else 1)

    try:
        if nthreads > 1 and len(experiments) > 1:
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                reports = list(
                    pool.map(
                        lambda pair: _run_one(pair[1], pair[0], base_seed, outdir),
                        enumerate(experiments),
                    )
                )
        else:
            reports = [_run_one(e, i, base_seed, outdir) for i, e in enumerate(experiments)]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: exit 1 per contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if json_to_stdout:
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    all_verdicts = [v for r in reports for v in r["verdicts"].values()]
    if any(v != "pass" for v in all_verdicts):
        return 2
    return 0


def list_catalog(as_json: bool = False) -> str:
    """Deterministic listing of symbols, experiments, and config keys."""
    if as_json:
        payload = {
            "symbols": {
                name: {"summary": e.summary, "params": e.params} for name, e in sorted(CATALOG.items())
            },
            "experiments": list(EXPERIMENTS),
            "config_keys": {
                "common": ["experiment", "symbol", "grid", "weight", "run", "output", "seed"],
                "run": {k: sorted(v) for k, v in sorted(_RUN_KEYS.items())},
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = ["catalog symbols:"]
    for name, entry in sorted(CATALOG.items()):
        lines.append(f"  {name:16s} {entry.summary}")
        for pname, pdoc in sorted(entry.params.items()):
            lines.append(f"    param {pname}: {pdoc}")
    lines.append("experiments:")
    for e in EXPERIMENTS:
        lines.append(f"  {e}")
    lines.append("config keys: experiment, symbol, grid, weight, run, output, seed")
    for kind in EXPERIMENTS:
        lines.append(f"  run keys for {kind}: {', '.join(sorted(_RUN_KEYS[kind])) or '(none)'}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylab",
        description="Numerical laboratory for Weyl calculus and dispersive smoothing estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out-dir", default=None, help=f"output directory (default: ${ENV_OUT_DIR} or .)")
    p_run.add_argument("--threads", type=int, default=None, help="parallel experiments in a batch")
    p_run.add_argument("--seed", type=int, default=None, help="base seed for randomized probes")
    p_run.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p_list = sub.add_parser("list", help="list catalog symbols, experiments, config keys")
    p_list.add_argument("--json", action="store_true", help="machine-readable catalog")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command == "list":
        print(list_catalog(as_json=args.json))
        return 0
    return run(
        args.config,
        out_dir=args.out_dir,
        threads=args.threads,
        seed=args.seed,
        json_to_stdout=args.json,
    )


if __name__ == "__main__":
    sys.exit(main())
