"""Batch experiment driver: config parsing, orchestration, report emission.

Configs are JSON: a single experiment object or {"experiments": [...], "threads": n}.
Every experiment object supports

    {
      "experiment": "solve-linear",                     # a kind from `weylab list`
      "symbol":  {"name": "airy", "params": {...}}        # catalog reference
                 | {"coefficients": [["..."]], "n": 1}    # kdv-type-build only
      "grid":    {"n": 1, "L": 125.66, "N": 1024},
      "weight":  {"eps": 0.1},
      "run":     {... experiment-specific keys ...},
      "output":  {"prefix": "my_run"},
      "seed":    1234
    }

Validation, defaults, dispatch and `weylab list` all read one experiment table.
Config errors name the offending path and stop the run before any experiment.
Reports embed the config as given, all paper-condition verdicts, the seed,
artifact paths relative to the output directory, and a determinism hash (sha256
over the report minus the wall-clock fields).  An experiment that raises gets a
report with "status": "error" and no verdicts, and the batch goes on.  Exit
codes: 0 all verdicts pass, 2 a verdict failed or was inconclusive, 1 a config
error or a failed experiment.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import sympy as sp

from . import __version__
from .appendix_checks import lemmatec1_residual, lemmatec3_scan
from .calculus import POSITIVITY_FLAVORS, positivity_diagnostic
from .evolve import ESTIMATES, SCHEMES, NormSeries, SmoothingSeries, solve_linear, wrap_guard
from .export import write_csv
from .grid import Field, gaussian_wavepacket, make_grid
from .hamilton import (
    classify_strong_ellipticity,
    escape_verdict,
    integrate_bicharacteristic,
    qdelta_monotonicity,
    trajectory_to_csv,
)
from .nonlinear import NonlinearitySpec, PicardDivergenceError, picard_solve
from .symbol import (
    CATALOG,
    SampleSet,
    SympySymbol,
    VectorFieldSystem,
    build_kdv_type,
    catalog,
    check_im_smallness,
    phase_symbols,
)
from .weights import admissibility_report, doi_slack, doi_weight, garding_weight

__all__ = ["run", "list_catalog", "main", "ConfigError"]

ENV_OUT_DIR = "WEYLAB_OUT"
# verdict bounds: solve-linear's l2_conservation holds when the relative L^2
# drift is at most CONSERVATION_TOL, solve-nlivp's residual when the Picard
# residual is at most RESIDUAL_TOL
CONSERVATION_TOL = 1e-6
RESIDUAL_TOL = 1e-4


class ConfigError(ValueError):
    """Config schema violation with the offending field path."""


# -- config schema ------------------------------------------------------------------
#
# A schema maps each key to (type, default).  A type is a name from _TYPES,
# None (any value), a nested schema, or a function check(value, path) that
# raises ConfigError or returns the value.  The default _REQUIRED makes a
# key mandatory; a default of None leaves the value to the code that reads it.
# A nested schema that is a _Built is resolved and then built into an object.

_REQUIRED = object()


class _Built(dict):
    """A nested schema whose resolved section becomes `build(**section)`; a
    ValueError that `build` raises is a ConfigError at the section's path, so
    the object's own checks are the config's."""

    def __init__(self, build: Callable, schema: dict):
        super().__init__(schema)
        self.build = build


_TYPES = {
    "number": ((int, float), "a number"),
    "int": (int, "an integer"),
    "str": (str, "a string"),
    "list": (list, "a list"),
    "dict": (dict, "an object"),
    "bool": (bool, "a boolean"),
}


def _resolve(cfg, path: str, schema: dict) -> dict:
    """Check `cfg` against `schema`; return a new dict with the defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(schema)})")
    for key, (_, default) in schema.items():
        if default is _REQUIRED and key not in cfg:
            raise ConfigError(f"{path}.{key}: required key missing")
    out = {}
    for key, (typ, default) in schema.items():
        if key in cfg:
            out[key] = _check_value(cfg[key], f"{path}.{key}", typ)
        elif isinstance(typ, dict) and default is not None:
            out[key] = _check_value(default, f"{path}.{key}", typ)
        else:
            out[key] = default
    return out


def _check_value(val, path: str, typ):
    if isinstance(typ, _Built):
        section = _resolve(val, path, typ)
        try:
            return typ.build(**section)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if isinstance(typ, dict):
        return _resolve(val, path, typ)
    if callable(typ):
        return typ(val, path)
    if typ is not None:
        types, name = _TYPES[typ]
        # bool subclasses int, but true and false are no numbers
        if not isinstance(val, types) or (isinstance(val, bool) and typ != "bool"):
            raise ConfigError(f"{path}: expected {name}, got {type(val).__name__}")
    return val


def _nonempty_list(val, path: str) -> list:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a non-empty list")
    return val


def _positive_int(val, path: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise ConfigError(f"{path}: expected a positive integer, got {val!r}")
    return val


def _delta_list(val, path: str) -> list:
    """A non-empty list of numbers in (0, 1], the deltas of the Lemma A.3 scan."""
    for i, d in enumerate(_nonempty_list(val, path)):
        if not isinstance(d, (int, float)) or isinstance(d, bool) or not 0.0 < d <= 1.0:
            raise ConfigError(f"{path}[{i}]: expected a number in (0, 1], got {d!r}")
    return val


def _one_of(names: tuple) -> Callable:
    """A check accepting only the given names."""

    def check(val, path: str):
        if not isinstance(val, str) or val not in names:
            raise ConfigError(f"{path}: expected one of {list(names)}, got {val!r}")
        return val

    return check


def _catalog_name(name, path: str) -> str:
    if not isinstance(name, str) or name not in CATALOG:
        raise ConfigError(f"{path}: unknown catalog symbol {name!r}")
    return name


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


def _coefficient_symbol(sym, path: str) -> dict:
    """kdv-type-build's symbol section; `n` defaults to the number of rows."""
    sym = _resolve(sym, path, {"coefficients": ("list", _REQUIRED), "n": ("int", None)})
    if sym["n"] is None:
        sym["n"] = len(sym["coefficients"])
    for i, row in enumerate(sym["coefficients"]):
        if not isinstance(row, list):
            raise ConfigError(f"{path}.coefficients[{i}]: expected a list")
        for j, c in enumerate(row):
            _check_coefficient(c, sym["n"], f"{path}.coefficients[{i}][{j}]")
    return sym


_CATALOG_SYMBOL = {"name": (_catalog_name, _REQUIRED), "params": ("dict", {})}
_GRID = {"n": ("int", _REQUIRED), "L": ("number", _REQUIRED), "N": ("int", _REQUIRED)}
# the sample-set extent; _sample_set derives what is not given
_SAMPLES = {"x_radius": ("number", None), "xi_max": ("number", None)}


# -- the experiment table ------------------------------------------------------------


class _Experiment(NamedTuple):
    runner: Callable
    schema: dict  # the whole experiment object; schema["run"][0] holds the run keys


_EXPERIMENT_TABLE: dict[str, _Experiment] = {}


def _experiment(kind: str, run: dict, requires: tuple = (), symbol=_CATALOG_SYMBOL, grid=None):
    """Register the decorated runner as experiment `kind`, in listing order.

    `run` maps each run key to (type, default); `symbol` is the schema of the
    symbol section, `grid` the grid used when the config gives none, and every
    section named in `requires` must be given.  The runner is called as
    runner(cfg, run, rng, outdir, prefix) with the defaults filled into `cfg`
    and `run`, and returns (details, verdicts, artifact paths).
    """

    def register(runner):
        schema = {
            "experiment": ("str", _REQUIRED),
            "symbol": (symbol, {"name": "airy"}),
            "grid": (_GRID, grid),
            "weight": ({"eps": ("number", 0.1)}, {}),
            "run": (run, {}),
            "output": ({"prefix": ("str", None)}, {}),
            "seed": ("int", None),
        }
        for section in requires:
            schema[section] = (schema[section][0], _REQUIRED)
        _EXPERIMENT_TABLE[kind] = _Experiment(runner, schema)
        return runner

    return register


def _validate_experiment(cfg, path: str) -> dict:
    """Check one experiment against its table entry; return it with defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    if "experiment" not in cfg:
        raise ConfigError(f"{path}.experiment: required key missing")
    kind = cfg["experiment"]
    if not isinstance(kind, str) or kind not in _EXPERIMENT_TABLE:
        known = tuple(_EXPERIMENT_TABLE)
        raise ConfigError(f"{path}.experiment: unknown experiment {kind!r} (known: {known})")
    return _resolve(cfg, path, _EXPERIMENT_TABLE[kind].schema)


def _validate_config(cfg) -> list[tuple[dict, dict]]:
    """Every experiment as given, paired with its config with defaults filled in."""
    if isinstance(cfg, dict) and "experiments" in cfg:
        schema = {"experiments": (_nonempty_list, _REQUIRED), "threads": ("int", None), "seed": ("int", None)}
        _resolve(cfg, "config", schema)
        return [
            (e, _validate_experiment(e, f"config.experiments[{i}]"))
            for i, e in enumerate(cfg["experiments"])
        ]
    return [(cfg, _validate_experiment(cfg, "config"))]


# -- shared builders -----------------------------------------------------------------


def _build_symbol(cfg: dict):
    return catalog(cfg["symbol"]["name"], **cfg["symbol"]["params"])


def _build_grid(cfg: dict):
    return make_grid(**cfg["grid"])


def _sample_set(a, run: dict) -> SampleSet:
    kw = {key: run[key] for key in _SAMPLES if run[key] is not None}
    if a.n == 2:
        kw.setdefault("x_points", 9)
        kw.setdefault("xi_max", 32.0)
    return SampleSet.standard(a.n, **kw)


_DATUM_KINDS = ("wavepacket", "plane_wave")  # solve-linear's run.datum.kind


def _datum(grid, spec: dict):
    kind = spec["kind"]
    carrier = spec["carrier"]
    if np.ndim(carrier) == 0:
        carrier = [float(carrier)] + [0.0] * (grid.n - 1)
    if kind == "wavepacket":
        return gaussian_wavepacket(grid, carrier, spec["width2"], spec["amplitude"])
    # "plane_wave": amplitude * e^{i carrier . x}, which is not localized
    amp = spec["amplitude"]
    kvec = np.asarray(carrier)

    def fn(*xs):
        ph = sum(kvec[d] * xs[d] for d in range(grid.n))
        return amp * np.exp(1j * ph)

    return Field.from_function(grid, fn)


# -- experiment implementations ---------------------------------------------------------


@_experiment("check-admissible", _SAMPLES)
def _exp_check_admissible(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    rep = admissibility_report(a, _sample_set(a, run))
    artifacts = []
    if rep.slack is not None:
        path = outdir / f"{prefix}_hamilton_slack.csv"
        rep.slack.to_csv(path)
        artifacts.append(path)
    return rep.as_dict(), {"admissible": rep.verdict}, artifacts


@_experiment("doi-weight", _SAMPLES)
def _exp_doi_weight(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    S = _sample_set(a, run)
    gw = garding_weight(a, S=S)
    dw = doi_weight(a, gw, eps=cfg["weight"]["eps"], S=S)
    fit = doi_slack(a, dw, S)
    # f'(|q|) = lam_tilde(|q|) >= lam(|x|), the bound the Doi argument uses
    fprime_ok = dw.lam_tilde_margin(S) >= -1e-15
    path = outdir / f"{prefix}_doi_slack.csv"
    fit.to_csv(path)
    details = {
        "K": dw.K,
        "eps": dw.eps,
        "rho": dw.rho,
        "slack": fit.as_dict(),
        "f_prime_dominates": fprime_ok,
        "f_bound_fit": dw.f_derivative_bound_fit(),
    }
    verdicts = {"doi_slack": fit.verdict, "f_prime_dominates": "pass" if fprime_ok else "fail"}
    return details, verdicts, [path]


@_experiment(
    "trace-bichar",
    {
        "x0": ("list", None),
        "xi0": ("list", None),
        "T": ("number", 4.0),
        "h": ("number", 0.01),
        "R": ("number", 10.0),
        "delta": ("number", 0.5),
    },
)
def _exp_trace_bichar(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    x0 = run["x0"] if run["x0"] is not None else [0.0] * a.n
    xi0 = run["xi0"] if run["xi0"] is not None else [1.0] + [0.0] * (a.n - 1)
    T, delta = run["T"], run["delta"]
    traj = integrate_bicharacteristic(a, x0, xi0, T=T, h=run["h"])
    cls = classify_strong_ellipticity(a, traj)
    probe = escape_verdict(traj, R=run["R"])
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
    return details, verdicts, [path]


@_experiment(
    "solve-linear",
    {
        "T": ("number", 0.1),
        "dt": ("number", None),
        "scheme": (_one_of(SCHEMES), "if_rk4"),
        "store_stride": (_positive_int, 1),
        "datum": (
            {
                "kind": (_one_of(_DATUM_KINDS), _REQUIRED),
                "carrier": (None, 1.0),
                "width2": ("number", 8.0),
                "amplitude": ("number", 1.0),
            },
            {"kind": "wavepacket"},
        ),
    },
    requires=("grid",),
)
def _exp_solve_linear(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    u0 = _datum(g, run["datum"])
    norms = NormSeries(g, (0.0, 1.0))  # the frames are reduced as the march makes them
    # the solve takes the wrap guard itself: taken here, before the solve
    # builds its operator, it raised the linear-2d peak RSS by 0.2 MB (heap layout)
    sol = solve_linear(
        a, u0, T=run["T"], dt=run["dt"], scheme=run["scheme"], store_stride=run["store_stride"], consume=norms
    )
    drift = norms.l2_drift()
    series_path = outdir / f"{prefix}_norms.csv"
    write_csv(series_path, ["t", "l2", "h1"], [norms.times, *np.array(norms.sobolev).T])
    details = {"scheme": run["scheme"], **_step_record(sol), "l2_drift": drift, "wrap_horizon": sol.guard.horizon}
    verdicts = {}
    if a.real_valued:
        verdicts["l2_conservation"] = "pass" if drift <= CONSERVATION_TOL else "fail"
    return details, verdicts, [series_path]


def _step_record(sol) -> dict:
    """The step a solve took, how many, what set them and the step-doubling estimate."""
    return {"dt": sol.dt, "steps": sol.steps, "step_bound": sol.step_bound, "step_error": sol.step_error}


def _family_T(guards):
    horizons = [gw.horizon for gw in guards if gw.horizon is not None]
    if not horizons:
        raise ConfigError("smoothing families need localized data (wrap guard undefined)")
    return 0.8 * min(horizons)


@_experiment(
    "smoothing-report",
    {
        "s": ("number", 0.0),
        "estimate": (_one_of(ESTIMATES), "ii"),
        "carriers": (_nonempty_list, [4, 8, 16, 32]),
        "width2": ("number", 8.0),
        "T": ("number", None),
        "store_stride": (_positive_int, 4),
        "ratio_bound": ("number", 8.0),
        "growth_min": ("number", None),
        "forced": ("bool", None),
    },
    requires=("grid",),
)
def _exp_smoothing_report(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    s, estimate, carriers, stride = run["s"], run["estimate"], run["carriers"], run["store_stride"]
    forced = run["forced"] if run["forced"] is not None else estimate == "iii"
    data = {
        float(k): gaussian_wavepacket(g, [float(k)] + [0.0] * (g.n - 1), run["width2"]) for k in carriers
    }
    # each datum's guard, taken once, sets the family horizon unless T is given
    # and the solve's dt band (a zero datum adds nothing to its source's guard)
    guards = {k: wrap_guard(a, u0) for k, u0 in data.items()}
    T = _family_T(guards.values()) if run["T"] is None else run["T"]
    gain = (a.order - 1.0) / 2.0
    ratios = {}
    unweighted = {}
    solves = {}
    rows = []
    for k, u0 in data.items():
        # a forced run starts from rest with the packet as its source; the
        # frames are reduced as the march makes them
        datum, source = (Field.zero(g), u0) if forced else (u0, None)
        # evolve.smoothing_report written out: called here, it gives the same
        # numbers but left glibc's arena 1.4 MB larger after the kdv-1d
        # family (mallinfo2), and kdv-1d's peak RSS about 1 MB higher
        series = SmoothingSeries(g, a.order, estimate, s, source)
        # only the record is kept: the solution holds a state-sized final frame
        solves[str(k)] = _step_record(
            solve_linear(a, datum, source, T=T, store_stride=stride, guard=guards[k], consume=series)
        )
        rep = series.report()
        ratios[k] = rep.ratio
        unw = rep.unweighted_integral
        unweighted[k] = unw
        rows.append([k, rep.lhs, rep.rhs, rep.ratio, unw])
    path = outdir / f"{prefix}_family.csv"
    write_csv(path, ["carrier", "lhs", "rhs", "ratio", "unweighted_integral"], list(zip(*rows)))
    spread = max(ratios.values()) / min(ratios.values())
    details = {
        "estimate": estimate,
        "s": s,
        "T": T,
        "gain": gain,
        "ratios": {str(k): v for k, v in ratios.items()},
        "ratio_spread": spread,
        "unweighted": {str(k): v for k, v in unweighted.items()},
        "solves": solves,
    }
    verdicts = {"family_bounded": "pass" if spread <= run["ratio_bound"] else "fail"}
    if run["growth_min"] is not None and len(carriers) >= 2:
        ks = sorted(unweighted)
        growth = unweighted[ks[-1]] / unweighted[ks[0]]
        details["unweighted_growth"] = growth
        verdicts["unweighted_growth"] = "pass" if growth >= run["growth_min"] else "fail"
    return details, verdicts, [path]


@_experiment(
    "solve-nlivp",
    {
        "s": ("number", 15.0),
        "T": ("number", 0.1),
        "dt": ("number", None),
        "tol": ("number", 1e-8),
        "amplitude": ("number", 0.01),
        "width2": ("number", 8.0),
        "nonlinearity": (
            _Built(NonlinearitySpec, {"p": ("int", 1), "q": ("int", 0), "alpha": ("list", [1])}),
            {},
        ),
    },
    requires=("grid",),
)
def _exp_solve_nlivp(cfg, run, rng, outdir, prefix):
    a = _build_symbol(cfg)
    g = _build_grid(cfg)
    u0 = gaussian_wavepacket(g, [0.0] * g.n, run["width2"], run["amplitude"])
    try:
        # the regularity-floor warning is not caught: catch_warnings() swaps the
        # process-wide filter list, which experiments on --threads would corrupt
        picard = picard_solve(
            a,
            u0,
            run["nonlinearity"],
            s=run["s"],
            T=run["T"],
            tol=run["tol"],
            dt=run["dt"],
        )
    except PicardDivergenceError as exc:
        return {"diverged": True, "message": str(exc)}, {"picard_converged": "fail"}, []
    path = outdir / f"{prefix}_iterates.json"
    _atomic_json(path, {k: getattr(picard, k) for k in ("xts_history", "contraction_factors", "residual")})
    details = {
        "iterations": picard.iterations,
        "contraction_factors": picard.contraction_factors,
        "residual": picard.residual,
        "xts_final": picard.xts_history[-1] if picard.xts_history else None,
    }
    verdicts = {
        "picard_converged": "pass" if picard.converged else "fail",
        "residual": "pass" if picard.residual <= RESIDUAL_TOL else "fail",
    }
    return details, verdicts, [path]


@_experiment(
    "positivity",
    {"flavor": (_one_of(POSITIVITY_FLAVORS), "sharp_garding"), "probes": (_positive_int, 48)},
    requires=("grid",),
)
def _exp_positivity(cfg, run, rng, outdir, prefix):
    a, g = _build_symbol(cfg), _build_grid(cfg)
    rep = positivity_diagnostic(a, g, run["flavor"], probes=run["probes"], seed=int(rng.integers(2**31)))
    stable = 0.5 <= rep.stability_ratio <= 2.0 or all(c <= 1e-10 for c in rep.fitted_C.values())
    return rep.as_dict(), {"refinement_stable": "pass" if stable else "inconclusive"}, []


@_experiment(
    "appendix",
    {
        "N_w_max": (_positive_int, 2),
        "degree_max": (_positive_int, 3),
        "delta_list": (_delta_list, [0.01, 0.1, 0.5, 1.0]),
    },
    grid={"n": 1, "L": 10.0, "N": 64},
)
def _exp_appendix(cfg, run, rng, outdir, prefix):
    g = _build_grid(cfg)
    xs, xis = phase_symbols(1)
    reports = [
        lemmatec1_residual(SympySymbol(xis[0] ** deg, 1, float(deg), zero_nyquist=False), N_w, g)
        for deg in range(1, run["degree_max"] + 1)
        for N_w in range(1, run["N_w_max"] + 1)
    ]
    worst = max(rep.residual for rep in reports)
    scan = lemmatec3_scan(delta_list=tuple(run["delta_list"]))
    details = {"commutation_worst_residual": worst, "scalar_scan": scan.as_dict()}
    verdicts = {
        "commutation_identity": "pass" if all(rep.passed for rep in reports) else "fail",
        "scalar_inequality": "pass" if scan.passed else "fail",
    }
    return details, verdicts, []


@_experiment(
    "kdv-type-build",
    _SAMPLES,
    requires=("symbol",),
    symbol=_coefficient_symbol,
)
def _exp_kdv_type_build(cfg, run, rng, outdir, prefix):
    n = cfg["symbol"]["n"]
    xs_names = {f"x{i + 1}": sp.Symbol(f"x{i + 1}", real=True) for i in range(n)}
    coeffs = [[sp.sympify(c, locals=xs_names) for c in row] for row in cfg["symbol"]["coefficients"]]
    system = VectorFieldSystem(n, coeffs)
    build = build_kdv_type(system)
    S = _sample_set(build.full, run)
    im_rep = check_im_smallness(build.full, S)
    adm = admissibility_report(build.a3, S)
    details = {
        "corrections": [str(c) for c in build.corrections],
        "qualifying_directions": system.qualifying_directions(),
        "im_smallness": im_rep.as_dict(),
        "a3_admissibility": adm.as_dict(),
    }
    verdicts = {"im_smallness": im_rep.verdict, "a3_admissible": adm.verdict}
    return details, verdicts, []


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


def _run_one(given: dict, cfg: dict, index: int, base_seed: int, outdir: Path) -> dict:
    """Run one experiment and write its report; a raising runner gets an error report."""
    kind = cfg["experiment"]
    seed = base_seed + index if cfg["seed"] is None else cfg["seed"]
    rng = np.random.default_rng(seed)
    prefix = cfg["output"]["prefix"]
    if prefix is None:
        prefix = f"{kind.replace('-', '_')}_{index}"
    start = time.time()
    report = {
        "schema_version": 1,
        "weylab_version": __version__,
        "experiment": kind,
        "resolved_config": given,
        "seed": seed,
    }
    try:
        details, verdicts, paths = _EXPERIMENT_TABLE[kind].runner(cfg, cfg["run"], rng, outdir, prefix)
    except Exception as exc:  # one failing experiment must not hide the rest of the batch
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        print(f"error: {prefix}: {error}", file=sys.stderr)
        report.update(status="error", error=error, details={}, verdicts={}, artifacts=[])
    else:
        artifacts = [os.path.relpath(p, outdir) for p in paths]
        report.update(details=details, verdicts=verdicts, artifacts=artifacts)
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
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    nthreads = threads or cfg.get("threads", 1)

    def one(indexed):
        index, (given, filled) = indexed
        return _run_one(given, filled, index, base_seed, outdir)

    try:
        if nthreads > 1 and len(experiments) > 1:
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                reports = list(pool.map(one, enumerate(experiments)))
        else:
            reports = list(map(one, enumerate(experiments)))
    except Exception as exc:  # a report could not be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if json_to_stdout:
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    if any(r.get("status") == "error" for r in reports):
        return 1
    if any(v != "pass" for r in reports for v in r["verdicts"].values()):
        return 2
    return 0


def list_catalog(as_json: bool = False) -> str:
    """Deterministic listing of symbols, experiments, and config keys."""
    # every kind has the same sections; only their contents differ
    sections = list(next(iter(_EXPERIMENT_TABLE.values())).schema)
    run_keys = {kind: sorted(e.schema["run"][0]) for kind, e in _EXPERIMENT_TABLE.items()}
    if as_json:
        payload = {
            "symbols": {
                name: {"summary": e.summary, "params": e.params} for name, e in sorted(CATALOG.items())
            },
            "experiments": list(run_keys),
            "config_keys": {"common": sections, "run": run_keys},
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = ["catalog symbols:"]
    for name, entry in sorted(CATALOG.items()):
        lines.append(f"  {name:16s} {entry.summary}")
        for pname, pdoc in sorted(entry.params.items()):
            lines.append(f"    param {pname}: {pdoc}")
    lines.append("experiments:")
    lines += [f"  {kind}" for kind in run_keys]
    lines.append(f"config keys: {', '.join(sections)}")
    lines += [f"  run keys for {kind}: {', '.join(keys) or '(none)'}" for kind, keys in run_keys.items()]
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
