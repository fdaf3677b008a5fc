"""Workload configs for the benchmark and the checks applied to their reports.

Each workload is one `weylab run` batch config.  The seed goes into the
config's top-level `seed`, which sets the per-experiment rng (the positivity
probe draws); everything else is fixed so that every seed does the same work
and every verdict passes at the acceptance tolerances.
"""

from __future__ import annotations

import math

PI = math.pi

# acceptance bounds checked on the report numbers, independent of the verdicts
L2_DRIFT_MAX = 1e-6
RATIO_SPREAD_MAX = 8.0
UNWEIGHTED_GROWTH_MIN = 50.0
RHO_MAX = 0.5
RESIDUAL_MAX = 1e-4


def _linear_2d() -> list[dict]:
    return [
        {
            "experiment": "solve-linear",
            "symbol": {"name": "zk"},
            "grid": {"n": 2, "L": 40 * PI, "N": 512},
            "run": {
                "T": 1.0,
                "store_stride": 16,
                "datum": {"kind": "wavepacket", "carrier": [1.0, 0.0], "width2": 16.0},
            },
            "output": {"prefix": "zk_solve"},
        },
        {
            "experiment": "smoothing-report",
            "symbol": {"name": "ultrahyperbolic", "params": {"eps": 0.05}},
            "grid": {"n": 2, "L": 256 * PI / 72, "N": 256},
            "run": {
                "carriers": [8, 32],
                "width2": 3.0,
                "store_stride": 4,
                "estimate": "ii",
                "ratio_bound": RATIO_SPREAD_MAX,
            },
            "output": {"prefix": "uh_smoothing"},
        },
    ]


def _kdv_1d() -> list[dict]:
    return [
        {
            "experiment": "smoothing-report",
            "symbol": {"name": "gaussian_kdv", "params": {"eps": 0.05}},
            "grid": {"n": 1, "L": 40 * PI, "N": 4096},
            "run": {
                "carriers": [4, 8, 16, 32],
                "width2": 8.0,
                "store_stride": 4,
                "estimate": "ii",
                "ratio_bound": RATIO_SPREAD_MAX,
                "growth_min": UNWEIGHTED_GROWTH_MIN,
            },
            "output": {"prefix": "gkdv_smoothing"},
        },
        {
            # the acceptance criterion-9 Picard config
            "experiment": "solve-nlivp",
            "symbol": {"name": "airy"},
            "grid": {"n": 1, "L": 20 * PI, "N": 256},
            "run": {
                "T": 0.1,
                "dt": 2e-4,
                "s": 15.0,
                "tol": 1e-8,
                "amplitude": 0.01,
                "nonlinearity": {"p": 1, "q": 0, "alpha": [1]},
            },
            "output": {"prefix": "airy_picard"},
        },
    ]


def _admissible(name: str, params: dict) -> dict:
    return {
        "experiment": "check-admissible",
        "symbol": {"name": name, "params": params},
        "run": {"x_radius": 10.0, "xi_max": 64.0},
        "output": {"prefix": f"admissible_{name}"},
    }


def _verdicts() -> list[dict]:
    return [
        _admissible("zk", {}),
        _admissible("gaussian_kdv", {}),
        {
            "experiment": "doi-weight",
            "symbol": {"name": "gaussian_kdv"},
            "weight": {"eps": 0.1},
            "output": {"prefix": "doi_gkdv"},
        },
        {
            "experiment": "trace-bichar",
            "symbol": {"name": "gaussian_kdv"},
            "run": {"x0": [0.0], "xi0": [1.0], "T": 4.0, "h": 0.005, "R": 10.0, "delta": 0.5},
            "output": {"prefix": "bichar_gkdv"},
        },
        {
            "experiment": "positivity",
            "symbol": {
                "name": "ultrahyperbolic",
                "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "eps": 0.5},
            },
            "grid": {"n": 2, "L": 6.0, "N": 16},
            "run": {"probes": 24},
            "output": {"prefix": "positivity_uh"},
        },
        {"experiment": "appendix", "output": {"prefix": "appendix"}},
        {
            "experiment": "kdv-type-build",
            "symbol": {"coefficients": [["1 + 0.02*exp(-x1**2)"]], "n": 1},
            "output": {"prefix": "kdv_build"},
        },
        # the remaining catalog entries lengthen the batch, which is otherwise
        # too short for a steady median
        _admissible("airy", {}),
        _admissible("kdv_sum", {}),
        _admissible("ultrahyperbolic", {"eps": 0.05}),
    ]


WORKLOADS = {
    "linear-2d": _linear_2d,
    "kdv-1d": _kdv_1d,
    "verdicts": _verdicts,
}


def make_config(workload: str, seed: int) -> dict:
    """The batch config for a workload; the same seed gives the same config."""
    return {"experiments": WORKLOADS[workload](), "threads": 1, "seed": int(seed)}


def _bound_failures(report: dict) -> list[str]:
    """Acceptance-bound violations among a report's numbers."""
    kind = report["experiment"]
    d = report["details"]
    out = []
    if kind == "solve-linear" and not d["l2_drift"] <= L2_DRIFT_MAX:
        out.append(f"l2_drift {d['l2_drift']!r} > {L2_DRIFT_MAX}")
    if kind == "smoothing-report":
        if not d["ratio_spread"] <= RATIO_SPREAD_MAX:
            out.append(f"ratio_spread {d['ratio_spread']!r} > {RATIO_SPREAD_MAX}")
        if "growth_min" in report["resolved_config"]["run"]:
            growth = d.get("unweighted_growth")
            if growth is None or not growth >= UNWEIGHTED_GROWTH_MIN:
                out.append(f"unweighted_growth {growth!r} < {UNWEIGHTED_GROWTH_MIN}")
    if kind == "solve-nlivp":
        rhos = d.get("contraction_factors") or []
        if not rhos or not all(r < RHO_MAX for r in rhos):
            out.append(f"contraction factors {rhos!r} not all < {RHO_MAX}")
        if not d.get("residual", math.inf) <= RESIDUAL_MAX:
            out.append(f"residual {d.get('residual')!r} > {RESIDUAL_MAX}")
    return out


def recorded_values(report: dict) -> dict:
    """The checked numbers of a report, recorded in the benchmark output."""
    d = report["details"]
    keys = {
        "solve-linear": ("l2_drift", "steps", "dt"),
        "smoothing-report": ("ratios", "ratio_spread", "unweighted_growth"),
        "solve-nlivp": ("iterations", "contraction_factors", "residual"),
    }.get(report["experiment"], ())
    return {k: d[k] for k in keys if k in d}


def check_experiment(exit_code: int, report) -> list[str]:
    """Reasons an experiment failed; empty when it passed.

    Fails on exit code 1 (a runtime or config error aborts the whole batch),
    a missing report, any verdict other than "pass", or a checked number
    outside its acceptance bound.
    """
    if exit_code not in (0, 2):
        return [f"batch exit code {exit_code}"]
    if report is None:
        return ["report missing"]
    reasons = [f"verdict {k}={v}" for k, v in sorted(report["verdicts"].items()) if v != "pass"]
    try:
        reasons += _bound_failures(report)
    except (KeyError, TypeError) as exc:
        reasons.append(f"report lacks a checked number: {exc!r}")
    return reasons
