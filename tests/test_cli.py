"""Config validation, experiment dispatch, determinism, exit codes."""

import copy
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylab import cli
from weylab.cli import ConfigError, _validate_config, list_catalog, run


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_report(tmp_path, prefix):
    return json.loads((tmp_path / f"{prefix}_report.json").read_text())


def test_check_admissible_airy_pass(tmp_path):
    path = write_cfg(
        tmp_path,
        {"experiment": "check-admissible", "symbol": {"name": "airy"}, "output": {"prefix": "a"}},
    )
    assert run(path, out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "a")
    assert rep["verdicts"]["admissible"] == "pass"
    # the fitted two-sided constants of the gradient condition
    consts = rep["details"]["grad_ellipticity"]["constants"]
    assert np.isclose(consts["C_lower"], 1.0 / 3.0, rtol=1e-6)
    assert np.isclose(consts["C_upper"], 3.0, rtol=1e-6)


def test_check_admissible_failing_symbol(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "experiment": "check-admissible",
            "symbol": {"name": "gaussian_kdv", "params": {"eps": 5.0}},
        },
    )
    assert run(path, out_dir=str(tmp_path)) == 2


def test_malformed_config_exit_1(tmp_path, capsys):
    path = write_cfg(tmp_path, {"experiment": "check-admissible", "wrong": 1})
    assert run(path, out_dir=str(tmp_path)) == 1
    assert "config.wrong" in capsys.readouterr().err


def test_invalid_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(path, out_dir=str(tmp_path)) == 1
    assert "line" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        _validate_config({"experiment": "frobnicate"})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError) as err:
        _validate_config(
            {"experiment": "solve-linear", "grid": {"n": 1, "L": 1.0, "N": 16, "junk": 2}}
        )
    assert "grid.junk" in str(err.value)


def test_unknown_catalog_symbol_rejected():
    with pytest.raises(ConfigError):
        _validate_config({"experiment": "check-admissible", "symbol": {"name": "nope"}})


_HASHED = {
    "positivity": {
        "experiment": "positivity",
        "symbol": {"name": "ultrahyperbolic", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        "grid": {"n": 2, "L": 6.0, "N": 16},
        "run": {"flavor": "sharp_garding", "probes": 8},
        "output": {"prefix": "hashed"},
        "seed": 77,
    },
    # writes a CSV, so the hash covers an artifact path
    "trace-bichar": {
        "experiment": "trace-bichar",
        "symbol": {"name": "airy"},
        "run": {"T": 1.0, "h": 0.05},
        "output": {"prefix": "hashed"},
        "seed": 77,
    },
}


@pytest.mark.parametrize("kind", list(_HASHED))
def test_determinism_hash_stable(tmp_path, kind):
    path = write_cfg(tmp_path, _HASHED[kind])
    run(path, out_dir=str(tmp_path / "one"))
    run(path, out_dir=str(tmp_path / "two"))
    r1 = json.loads((tmp_path / "one" / "hashed_report.json").read_text())
    r2 = json.loads((tmp_path / "two" / "hashed_report.json").read_text())
    assert r1["determinism_sha256"] == r2["determinism_sha256"]
    assert r1["seed"] == 77
    # artifact paths are relative to the output directory
    assert all((tmp_path / "one" / name).is_file() for name in r1["artifacts"])


def test_solve_linear_conservation_and_series(tmp_path):
    cfg = {
        "experiment": "solve-linear",
        "symbol": {"name": "airy"},
        "grid": {"n": 1, "L": 125.66370614359172, "N": 1024},
        "run": {
            "T": 0.5,
            "store_stride": 8,
            "datum": {"kind": "wavepacket", "carrier": 2.0, "width2": 8.0},
        },
        "output": {"prefix": "lin"},
    }
    path = write_cfg(tmp_path, cfg)
    assert run(path, out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "lin")
    assert rep["verdicts"]["l2_conservation"] == "pass"
    series = (tmp_path / "lin_norms.csv").read_text().splitlines()
    assert series[0] == "t,l2,h1"
    assert len(series) > 3
    # the CLI streams its frames into the norms; the same solve streamed in
    # process gives the same columns and drift bit for bit
    from weylab.evolve import NormSeries, solve_linear
    from weylab.grid import gaussian_wavepacket, make_grid
    from weylab.symbol import catalog

    g = make_grid(1, cfg["grid"]["L"], cfg["grid"]["N"])
    norms = NormSeries(g, (0.0, 1.0))
    u0 = gaussian_wavepacket(g, [2.0], 8.0)
    sol = solve_linear(catalog("airy"), u0, T=0.5, store_stride=8, consume=norms)
    rows = np.array([[float(v) for v in line.split(",")] for line in series[1:]])
    assert np.array_equal(rows[:, 0], norms.times)
    assert np.array_equal(rows[:, 1:].T, np.array(norms.sobolev).T)
    assert rep["details"]["l2_drift"] == norms.l2_drift()
    # the step record: a pure multiplier takes one exact step per frame
    step = {k: rep["details"][k] for k in ("dt", "steps", "step_bound", "step_error")}
    assert step == {"dt": sol.dt, "steps": sol.steps, "step_bound": "stability", "step_error": None}


def test_solve_linear_plane_wave_datum(tmp_path):
    # a plane wave is periodic, not localized: it has no wrap-guard horizon,
    # and the pure multiplier conserves its L^2 norm
    cfg = {
        "experiment": "solve-linear",
        "symbol": {"name": "airy"},
        "grid": {"n": 1, "L": 125.66370614359172, "N": 1024},
        "run": {"T": 0.5, "store_stride": 8, "datum": {"kind": "plane_wave", "carrier": 2.0}},
        "output": {"prefix": "wave"},
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "wave")
    assert rep["details"]["wrap_horizon"] is None
    assert rep["verdicts"]["l2_conservation"] == "pass"


def test_solve_linear_datum_amplitude_scales_the_norms(tmp_path):
    # the solve is linear: doubling the datum doubles every norm of the series
    # and leaves the relative drift alone (an explicit dt fixes the steps)
    one = {
        "experiment": "solve-linear",
        "symbol": {"name": "gaussian_kdv", "params": {"eps": 0.3}},
        "grid": {"n": 1, "L": 62.83185307179586, "N": 256},
        "run": {"T": 0.05, "dt": 1e-3, "store_stride": 10, "datum": {"kind": "wavepacket", "carrier": 2.0}},
        "output": {"prefix": "one"},
    }
    two = {
        "experiment": "solve-linear",
        "symbol": {"name": "gaussian_kdv", "params": {"eps": 0.3}},
        "grid": {"n": 1, "L": 62.83185307179586, "N": 256},
        "run": {
            "T": 0.05,
            "dt": 1e-3,
            "store_stride": 10,
            "datum": {"kind": "wavepacket", "carrier": 2.0, "amplitude": 2.0},
        },
        "output": {"prefix": "two"},
    }
    batch = {"experiments": [one, two]}
    assert run(write_cfg(tmp_path, batch), out_dir=str(tmp_path)) == 0

    def columns(prefix):
        lines = (tmp_path / f"{prefix}_norms.csv").read_text().splitlines()[1:]
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    unit, double = columns("one"), columns("two")
    assert len(unit) > 3 and np.array_equal(unit[:, 0], double[:, 0])
    assert np.allclose(double[:, 1:], 2.0 * unit[:, 1:], rtol=1e-14, atol=0.0)
    d1, d2 = (load_report(tmp_path, p)["details"]["l2_drift"] for p in ("one", "two"))
    assert np.isclose(d2, d1, rtol=1e-14, atol=0.0)


def test_trace_bichar_experiment(tmp_path):
    cfg = {
        "experiment": "trace-bichar",
        "symbol": {"name": "airy"},
        "run": {"x0": [0.0], "xi0": [1.0], "T": 5.0, "h": 0.01, "R": 10.0, "delta": 1.0},
        "output": {"prefix": "bic"},
    }
    path = write_cfg(tmp_path, cfg)
    assert run(path, out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "bic")
    assert rep["verdicts"]["nontrapped"] == "pass"
    assert abs(rep["details"]["trapping"]["forward_escape_time"] - 10.0 / 3.0) < 1e-6
    assert (tmp_path / "bic_trajectory.csv").exists()


def test_appendix_experiment(tmp_path):
    path = write_cfg(tmp_path, {"experiment": "appendix", "output": {"prefix": "apx"}})
    assert run(path, out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "apx")
    assert rep["verdicts"] == {"commutation_identity": "pass", "scalar_inequality": "pass"}


def test_kdv_type_build_experiment(tmp_path):
    # the cubed coefficient roughly triples the derivative constants, so the
    # bump amplitude sits below 0.05/3 to clear the unit decay threshold
    cfg = {
        "experiment": "kdv-type-build",
        "symbol": {"coefficients": [["1 + 0.02*exp(-x1**2)"]], "n": 1},
        "run": {"x_radius": 5.0, "xi_max": 16.0},
        "output": {"prefix": "kdv"},
    }
    path = write_cfg(tmp_path, cfg)
    assert run(path, out_dir=str(tmp_path)) == 0
    rep = load_report(tmp_path, "kdv")
    assert rep["verdicts"]["im_smallness"] == "pass"
    assert rep["verdicts"]["a3_admissible"] == "pass"
    # both checks sample the configured extent
    details = rep["details"]
    for samples in (details["im_smallness"]["samples"], details["a3_admissibility"]["x_decay"]["samples"]):
        assert "|xi| in [1, 16]" in samples and "over [-5, 5]^1" in samples


def test_kdv_type_build_rejects_python_in_coefficients(tmp_path, capsys):
    for bad in ["__import__('os').getpid()", "x1.__class__", "exp(x=1)", "x2", "x1 ^ 2", "lambda: 1"]:
        cfg = {"experiment": "kdv-type-build", "symbol": {"coefficients": [[bad]], "n": 1}}
        assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 1
        assert "coefficients[0][0]" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        _validate_config({"experiment": "kdv-type-build", "symbol": {"coefficients": [[True]]}})


def test_kdv_type_build_coefficient_symbol_unchanged(tmp_path):
    # the whitelist only gates the string; sympy still builds the same symbol
    import sympy as sp

    from weylab.symbol import VectorFieldSystem, build_kdv_type

    text = "1 + 0.02*exp(-x1**2)"
    cfg = {"experiment": "kdv-type-build", "symbol": {"coefficients": [[text]], "n": 1}}
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 0
    rep = json.loads(next(tmp_path.glob("*_report.json")).read_text())
    coeff = sp.sympify(text, locals={"x1": sp.Symbol("x1", real=True)})
    build = build_kdv_type(VectorFieldSystem(1, [[coeff]]))
    assert rep["details"]["corrections"] == [str(c) for c in build.corrections]
    assert build.corrections[0] != 0


def test_batch_with_threads(tmp_path):
    cfg = {
        "threads": 2,
        "experiments": [
            {"experiment": "check-admissible", "symbol": {"name": "airy"}, "output": {"prefix": "b0"}},
            {"experiment": "appendix", "output": {"prefix": "b1"}},
        ],
    }
    path = write_cfg(tmp_path, cfg)
    assert run(path, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "b0_report.json").exists()
    assert (tmp_path / "b1_report.json").exists()


# s = 16 is even, so below the odd-integer regularity floor (14 here): it warns
_NLIVP_EVEN_S = {
    "experiment": "solve-nlivp",
    "symbol": {"name": "airy"},
    "grid": {"n": 1, "L": 20 * np.pi, "N": 256},
    "run": {"s": 16.0, "T": 0.02, "dt": 2e-4},
}


def test_solve_nlivp_regularity_warning_reaches_the_caller(tmp_path):
    path = write_cfg(tmp_path, dict(_NLIVP_EVEN_S, output={"prefix": "nl"}))
    with pytest.warns(UserWarning, match="odd-integer regularity floor"):
        assert run(path, out_dir=str(tmp_path)) != 1
    assert load_report(tmp_path, "nl")["verdicts"]["picard_converged"] == "pass"


def test_threaded_solve_nlivp_batch_leaves_the_warning_filters_alone(tmp_path):
    # warnings.catch_warnings() in a runner swaps the process-wide filter list:
    # two threads that leave in the order they entered restore the wrong one
    import scipy.special  # noqa: F401 -- installs a filter of its own on first import

    cfg = {"threads": 2, "experiments": [dict(_NLIVP_EVEN_S, output={"prefix": p}) for p in "ab"]}
    path = write_cfg(tmp_path, cfg)
    with pytest.warns(UserWarning, match="odd-integer regularity floor"):
        before = list(warnings.filters)
        assert run(path, out_dir=str(tmp_path)) != 1
        assert warnings.filters == before


def test_solve_nlivp_width2_sets_the_datum(tmp_path):
    # a wider packet is a different datum: both converge, to different norms
    cfg = {
        "experiments": [
            {
                "experiment": "solve-nlivp",
                "symbol": {"name": "airy"},
                "grid": {"n": 1, "L": 20 * np.pi, "N": 256},
                "run": {"T": 0.02, "dt": 2e-4},
                "output": {"prefix": "default"},
            },
            {
                "experiment": "solve-nlivp",
                "symbol": {"name": "airy"},
                "grid": {"n": 1, "L": 20 * np.pi, "N": 256},
                "run": {"T": 0.02, "dt": 2e-4, "width2": 16.0},
                "output": {"prefix": "wide"},
            },
        ]
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 0
    default, wide = (load_report(tmp_path, p) for p in ("default", "wide"))
    assert default["verdicts"]["picard_converged"] == wide["verdicts"]["picard_converged"] == "pass"
    assert wide["details"]["xts_final"] != default["details"]["xts_final"]


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLAB_OUT", str(tmp_path / "envout"))
    path = write_cfg(tmp_path, {"experiment": "appendix", "output": {"prefix": "e"}})
    assert run(path) == 0
    assert (tmp_path / "envout" / "e_report.json").exists()


def test_list_catalog_text_and_json():
    text = list_catalog()
    for name in ("airy", "zk", "kdv_sum", "ultrahyperbolic", "gaussian_kdv"):
        assert name in text
    payload = json.loads(list_catalog(as_json=True))
    assert set(payload["symbols"]) == {"airy", "zk", "kdv_sum", "ultrahyperbolic", "gaussian_kdv"}
    assert "check-admissible" in payload["experiments"]
    # deterministic output
    assert list_catalog(as_json=True) == list_catalog(as_json=True)


def test_list_json_matches_golden(capsys):
    # `weylab list --json` is a published interface: any change to it is deliberate
    from weylab.cli import main

    assert main(["list", "--json"]) == 0
    golden = Path(__file__).parent / "data" / "list_catalog.json"
    assert capsys.readouterr().out == golden.read_text()


def test_main_usage_error():
    from weylab.cli import main

    assert main(["run"]) == 1  # argparse exits; wrapped to a code
    assert main(["list"]) == 0


# a cheap experiment: one commutation identity and one scalar-inequality delta
_APPENDIX_SMALL = {"experiment": "appendix", "run": {"N_w_max": 1, "degree_max": 1, "delta_list": [0.5]}}


def test_main_run_json_prints_the_written_report(tmp_path, capsys):
    from weylab.cli import main

    path = write_cfg(tmp_path, dict(_APPENDIX_SMALL, output={"prefix": "one"}))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--json"]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / "one_report.json").read_text()


def test_main_run_json_prints_a_batch_as_its_reports(tmp_path, capsys):
    from weylab.cli import main

    cfg = {"experiments": [dict(_APPENDIX_SMALL, output={"prefix": p}) for p in ("a", "b")]}
    path = write_cfg(tmp_path, cfg)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"reports": [load_report(tmp_path / "out", p) for p in ("a", "b")]}


def test_list_text_matches_golden(capsys):
    from weylab.cli import main

    assert main(["list"]) == 0
    golden = Path(__file__).parent / "data" / "list_catalog.txt"
    assert capsys.readouterr().out == golden.read_text()


_AIRY_GRID = {"n": 1, "L": 62.83185307179586, "N": 256}


@pytest.mark.parametrize(
    "cfg, where",
    [
        (
            {
                "experiments": [
                    {"experiment": "appendix", "output": {"prefix": "first"}},
                    {"experiment": "solve-linear", "symbol": {"name": "airy"}},
                ]
            },
            "config.experiments[1].grid",
        ),
        ({"experiment": "kdv-type-build"}, "config.symbol"),
        (
            {"experiment": "smoothing-report", "grid": _AIRY_GRID, "run": {"carriers": []}},
            "config.run.carriers",
        ),
        # the spatial weight is fixed, <x>^{-2}: its exponent is no key
        ({"experiment": "doi-weight", "weight": {"exponent": 2}}, "config.weight.exponent"),
        # a stride below 1 failed only at run time (IndexError, ZeroDivisionError)
        (
            {"experiment": "solve-linear", "grid": _AIRY_GRID, "run": {"store_stride": 0}},
            "config.run.store_stride",
        ),
        (
            {"experiment": "smoothing-report", "grid": _AIRY_GRID, "run": {"store_stride": -1}},
            "config.run.store_stride",
        ),
        # a JSON boolean is no number: true ran as T = 1, or failed at run time
        ({"experiment": "trace-bichar", "run": {"T": True}}, "config.run.T"),
        ({"experiment": "solve-linear", "grid": _AIRY_GRID, "run": {"T": True}}, "config.run.T"),
        # a probe count below 1 fitted no probe
        ({"experiment": "positivity", "grid": _AIRY_GRID, "run": {"probes": 0}}, "config.run.probes"),
        ({"experiment": "positivity", "grid": _AIRY_GRID, "run": {"probes": -3}}, "config.run.probes"),
    ],
    ids=[
        "missing-grid",
        "missing-symbol",
        "no-carriers",
        "weight-exponent",
        "stride-0",
        "stride-negative",
        "bichar-T-true",
        "linear-T-true",
        "probes-0",
        "probes-negative",
    ],
)
def test_config_errors_stop_the_run_before_any_experiment(tmp_path, capsys, cfg, where):
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}:"):
        _validate_config(cfg)
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, cfg), out_dir=str(out)) == 1
    assert where in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# a valid value of each section that has no default
_SECTIONS = {
    "grid": _AIRY_GRID,
    "symbol": {"coefficients": [["1 + 0.02*exp(-x1**2)"]], "n": 1},
}


def _numeric_leaves() -> list[tuple[str, tuple]]:
    """(kind, key path) of every numeric key in the experiment table, nested
    sections included; a numeric key added to the table is listed here."""
    numeric = ("number", "int", cli._positive_int)
    leaves = []

    def walk(kind, schema, path):
        for key, (typ, _) in schema.items():
            if isinstance(typ, dict):
                walk(kind, typ, path + (key,))
            elif typ in numeric:
                leaves.append((kind, path + (key,)))

    for kind, entry in cli._EXPERIMENT_TABLE.items():
        walk(kind, entry.schema, ())
    # kdv-type-build's symbol section is checked by a function, not a table schema
    return leaves + [("kdv-type-build", ("symbol", "n"))]


def _with_true_at(kind: str, path: tuple) -> dict:
    """A valid config of `kind` whose key at `path` is true; each section on
    the path starts from its default, or from _SECTIONS."""
    schema = cli._EXPERIMENT_TABLE[kind].schema
    cfg = {"experiment": kind}
    for key, (_, default) in schema.items():
        if default is cli._REQUIRED and key in _SECTIONS:
            cfg[key] = copy.deepcopy(_SECTIONS[key])
    node = cfg
    for key in path[:-1]:
        typ, default = schema[key]
        if key not in node:
            node[key] = copy.deepcopy(default if isinstance(default, dict) else _SECTIONS[key])
        node, schema = node[key], typ
    node[path[-1]] = True
    return cfg


_BOOLEAN_CASES = [(_with_true_at(kind, path), "config." + ".".join(path)) for kind, path in _numeric_leaves()]
_BOOLEAN_CASES += [
    ({"experiments": [{"experiment": "appendix"}], key: True}, f"config.{key}") for key in ("threads", "seed")
]


@pytest.mark.parametrize(
    "cfg, where", _BOOLEAN_CASES, ids=[f"{c.get('experiment', 'batch')}:{w}" for c, w in _BOOLEAN_CASES]
)
def test_every_numeric_key_refuses_a_boolean(tmp_path, capsys, cfg, where):
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, cfg), out_dir=str(out)) == 1
    assert f"{where}: expected" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_experiment_does_not_hide_the_others(tmp_path, threads):
    bad = {
        "experiment": "solve-linear",
        "symbol": {"name": "airy"},
        "grid": _AIRY_GRID,
        "run": {"scheme": "rk4", "dt": 1.0},  # beyond the rk4 stability bound
        "output": {"prefix": "bad"},
    }
    cfg = {
        "threads": threads,
        "experiments": [
            {"experiment": "appendix", "output": {"prefix": "before"}},
            bad,
            {"experiment": "appendix", "output": {"prefix": "after"}},
        ],
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 1
    failed = load_report(tmp_path, "bad")
    assert failed["status"] == "error"
    assert "stability bound" in failed["error"]
    assert failed["verdicts"] == {} and failed["artifacts"] == []
    for prefix in ("before", "after"):
        rep = load_report(tmp_path, prefix)
        assert "status" not in rep
        assert rep["verdicts"] == {"commutation_identity": "pass", "scalar_inequality": "pass"}


@pytest.mark.parametrize(
    "experiment, where",
    [
        (
            {"experiment": "solve-linear", "symbol": {"name": "airy"}, "grid": _AIRY_GRID, "run": {"scheme": "bogus"}},
            "run.scheme",
        ),
        (
            {"experiment": "solve-linear", "symbol": {"name": "airy"}, "grid": _AIRY_GRID, "run": {"scheme": "auto"}},
            "run.scheme",
        ),
        (
            {
                "experiment": "solve-linear",
                "symbol": {"name": "airy"},
                "grid": _AIRY_GRID,
                "run": {"datum": {"kind": "nope"}},
            },
            "run.datum.kind",
        ),
        (
            {
                "experiment": "solve-linear",
                "symbol": {"name": "airy"},
                "grid": _AIRY_GRID,
                "run": {"datum": {"kind": "gaussian"}},
            },
            "run.datum.kind",
        ),
        (
            {"experiment": "smoothing-report", "symbol": {"name": "airy"}, "grid": _AIRY_GRID, "run": {"estimate": "vii"}},
            "run.estimate",
        ),
        (
            {
                "experiment": "positivity",
                "symbol": {"name": "airy"},
                "grid": {"n": 1, "L": 6.0, "N": 16},
                "run": {"flavor": "nope"},
            },
            "run.flavor",
        ),
    ],
    ids=["scheme", "scheme-auto", "datum-kind", "datum-gaussian", "estimate", "flavor"],
)
def test_unknown_run_names_stop_the_batch_at_validation(tmp_path, capsys, experiment, where):
    cfg = {"experiments": [{"experiment": "appendix", "output": {"prefix": "first"}}, experiment]}
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, cfg), out_dir=str(out)) == 1
    assert f"config.experiments[1].{where}: expected one of" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "appendix, where",
    [
        ({"experiment": "appendix", "run": {"N_w_max": 1, "degree_max": 0, "delta_list": []}}, "run.degree_max"),
        ({"experiment": "appendix", "run": {"N_w_max": 0}}, "run.N_w_max"),
        ({"experiment": "appendix", "run": {"delta_list": []}}, "run.delta_list"),
        ({"experiment": "appendix", "run": {"delta_list": [0.5, 2.0]}}, "run.delta_list[1]"),
    ],
    ids=["no-degrees", "no-weights", "no-deltas", "delta-above-1"],
)
def test_appendix_checks_that_check_nothing_stop_at_validation(tmp_path, capsys, appendix, where):
    # an empty identity or scan would pass vacuously; a delta outside (0, 1]
    # would fail only at run time, after the experiments before it
    cfg = {"experiments": [{"experiment": "appendix", "output": {"prefix": "first"}}, appendix]}
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, cfg), out_dir=str(out)) == 1
    assert f"config.experiments[1].{where}: expected" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# one 2D and one 1D slack surface, a Doi slack surface, a trajectory and the
# two series CSVs of the CLI; their hashes pin the artifact format
_ARTIFACT_BATCH = {
    "seed": 1,
    "experiments": [
        {"experiment": "check-admissible", "symbol": {"name": "zk"}, "output": {"prefix": "adm_zk"}},
        {
            "experiment": "check-admissible",
            "symbol": {"name": "gaussian_kdv"},
            "run": {"x_radius": 5.0, "xi_max": 16.0},
            "output": {"prefix": "adm_gkdv"},
        },
        {
            "experiment": "doi-weight",
            "symbol": {"name": "gaussian_kdv"},
            "run": {"x_radius": 5.0, "xi_max": 16.0},
            "output": {"prefix": "doi_gkdv"},
        },
        {
            "experiment": "trace-bichar",
            "symbol": {"name": "gaussian_kdv"},
            "run": {"T": 4.0, "h": 0.005},
            "output": {"prefix": "bichar_gkdv"},
        },
        {
            "experiment": "solve-linear",
            "symbol": {"name": "gaussian_kdv"},
            "grid": {"n": 1, "L": 62.83185307179586, "N": 128},
            "run": {"T": 0.05},
            "output": {"prefix": "lin_gkdv"},
        },
        {
            "experiment": "smoothing-report",
            "symbol": {"name": "airy"},
            "grid": _AIRY_GRID,
            "run": {"carriers": [4, 8]},
            "output": {"prefix": "smooth_airy"},
        },
    ],
}


def test_csv_artifacts_match_golden_hashes(tmp_path):
    import hashlib

    assert run(write_cfg(tmp_path, _ARTIFACT_BATCH), out_dir=str(tmp_path / "out")) == 0
    golden = json.loads((Path(__file__).parent / "data" / "artifact_sha256.json").read_text())
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((tmp_path / "out").glob("*.csv"))
    }
    assert got == golden


@pytest.mark.parametrize("estimate", ["ii", "iii"])
def test_smoothing_report_takes_each_wrap_guard_once(tmp_path, monkeypatch, estimate):
    # the guard that sets the family horizon also serves the datum's solve
    from weylab import evolve

    calls = []
    real = evolve.wrap_guard

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolve, "wrap_guard", counted)
    cfg = {
        "experiment": "smoothing-report",
        "symbol": {"name": "airy"},
        "grid": _AIRY_GRID,
        "run": {"carriers": [4, 8], "estimate": estimate},
        "output": {"prefix": "fam"},
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 0
    assert len(calls) == 2
    rep = load_report(tmp_path, "fam")
    assert rep["details"]["T"] == 0.8 * min(real(*args).horizon for args in calls)


def test_smoothing_report_zero_horizon_is_an_error(tmp_path):
    # T = 0 is a horizon given, not a missing one: the solve refuses it
    cfg = {
        "experiment": "smoothing-report",
        "symbol": {"name": "airy"},
        "grid": _AIRY_GRID,
        "run": {"carriers": [4, 8], "T": 0},
        "output": {"prefix": "fam"},
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == 1
    rep = load_report(tmp_path, "fam")
    assert rep["status"] == "error" and "horizon T must be positive" in rep["error"]
    assert rep["verdicts"] == {}


def test_forced_smoothing_report_matches_the_library(tmp_path):
    # forced: true with estimate ii starts each carrier from rest with its
    # packet as the source; T and s are taken as given
    from weylab.evolve import smoothing_report
    from weylab.grid import Field, gaussian_wavepacket, make_grid
    from weylab.symbol import catalog

    cfg = {
        "experiment": "smoothing-report",
        "symbol": {"name": "airy"},
        "grid": _AIRY_GRID,
        "run": {"carriers": [4, 8], "estimate": "ii", "forced": True, "T": 0.2, "s": 1.0},
        "output": {"prefix": "fam"},
    }
    run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path))  # the numbers, whatever the verdicts
    details = load_report(tmp_path, "fam")["details"]
    assert details["T"] == 0.2 and details["s"] == 1.0
    g = make_grid(**_AIRY_GRID)
    for k in (4.0, 8.0):
        u0 = gaussian_wavepacket(g, [k], 8.0)
        rep, _ = smoothing_report(catalog("airy"), Field.zero(g), u0, "ii", 1.0, T=0.2, store_stride=4)
        assert details["ratios"][str(k)] == rep.ratio


@pytest.mark.parametrize(
    "carriers, scale, verdict",
    [([4, 8], 0.5, "pass"), ([4, 8], 2.0, "fail"), ([8], 0.5, None)],
    ids=["growth-pass", "growth-fail", "one-carrier"],
)
def test_smoothing_report_unweighted_growth_verdict(tmp_path, carriers, scale, verdict):
    # growth = unweighted integral of the largest carrier over the smallest's,
    # 1.41 for this family; growth_min below it passes, above it fails, and a
    # one-carrier family has no growth to judge
    cfg = {
        "experiment": "smoothing-report",
        "symbol": {"name": "airy"},
        "grid": _AIRY_GRID,
        "run": {"carriers": carriers, "growth_min": scale * 1.41},
        "output": {"prefix": "fam"},
    }
    assert run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path)) == (2 if verdict == "fail" else 0)
    rep = load_report(tmp_path, "fam")
    assert rep["verdicts"].get("unweighted_growth") == verdict
    unweighted = rep["details"]["unweighted"]
    if verdict is None:
        assert "unweighted_growth" not in rep["details"]
    else:
        assert rep["details"]["unweighted_growth"] == unweighted["8.0"] / unweighted["4.0"]
        assert np.isclose(rep["details"]["unweighted_growth"], 1.41, rtol=1e-2)


@pytest.mark.parametrize("estimate", ["ii", "iii"])
def test_smoothing_report_records_each_carriers_steps(tmp_path, estimate):
    # per carrier: dt, steps, the bound that set them and the step-doubling
    # estimate, inside the determinism hash
    from weylab.evolve import solve_linear, wrap_guard
    from weylab.grid import Field, gaussian_wavepacket, make_grid
    from weylab.symbol import catalog

    cfg = {
        "experiment": "smoothing-report",
        "symbol": {"name": "gaussian_kdv", "params": {"eps": 0.3}},
        "grid": {"n": 1, "L": 20 * np.pi, "N": 512},
        "run": {"carriers": [4, 8], "width2": 4.0, "estimate": estimate},
        "output": {"prefix": "fam"},
    }
    run(write_cfg(tmp_path, cfg), out_dir=str(tmp_path))  # the record, whatever the verdicts
    details = load_report(tmp_path, "fam")["details"]
    g, a = make_grid(1, 20 * np.pi, 512), catalog("gaussian_kdv", eps=0.3)
    for k in (4.0, 8.0):
        u0 = gaussian_wavepacket(g, [k], 4.0)
        datum, source = (Field.zero(g), u0) if estimate == "iii" else (u0, None)
        sol = solve_linear(a, datum, source, T=details["T"], store_stride=4, guard=wrap_guard(a, u0))
        want = {"dt": sol.dt, "steps": sol.steps, "step_bound": sol.step_bound, "step_error": sol.step_error}
        assert details["solves"][str(k)] == want
        assert sol.step_bound in ("clock", "stability", "error") and sol.step_error > 0
