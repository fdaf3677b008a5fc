"""The benchmark's own tests: `python3 -m pytest -q perfbench` from the repo root."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import E2E_UNITS
from workloads import WORKLOADS, check_experiment, make_config

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == E2E_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_config(workload):
    assert make_config(workload, 3) == make_config(workload, 3)
    assert make_config(workload, 4)["seed"] == 4
    prefixes = [e["output"]["prefix"] for e in make_config(workload, 3)["experiments"]]
    assert len(set(prefixes)) == len(prefixes)


def _report(kind, verdicts, details, run=None):
    return {
        "experiment": kind,
        "verdicts": verdicts,
        "details": details,
        "resolved_config": {"run": run or {}},
    }


def test_passing_report_has_no_failures():
    rep = _report(
        "solve-nlivp",
        {"picard_converged": "pass", "residual": "pass"},
        {"contraction_factors": [0.01, 0.3], "residual": 9e-5},
    )
    assert check_experiment(0, rep) == []


@pytest.mark.parametrize(
    "exit_code, report",
    [
        (1, _report("appendix", {"scalar_inequality": "pass"}, {})),
        ("none, process status -9", None),
        (0, None),
        (2, _report("appendix", {"scalar_inequality": "inconclusive"}, {})),
        (0, _report("solve-linear", {"l2_conservation": "pass"}, {"l2_drift": 2e-6})),
        (0, _report("smoothing-report", {"family_bounded": "pass"}, {"ratio_spread": 9.0})),
        (
            0,
            _report(
                "smoothing-report",
                {"family_bounded": "pass"},
                {"ratio_spread": 2.0, "unweighted_growth": 10.0},
                run={"growth_min": 50.0},
            ),
        ),
        (0, _report("solve-nlivp", {}, {"contraction_factors": [0.1, 0.6], "residual": 1e-6})),
        (0, _report("solve-nlivp", {}, {"contraction_factors": [0.1], "residual": 1e-3})),
        (0, _report("solve-linear", {"l2_conservation": "pass"}, {})),
    ],
)
def test_failed_experiments_are_flagged(exit_code, report):
    assert check_experiment(exit_code, report)


def test_traced_counts_repeat():
    """Two traced batches of one config give identical machine-independent counts."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verdicts", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=HERE.parent,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    record, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert record["samples"]["traced_batches"] >= 2
    assert record["exact_count_mismatch"] == []
    assert record["missing_trace_targets"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["symbol.deriv_calls"]["value"] > 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(
        result["metrics"][m["name"]]["unit"] == m["unit"] for m in BENCHMARK["per_layer"]
    )
