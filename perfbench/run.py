"""Time-to-verdict benchmark: weylab batch configs run through `weylab.cli.run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  The
benchmark is a closed loop with one client: it starts one child process at a
time, each running one whole batch sequentially, and starts the next batch
only after the previous one has finished, until S seconds have passed (at
least one batch always runs).

--trace 0 reports, as medians over the run's samples:
  wall_s       time from the start of `cli.run` to its return, i.e. from the
               first experiment's start to the last report written;
  setup_s      time from spawning a fresh process to having imported
               weylab.cli and validated the config (extra set-up-only
               processes are started so that there are several samples);
  peak_rss_mb  peak resident memory of a batch process.
--trace 1 alternates untraced and span-traced batches (at least one untraced
and two traced) and reports the per-layer metrics of `tracing.py`, the
medians over traced batches of their times, and trace.overhead_s.

Every experiment's report is checked (exit code, report present, verdicts
all "pass", acceptance bounds of `workloads.py`); the last stdout line is
{"correct", "attempted", "failed", "metrics"}, and the line before it records
the samples, the checked numbers, the environment and the load average.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, check_experiment, make_config, recorded_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = HERE / "out"

SETUP_SAMPLES = 4
# a run must end within 180 s; children still running past this are killed
RUN_LIMIT_S = 165.0
POLL_S = 0.02

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXPERIMENT_KINDS = (
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
# machine-independent counts that two traced batches of one config must repeat
EXACT_COUNTS = (
    "grid.fft_calls",
    "evolve.steps",
    "nonlinear.sweeps",
    "calculus.dense_entries",
    "symbol.deriv_calls",
    "symbol.eval_points",
    "hamilton.rk4_steps",
    "grid.field_constructions",
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failure of an experiment)."""


def _unit(metric: str) -> str:
    if metric.endswith("_s") or ".experiment_s." in metric:
        return "s"
    if "bytes" in metric:
        return "B"
    return "count"


class Run:
    """One benchmark run: a work directory, the config and the samples taken."""

    def __init__(self, workload: str, seed: int):
        self.config = make_config(workload, seed)
        self.prefixes = [e["output"]["prefix"] for e in self.config["experiments"]]
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.started = time.monotonic()
        self.setup_s: list[float] = []
        self.batches: list[dict] = []
        self.first_child = None  # result record of the first child that finished
        self._count = 0
        self.last_log = None

    def _spawn(self, mode: str) -> dict:
        """Run one child to completion; its result record plus rss_mb and cpu_s."""
        self._count += 1
        tag = f"{self._count:03d}_{mode}"
        out_dir = self.dir / tag
        out_dir.mkdir()
        result_path = self.dir / f"{tag}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(CHILD), mode, str(self.config_path), str(out_dir), str(result_path)]
        self.last_log = self.dir / f"{tag}.log"
        with open(self.last_log, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            status, usage = self._wait(proc)
        rec = {
            "tag": tag,
            "out_dir": out_dir,
            "status": status,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        if status == 0 and result_path.exists():
            rec.update(json.loads(result_path.read_text()))
            rec["setup_s"] = rec["ready"] - spawned
            self.first_child = self.first_child or rec
        return rec

    def _wait(self, proc):
        """wait4 the child (for its own rusage), killing it past the run limit."""
        deadline = self.started + RUN_LIMIT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                proc.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            time.sleep(POLL_S)

    def setup(self) -> None:
        rec = self._spawn("setup")
        if "setup_s" not in rec:
            log = self.last_log.read_text()[-4000:]
            raise HarnessError(f"set-up process failed (status {rec['status']}):\n{log}")
        self.setup_s.append(rec["setup_s"])
        shutil.rmtree(rec["out_dir"])

    def batch(self, traced: bool) -> dict:
        rec = self._spawn("traced" if traced else "batch")
        rec["traced"] = traced
        # no exit code: the batch process itself died (status = signal or code)
        exit_code = rec.get("exit_code", f"none, process status {rec['status']}")
        rec["experiments"] = []
        for prefix in self.prefixes:
            path = rec["out_dir"] / f"{prefix}_report.json"
            report = json.loads(path.read_text()) if path.exists() else None
            rec["experiments"].append(
                {
                    "prefix": prefix,
                    "elapsed_s": report and report.get("elapsed_seconds"),
                    "kind": report and report["experiment"],
                    "failures": check_experiment(exit_code, report),
                    "values": report and recorded_values(report),
                }
            )
        rec["artifact_bytes"] = sum(p.stat().st_size for p in rec["out_dir"].iterdir())
        if "setup_s" in rec and not traced:
            self.setup_s.append(rec["setup_s"])
        shutil.rmtree(rec["out_dir"])
        self.batches.append(rec)
        return rec

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _wall(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values: counts from the first traced batch, medians of times."""
    per_batch = []
    for rec in traced:
        layers = dict(rec["layers"])
        for kind in EXPERIMENT_KINDS:
            layers[f"cli.experiment_s.{kind}"] = sum(
                e["elapsed_s"] or 0.0 for e in rec["experiments"] if e["kind"] == kind
            )
        layers["cli.overhead_s"] = _wall(rec) - sum(e["elapsed_s"] or 0.0 for e in rec["experiments"])
        layers["cli.artifact_bytes"] = rec["artifact_bytes"]
        per_batch.append(layers)
    names = list(per_batch[0])
    values = {}
    for name in names:
        series = [b[name] for b in per_batch]
        values[name] = statistics.median(series) if _unit(name) == "s" else series[0]
    values["trace.overhead_s"] = statistics.median(map(_wall, traced)) - statistics.median(
        map(_wall, untraced)
    )
    mismatched = [n for n in EXACT_COUNTS if len({b[n] for b in per_batch}) != 1]
    return values, mismatched


def _host_probe_s() -> float:
    """Median time of a fixed pure-Python loop: tracks host speed across runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "machine": platform.machine(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (SRC / "weylab" / "cli.py").is_file():
        raise HarnessError(f"weylab sources not found under {SRC}")
    load_before = os.getloadavg()
    probe_before = _host_probe_s()
    run = Run(workload, seed)
    if trace:
        run.batch(traced=False)
        run.batch(traced=True)
        run.batch(traced=True)
        while run.elapsed() < seconds:
            run.batch(traced=len(run.batches) % 2 == 0)
    else:
        for _ in range(SETUP_SAMPLES):
            run.setup()
        run.batch(traced=False)
        while run.elapsed() < seconds:
            run.batch(traced=False)
    untraced = [b for b in run.batches if not b["traced"] and "end" in b]
    traced = [b for b in run.batches if b["traced"] and "layers" in b]
    if not untraced or (trace and len(traced) < 2):
        log = run.last_log.read_text()[-4000:]
        raise HarnessError(f"too few batch processes completed:\n{log}")

    experiments = [e for b in run.batches for e in b["experiments"]]
    failures = [
        {"batch": b["tag"], "prefix": e["prefix"], "reasons": e["failures"]}
        for b in run.batches
        for e in b["experiments"]
        if e["failures"]
    ]
    mismatched: list[str] = []
    if trace:
        metrics, mismatched = _layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": statistics.median(map(_wall, untraced)),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": statistics.median(b["rss_mb"] for b in untraced),
        }
    correct = not failures and not mismatched
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 batch process at a time, threads=1",
        "samples": {
            "batches": len(untraced),
            "traced_batches": len(traced),
            "setup": len(run.setup_s),
        },
        "wall_s_samples": [_wall(b) for b in untraced],
        "setup_s_samples": run.setup_s,
        "peak_rss_mb_samples": [b["rss_mb"] for b in untraced],
        "batch_cpu_s_samples": [b["cpu_s"] for b in untraced],
        "failed_frac": len(failures) / len(experiments),
        "failures": failures,
        "exact_count_mismatch": mismatched,
        "missing_trace_targets": traced[0]["missing_targets"] if traced else None,
        "checked_values": {e["prefix"]: e["values"] for e in run.batches[0]["experiments"]},
        "environment": {**_environment(), "blas": run.first_child["blas"]},
        "setup_validates_config": run.first_child["validated"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "host_probe_s": [probe_before, _host_probe_s()],
        "elapsed_s": run.elapsed(),
    }
    result = {
        "correct": correct,
        "attempted": len(experiments),
        "failed": len(failures),
        "metrics": {
            k: {"value": v, "unit": _unit(k) if trace else E2E_UNITS[k]} for k, v in metrics.items()
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
