"""Benchmark of the noisyquery Monte Carlo toolkit.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 25 --trace 0

Runs one workload in this process (one job, no worker pool) for the
given seconds, in repetitions that each call every experiment of the
workload once at a spec seed derived from ``--seed`` and the repetition
number. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions on the same
seeds and reports the per-layer metrics. The last line of standard
output is the JSON result; the lines before it say the same for a
reader. Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from calibrate import slowdown
from micro import micro_metrics
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 7
# repetitions always run, whatever --seconds says; the rows digest covers them
MIN_REPS = 3
# units of the numbers printed besides the result's metrics
INFO_UNITS = {
    "failed_frac": "ratio",
    "trials_per_s": "1/s",
    "ns_per_query": "ns",
    "query_ratio": "ratio",
    "unscaled_trials_per_s": "1/s",
    "median_slowdown": "ratio",
    "trace_overhead_frac": "ratio",
    "unscaled_setup_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine_info() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over SETUP_RUNS fresh processes of one workload set-up,
    scaled to the reference machine speed, and the unscaled median."""
    scaled, unscaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, slow = map(float, done.stdout.split())
        scaled.append(seconds / slow)
        unscaled.append(seconds)
    return statistics.median(scaled), statistics.median(unscaled)


def rep_rates(reps, slowdowns) -> dict[str, float]:
    """Median trials per second and ns per query over ``reps``, scaled to
    the reference machine speed, and the unscaled median rate."""
    scaled = [rep.trials / rep.seconds * slow for rep, slow in zip(reps, slowdowns)]
    per_query = [rep.seconds * 1e9 / rep.queries / slow for rep, slow in zip(reps, slowdowns) if rep.queries]
    return {
        "trials_per_s": statistics.median(scaled),
        "ns_per_query": statistics.median(per_query) if per_query else 0.0,
        "unscaled_trials_per_s": statistics.median(rep.trials / rep.seconds for rep in reps),
        "median_slowdown": statistics.median(slowdowns),
    }


def run_untraced(workload: str, seed: int, seconds: float):
    reps, slowdowns = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        slowdowns.append(slowdown())
        reps.append(workloads.run_rep(workload, seed, len(reps)))
    # the same repetition run again must give the same rows
    checks = [] if workloads.run_rep(workload, seed, 0).rows == reps[0].rows else ["rerun of repetition 0 changed its rows"]
    info = rep_rates(reps, slowdowns)
    metrics = {
        "trials_per_s": (info.pop("trials_per_s"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info["query_ratio"] = workloads.query_ratio(reps)
    return reps, metrics, info, checks


def run_traced(workload: str, seed: int, seconds: float):
    tracer = Tracer()
    untraced, traced, slowdowns, traced_slowdowns = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        rep = len(untraced)
        slowdowns.append(slowdown())
        untraced.append(workloads.run_rep(workload, seed, rep))
        tracer.label = f"rep{rep}"
        traced_slowdowns.append(slowdown())
        with tracer.installed():
            traced.append(workloads.run_rep(workload, seed, rep))
    checks = []
    if any(a.rows != b.rows for a, b in zip(untraced, traced)):
        checks.append("traced rows differ from untraced rows")
    ledger_queries = sum(ledger.total_queries for ledger in tracer.ledgers)
    if ledger_queries != sum(rep.queries for rep in traced):
        checks.append(f"oracle ledgers hold {ledger_queries} queries, the reports {sum(r.queries for r in traced)}")
    info = rep_rates(untraced, slowdowns)
    info["query_ratio"] = workloads.query_ratio(untraced)
    info["trace_overhead_frac"] = 1.0 - rep_rates(traced, traced_slowdowns)["trials_per_s"] / info["trials_per_s"]
    units = _layer_units()
    values = layer_metrics(tracer, workloads.UST_GRID)
    values.update(micro_metrics(seed))
    values.update(
        ns_per_query=info["ns_per_query"],
        query_ratio=info["query_ratio"],
        **{"trace.overhead_frac": info["trace_overhead_frac"]},
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    metrics = {name: (values[name], units[name]) for name in units}
    # traced twins repeat the untraced seeds, so only the untraced are judged
    return untraced, metrics, info, checks


def _layer_units() -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    setup = setup_seconds(args.workload) if args.trace == 0 else None
    workloads.warm_up(args.workload)
    if args.trace == 0:
        reps, metrics, info, checks = run_untraced(args.workload, args.seed, args.seconds)
        metrics = {"setup_s": (setup[0], "s"), **metrics}
        info["unscaled_setup_s"] = setup[1]
    else:
        reps, metrics, info, checks = run_traced(args.workload, args.seed, args.seconds)
    attempted, failed, reasons = workloads.judge(args.workload, reps)
    digest = workloads.rows_digest(reps, MIN_REPS)
    result = {
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "repetitions": len(reps),
        "rows_sha256": digest,
        "failed_frac": failed / attempted,
        **info,
        "problems": reasons + checks,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for key in ("machine", "repetitions", "rows_sha256", "problems"):
        print(f"{key}: {record[key]}")
    for key in ("failed_frac", *info):
        print(f"{key}: {record[key]:.6g} {INFO_UNITS[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
