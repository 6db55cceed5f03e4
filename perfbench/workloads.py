"""The benchmark's workloads: which experiments each one runs, the timed
repetition, and the correctness gates applied to what it reports.

Importing this module imports ``noisyquery`` from the ``src/`` directory
of the checkout that holds it, and from nowhere else, so a checkout
without ``src/`` fails here instead of measuring some other copy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import noisyquery  # noqa: E402
from noisyquery import (  # noqa: E402
    ExperimentSpec,
    balanced_edges,
    reports_to_csv,
    run_experiment,
    run_trial,
    sample_ust,
    structure_scaling_report,
)

if not Path(noisyquery.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"noisyquery was imported from {noisyquery.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Case:
    """One experiment of a query workload; its seed is set per repetition.

    ``ratio_range`` is the query-cost gate of the acceptance criterion
    the spec comes from; specs that no criterion covers have none.
    """

    spec: ExperimentSpec
    ratio_range: tuple[float, float] | None = None


# Trials per call are small so that a run holds many repetitions; the
# statistical gates are applied to the run's pooled trials (see Pool).
QUERY_WORKLOADS: dict[str, tuple[Case, ...]] = {
    "threshold": (
        # criterion 3: the walk kernel dominates, counting is a thin scan
        Case(ExperimentSpec("threshold", n=10**4, k=100, p=0.25, delta=0.01, trials=4), (0.0, 1.5)),
        # k near n: the one-sided scan pays about 1.9x theory here
        Case(ExperimentSpec("threshold", n=1000, k=990, p=0.25, delta=0.01, trials=20)),
    ),
    "counting": (
        # criterion 4: every query goes through BitOracle.query under the heap scheduler
        Case(ExperimentSpec("counting", n=2000, p=0.2, delta=0.05, ones=10, trials=3), (0.0, 2.0)),
        # adds the presample phase and the complement view
        Case(ExperimentSpec("counting2", n=2000, p=0.2, delta=0.05, ones=1990, trials=4)),
    ),
    "connectivity": (
        # criterion 5: 1,225 short EdgeOracle walks and a union-find per trial
        Case(ExperimentSpec("connectivity", n=50, p=0.2, delta=0.05, trials=40), (0.3, 1.5)),
    ),
}

UST_GRID = (100, 200, 400, 800, 1600, 3200, 6400)
UST_SAMPLES = 4
UST_BETA = Fraction(1, 3)
# growth exponents of the balanced-edge count and the split-size sum
UST_SLOPES = ((0.5, 0.1), (1.5, 0.1))

WORKLOADS = tuple(QUERY_WORKLOADS) + ("ust",)


def rep_seed(seed: int, rep: int) -> int:
    """Spec seed of repetition ``rep``: distinct for every (seed, rep)."""
    digest = hashlib.sha256(f"perfbench:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Call:
    """Outcome of one experiment call: a report, or the error it raised."""

    case: int
    trials: int
    seconds: float
    report: object = None
    error: str | None = None


@dataclass
class Rep:
    """One timed repetition: every case of the workload, once."""

    calls: list[Call]
    rows: str

    @property
    def trials(self) -> int:
        return sum(c.trials for c in self.calls if c.error is None)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def queries(self) -> int:
        return sum(query_total(c.report) for c in self.calls if c.error is None)


def query_total(report) -> int:
    """Exact number of noisy queries behind a report (0 for ust)."""
    if not hasattr(report, "mean_queries"):
        return 0
    return round(report.mean_queries * report.spec.trials)


def _scaling_rows(report) -> str:
    lines = [f"{report.beta},{r.n},{r.samples},{r.balanced_median!r},{r.balanced_mean!r},"
             f"{r.s_sum_median!r},{r.s_sum_mean!r}" for r in report.rows]
    lines.append(f"slopes,{report.balanced_median_slope!r},{report.s_sum_median_slope!r}")
    return "\n".join(lines) + "\n"


def run_rep(workload: str, seed: int, rep: int) -> Rep:
    """Run and time every experiment of ``workload`` once, at the rep's seed."""
    spec_seed = rep_seed(seed, rep)
    calls = []
    if workload == "ust":
        start = time.perf_counter()
        try:
            report = structure_scaling_report(UST_GRID, UST_SAMPLES, UST_BETA, spec_seed)
            call = Call(0, len(UST_GRID) * UST_SAMPLES, 0.0, report)
        except Exception as exc:  # a failed call is counted, the run goes on
            call = Call(0, 0, 0.0, error=f"{type(exc).__name__}: {exc}")
        call.seconds = time.perf_counter() - start
        rows = "" if call.error else _scaling_rows(call.report)
        return Rep([call], rows)
    reports = []
    for index, case in enumerate(QUERY_WORKLOADS[workload]):
        spec = dataclasses.replace(case.spec, seed=spec_seed)
        start = time.perf_counter()
        try:
            report = run_experiment(spec)
            call = Call(index, spec.trials, 0.0, report)
            reports.append(report)
        except Exception as exc:  # a failed call is counted, the run goes on
            call = Call(index, 0, 0.0, error=f"{type(exc).__name__}: {exc}")
        call.seconds = time.perf_counter() - start
        calls.append(call)
    return Rep(calls, reports_to_csv(reports))


def warm_up(workload: str) -> None:
    """One untimed trial of the workload's first experiment."""
    if workload == "ust":
        balanced_edges(sample_ust(UST_GRID[0], 0), UST_BETA)
    else:
        run_trial(dataclasses.replace(QUERY_WORKLOADS[workload][0].spec, seed=0), 0)


@dataclass
class Pool:
    """Everything one case reported during a run, summed for its gates.

    The delta + 3 sigma gate of the acceptance suite is meant for
    hundreds of trials: on one call of a few trials it allows no error
    at all and would fail a correct algorithm often. So the gates judge
    the run's pooled trials, and a pooled miss fails every call pooled.
    """

    calls: int = 0
    raised: int = 0
    trials: int = 0
    errors: int = 0
    queries: int = 0
    theory: float = 0.0
    ust_sums: dict = field(default_factory=dict)

    def add(self, call: Call) -> None:
        self.calls += 1
        if call.error is not None:
            self.raised += 1
            return
        report = call.report
        self.trials += call.trials
        if hasattr(report, "errors"):
            self.errors += report.errors
            self.queries += query_total(report)
            self.theory += report.theory_queries * call.trials
        else:
            for row in report.rows:
                sums = self.ust_sums.setdefault(row.n, [0, 0.0, 0.0])
                sums[0] += row.samples
                sums[1] += row.balanced_mean * row.samples
                sums[2] += row.s_sum_mean * row.samples

    def gate_misses(self, workload: str, case: int) -> list[str]:
        if self.trials == 0:
            return []
        if workload == "ust":
            return _ust_gate_misses(self.ust_sums)
        spec_case = QUERY_WORKLOADS[workload][case]
        spec = spec_case.spec
        misses = []
        rate = self.errors / self.trials
        gate = spec.delta + 3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / self.trials)
        if rate > gate:
            misses.append(f"{spec.kind}: error rate {rate:.5f} > delta+3sigma {gate:.5f}")
        if spec_case.ratio_range is not None:
            low, high = spec_case.ratio_range
            ratio = self.queries / self.theory
            if not low <= ratio <= high:
                misses.append(f"{spec.kind}: query ratio {ratio:.4f} outside [{low}, {high}]")
        return misses


def _ust_gate_misses(sums: dict) -> list[str]:
    """Growth exponents of the pooled means, against 0.5 and 1.5."""
    ns = sorted(sums)
    logs = [math.log(n) for n in ns]
    misses = []
    for column, (law, tol) in zip((1, 2), UST_SLOPES):
        means = [sums[n][column] / sums[n][0] for n in ns]
        if min(means) <= 0:
            misses.append(f"ust: a pooled mean is zero, no growth exponent (column {column})")
            continue
        slope = statistics.linear_regression(logs, [math.log(m) for m in means]).slope
        if abs(slope - law) > tol:
            misses.append(f"ust: growth exponent {slope:.4f} outside {law} +/- {tol}")
    return misses


def judge(workload: str, reps: list[Rep]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every call of ``reps``."""
    pools: dict[int, Pool] = {}
    reasons = []
    for rep in reps:
        for call in rep.calls:
            pools.setdefault(call.case, Pool()).add(call)
            if call.error is not None:
                reasons.append(call.error)
    attempted = failed = 0
    for case, pool in sorted(pools.items()):
        attempted += pool.calls
        misses = pool.gate_misses(workload, case)
        reasons.extend(misses)
        failed += pool.calls if misses else pool.raised
    return attempted, failed, reasons


def query_ratio(reps: list[Rep]) -> float:
    """Sum of queries over sum of theory_queries * trials (0 for ust)."""
    queries = theory = 0.0
    for rep in reps:
        for call in rep.calls:
            if call.error is None and hasattr(call.report, "theory_queries"):
                queries += query_total(call.report)
                theory += call.report.theory_queries * call.trials
    return queries / theory if theory else 0.0


def rows_digest(reps: list[Rep], count: int) -> str:
    """sha256 of the report rows of the first ``count`` repetitions."""
    return hashlib.sha256("".join(rep.rows for rep in reps[:count]).encode()).hexdigest()
