"""Monte Carlo experiment runner with theory-bound comparisons.

Each experiment runs independent trials; a trial samples a fresh
instance, runs the designated algorithm against a fresh oracle, and
scores correctness against the known ground truth. All per-trial
randomness derives from (master seed, experiment kind, trial index,
role), so reports are reproducible bit-for-bit on any worker count and
any execution order. Query statistics aggregate as exact integers.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .boolfn import MAX_ARITY, TruthTable, restriction_identity_residual
from .connectivity import (
    HARD_BALANCE,
    check_balance_feasible,
    components_of,
    naive_connectivity,
    naive_st_connectivity,
    sample_hard_instance,
    sample_st_instance,
)
from .counting import counting_one_sided, counting_two_sided, threshold_count
from .oracles import BitOracle, EdgeOracle, NoiseModel
from .streams import derive_rng, seed_sequence
from .walks import expected_hitting_time, simulate_first_passage, simulate_hitting

ALGORITHM_KINDS = (
    "threshold",
    "counting",
    "counting2",
    "connectivity",
    "st-connectivity",
    "influence",
    "walk-laws",
)
KINDS = ALGORITHM_KINDS + ("ust-stats",)

CSV_COLUMNS = (
    "experiment",
    "n",
    "k",
    "p",
    "delta",
    "beta",
    "q",
    "trials",
    "errors",
    "error_rate",
    "ci_low",
    "ci_high",
    "mean_queries",
    "stddev_queries",
    "theory_queries",
    "ratio",
    "seed",
)

INFLUENCE_RESIDUAL_TOL = 1e-10
INFLUENCE_SPECIALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment; unused fields stay None."""

    kind: str
    n: int | None = None
    k: int | None = None
    p: float | None = None
    delta: float | None = None
    beta: Fraction | None = None
    q: float | None = None
    trials: int = 0
    seed: int = 0
    ones: int | None = None
    asymptotic_presample: bool = False
    jobs: int = 1


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated outcome of one experiment (one CSV row)."""

    spec: ExperimentSpec
    errors: int
    error_rate: float
    ci_low: float
    ci_high: float
    mean_queries: float
    stddev_queries: float
    theory_queries: float
    ratio: float
    wall_time: float


def wilson_interval(errors: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in [0, {trials}], got {errors}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # at 0 or all errors one bound is exactly 0 or 1; rounding must not move it
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return (low, high)


def theory_bound(kind: str, *, n: int | None = None, k: int | None = None, delta: float, p: float) -> float:
    """Leading-order query cost of the named task.

    threshold: n log(min(k, n-k+1)/delta) / D_KL
    counting (k = true count): n log((min(k, n-k)+1)/delta) / D_KL
    connectivity: C(n,2) log(C(n,2)/delta) / D_KL  (naive-solver comparator)
    check-bit: log(1/delta) / D_KL
    """
    noise = NoiseModel(p)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if kind == "threshold":
        if n is None or k is None or not 1 <= k <= n:
            raise ValueError(f"threshold bound needs 1 <= k <= n, got k={k}, n={n}")
        effective = min(k, n - k + 1)
        return n * math.log(effective / delta) / noise.dkl
    if kind in ("counting", "counting2"):
        if n is None or k is None or not 0 <= k <= n:
            raise ValueError(f"counting bound needs 0 <= k <= n, got k={k}, n={n}")
        effective = min(k, n - k) + 1
        return n * math.log(effective / delta) / noise.dkl
    if kind in ("connectivity", "st-connectivity"):
        if n is None or n < 2:
            raise ValueError(f"connectivity bound needs n >= 2, got {n}")
        pairs = n * (n - 1) // 2
        return pairs * math.log(pairs / delta) / noise.dkl
    if kind == "check-bit":
        return math.log(1.0 / delta) / noise.dkl
    raise ValueError(f"no theory bound for kind {kind!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def validate_spec(spec: ExperimentSpec) -> None:
    _require(spec.kind in KINDS, f"unknown experiment kind {spec.kind!r}")
    _require(isinstance(spec.seed, int), "seed must be an integer")
    _require(isinstance(spec.trials, int) and spec.trials >= 1, "trials must be a positive integer")
    _require(isinstance(spec.jobs, int) and spec.jobs >= 1, "jobs must be a positive integer")
    kind = spec.kind
    if kind in ("threshold", "counting", "counting2", "connectivity", "st-connectivity"):
        _require(spec.n is not None and spec.n >= 1, f"{kind} needs n >= 1")
        _require(spec.p is not None and 0.0 < spec.p < 0.5, f"{kind} needs p in (0, 1/2)")
        _require(spec.delta is not None and 0.0 < spec.delta < 1.0, f"{kind} needs delta in (0, 1)")
    if kind == "threshold":
        _require(spec.k is not None and 1 <= spec.k <= spec.n, "threshold needs 1 <= k <= n")
        if spec.ones is not None:
            _require(0 <= spec.ones <= spec.n, "threshold ones recipe must lie in [0, n]")
    if kind in ("counting", "counting2"):
        _require(spec.ones is not None and 0 <= spec.ones <= spec.n, f"{kind} needs ones in [0, n]")
    if kind in ("connectivity", "st-connectivity"):
        _require(spec.n >= 2, f"{kind} needs n >= 2")
        check_balance_feasible(spec.n, spec.beta or HARD_BALANCE)
    if kind == "influence":
        _require(spec.n is not None and 1 <= spec.n <= MAX_ARITY, f"influence needs 1 <= n <= {MAX_ARITY}")
        _require(spec.q is not None and 0.0 <= spec.q <= 1.0, "influence needs q in [0, 1]")
    if kind == "walk-laws":
        _require(spec.p is not None and 0.0 < spec.p < 0.5, "walk-laws needs p in (0, 1/2)")
        _require(spec.k is not None and spec.k >= 1, "walk-laws needs barrier distance k >= 1")
    if kind == "ust-stats":
        raise ValueError("ust-stats produces a scaling table; run it via run_scaling / the CLI")


# -- per-trial workers --------------------------------------------------------


def _bit_oracle_for(spec: ExperimentSpec, trial: int, ones: int) -> tuple[BitOracle, int]:
    instance_rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    hidden = np.zeros(spec.n, dtype=np.uint8)
    hidden[instance_rng.permutation(spec.n)[:ones]] = 1
    oracle = BitOracle(hidden, NoiseModel(spec.p), seed_sequence(spec.seed, spec.kind, "noise", trial))
    return oracle, ones


def _trial_threshold(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    ones = spec.ones
    if ones is None:
        # the hard instance pair: k-1 or k ones with equal probability
        coin_rng = derive_rng(spec.seed, spec.kind, "pair-coin", trial)
        ones = spec.k - 1 + int(coin_rng.integers(0, 2))
    oracle, ones = _bit_oracle_for(spec, trial, ones)
    result = threshold_count(oracle, spec.k, spec.delta)
    return result.value == min(spec.k, ones), result.queries


def _trial_counting(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    oracle, ones = _bit_oracle_for(spec, trial, spec.ones)
    result = counting_one_sided(oracle, spec.delta)
    return result.value == ones, result.queries


def _trial_counting2(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    oracle, ones = _bit_oracle_for(spec, trial, spec.ones)
    algo_rng = derive_rng(spec.seed, spec.kind, "presample", trial)
    result = counting_two_sided(oracle, spec.delta, algo_rng, asymptotic_presample=spec.asymptotic_presample)
    return result.value == ones, result.queries


def _conn_oracle(spec: ExperimentSpec, trial: int, graph) -> EdgeOracle:
    return EdgeOracle(spec.n, graph, NoiseModel(spec.p), seed_sequence(spec.seed, spec.kind, "noise", trial))


def _trial_connectivity(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    instance_rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    instance = sample_hard_instance(spec.n, instance_rng, beta=spec.beta or HARD_BALANCE)
    oracle = _conn_oracle(spec, trial, instance.graph)
    answer = naive_connectivity(oracle, spec.delta)
    return answer == instance.connected, oracle.ledger.total_queries


def _trial_st_connectivity(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    instance_rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    st = sample_st_instance(spec.n, instance_rng, beta=spec.beta or HARD_BALANCE)
    truth = components_of(spec.n, st.instance.graph).connected(st.s, st.t)
    oracle = _conn_oracle(spec, trial, st.instance.graph)
    answer = naive_st_connectivity(oracle, st.s, st.t, spec.delta)
    return answer == truth, oracle.ledger.total_queries


def _trial_influence(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    table = TruthTable.random(spec.n, rng)
    label = int(rng.integers(0, spec.n))
    residual = restriction_identity_residual(table, label, spec.q)
    biased = table.q_biased_influence(label, spec.q)
    total = table.q_biased_total_influence(spec.q)
    ok = (
        residual <= INFLUENCE_RESIDUAL_TOL
        and abs(table.q_biased_influence(label, 0.5) - table.influence(label))
        <= INFLUENCE_SPECIALIZATION_TOL
        and 0.0 <= biased <= 1.0
        and 0.0 <= total <= spec.n
    )
    return ok, 0


_TRIAL_FUNCS = {
    "threshold": _trial_threshold,
    "counting": _trial_counting,
    "counting2": _trial_counting2,
    "connectivity": _trial_connectivity,
    "st-connectivity": _trial_st_connectivity,
    "influence": _trial_influence,
}


def run_trial(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    """Run a single trial; exposed for order-independence testing."""
    try:
        return _TRIAL_FUNCS[spec.kind](spec, trial)
    except Exception as exc:
        raise RuntimeError(f"{spec.kind} trial {trial} failed: {exc}") from exc


def _theory_for(spec: ExperimentSpec) -> float:
    if spec.kind == "threshold":
        return theory_bound("threshold", n=spec.n, k=spec.k, delta=spec.delta, p=spec.p)
    if spec.kind in ("counting", "counting2"):
        return theory_bound("counting", n=spec.n, k=spec.ones, delta=spec.delta, p=spec.p)
    if spec.kind in ("connectivity", "st-connectivity"):
        return theory_bound("connectivity", n=spec.n, delta=spec.delta, p=spec.p)
    if spec.kind == "walk-laws":
        return expected_hitting_time(spec.p, spec.k)
    return 0.0


def _run_walk_laws(spec: ExperimentSpec) -> tuple[int, float, float]:
    """Vectorized runner: hit tallies toward +x, passage times to -x.

    Uses one derived stream per law rather than per-trial streams; the
    result is still a pure function of (seed, p, x, trials).
    """
    hit = simulate_hitting(spec.p, spec.k, spec.trials, derive_rng(spec.seed, spec.kind, "hit", spec.k))
    passage = simulate_first_passage(
        spec.p, spec.k, spec.trials, derive_rng(spec.seed, spec.kind, "passage", spec.k)
    )
    return hit.hits, passage.mean, passage.stddev


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute every trial of ``spec`` and aggregate one report."""
    validate_spec(spec)
    start = time.perf_counter()
    if spec.kind == "walk-laws":
        errors, mean_queries, stddev_queries = _run_walk_laws(spec)
    else:
        if spec.jobs > 1:
            chunk = max(1, spec.trials // (spec.jobs * 8))
            with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
                records = list(pool.map(run_trial, repeat(spec), range(spec.trials), chunksize=chunk))
        else:
            records = [run_trial(spec, t) for t in range(spec.trials)]
        errors = sum(1 for correct, _ in records if not correct)
        total = sum(q for _, q in records)
        total_sq = sum(q * q for _, q in records)
        mean_queries = total / spec.trials
        if spec.trials > 1:
            variance = (total_sq - total * total / spec.trials) / (spec.trials - 1)
            stddev_queries = math.sqrt(max(variance, 0.0))
        else:
            stddev_queries = float("nan")
    ci_low, ci_high = wilson_interval(errors, spec.trials)
    theory = _theory_for(spec)
    ratio = mean_queries / theory if theory > 0 else float("nan")
    return ExperimentReport(
        spec=spec,
        errors=errors,
        error_rate=errors / spec.trials,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_queries=mean_queries,
        stddev_queries=stddev_queries,
        theory_queries=theory,
        ratio=ratio,
        wall_time=time.perf_counter() - start,
    )


# -- report serialization ------------------------------------------------------


def _report_k(report: ExperimentReport) -> int | None:
    # counting experiments carry the true count in the k column
    if report.spec.kind in ("counting", "counting2"):
        return report.spec.ones
    return report.spec.k


def report_to_dict(report: ExperimentReport) -> dict:
    """Row mapping in CSV column order; wall_time intentionally excluded."""
    spec = report.spec
    return {
        "experiment": spec.kind,
        "n": spec.n,
        "k": _report_k(report),
        "p": spec.p,
        "delta": spec.delta,
        "beta": None if spec.beta is None else str(spec.beta),
        "q": spec.q,
        "trials": spec.trials,
        "errors": report.errors,
        "error_rate": report.error_rate,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "mean_queries": report.mean_queries,
        "stddev_queries": report.stddev_queries,
        "theory_queries": report.theory_queries,
        "ratio": report.ratio,
        "seed": spec.seed,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_csv(reports: Sequence[ExperimentReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        row = report_to_dict(report)
        lines.append(",".join(_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def reports_to_json(reports: Sequence[ExperimentReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def summarize(report: ExperimentReport) -> str:
    """One-line human summary (the only place wall_time appears)."""
    row = report_to_dict(report)
    parts = [f"{report.spec.kind}:"]
    for key in ("n", "k", "p", "delta", "beta", "q", "trials", "seed"):
        if row[key] is not None:
            parts.append(f"{key}={row[key]}")
    parts.append(f"errors={report.errors}")
    parts.append(f"error_rate={report.error_rate:.6g}")
    parts.append(f"ci=[{report.ci_low:.6g},{report.ci_high:.6g}]")
    parts.append(f"mean_queries={report.mean_queries:.6g}")
    if report.theory_queries > 0:
        parts.append(f"theory={report.theory_queries:.6g}")
        parts.append(f"ratio={report.ratio:.4g}")
    parts.append(f"wall={report.wall_time:.2f}s")
    return " ".join(parts)
