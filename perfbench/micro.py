"""Micro-benches: one public call of a layer, timed alone on inputs
generated from the workload seed. Each is timed several times and the
median kept."""

from __future__ import annotations

import itertools
import statistics
from fractions import Fraction
from time import perf_counter_ns

import workloads  # noqa: F401  (imports noisyquery from this checkout's src/)
from noisyquery import (
    BitOracle,
    ComplementBitOracle,
    ExperimentReport,
    ExperimentSpec,
    UnionFind,
    WalkPolicy,
    balanced_edges,
    check_bit,
    derive_rng,
    reports_to_csv,
    reports_to_json,
    sample_hard_instance,
    sample_ust,
)

REPEATS = 5


def _median_time(run, repeats: int = REPEATS) -> float:
    """Median ns over ``repeats`` calls of ``run``, which returns its unit count."""
    samples = []
    for _ in range(repeats):
        start = perf_counter_ns()
        units = run()
        samples.append((perf_counter_ns() - start) / units)
    return statistics.median(samples)


def _bit_oracle(seed: int, tag: str, n: int) -> BitOracle:
    bits = derive_rng(seed, "micro", tag, "bits").integers(0, 2, size=n)
    return BitOracle(bits, 0.25, derive_rng(seed, "micro", tag, "noise"))


def _query(seed: int) -> float:
    oracle = _bit_oracle(seed, "query", 2000)
    keys = derive_rng(seed, "micro", "query", "keys").integers(0, 2000, size=20000).tolist()

    def run():
        query = oracle.query
        for i in keys:
            query(i)
        return len(keys)

    return _median_time(run)


def _walk_per_step(oracle, keys) -> float:
    # wide barriers make walks of about 60 steps, so the per-call cost of
    # check_bit is spread thin and the step loop dominates
    policy = WalkPolicy(30, 30)

    def run():
        return sum(check_bit(oracle, i, 0.01, policy=policy).steps_used for i in keys)

    return _median_time(run)


def _hard_instance(seed: int) -> float:
    rngs = iter([derive_rng(seed, "micro", "instance", j) for j in range(40 * REPEATS)])

    def run():
        for _ in range(40):
            sample_hard_instance(50, next(rngs))
        return 40

    return _median_time(run) / 1e3


def _ust6400(seed: int) -> float:
    rngs = iter([derive_rng(seed, "micro", "ust", j) for j in range(REPEATS)])

    def run():
        balanced_edges(sample_ust(6400, next(rngs)), Fraction(1, 3))
        return 1

    return _median_time(run) / 1e6


def _union(seed: int) -> float:
    n = 100_000
    pairs = derive_rng(seed, "micro", "union").integers(0, n, size=(n, 2)).tolist()

    def run():
        uf = UnionFind(n)
        union = uf.union
        for x, y in pairs:
            union(x, y)
        return n

    return _median_time(run)


def _serialize(seed: int) -> float:
    rng = derive_rng(seed, "micro", "serialize")
    reports = []
    for i in range(200):
        rate = float(rng.random())
        spec = ExperimentSpec("threshold", n=1000 + i, k=10, p=0.25, delta=0.01, trials=100, seed=int(rng.integers(0, 2**31)))
        reports.append(
            ExperimentReport(spec, int(rate * 100), rate, rate / 2, (1 + rate) / 2, 1e4 * (1 + rate), 99.5, 1e4, 1 + rate, 0.0)
        )

    def run():
        reports_to_csv(reports)
        reports_to_json(reports)
        return len(reports)

    return _median_time(run) / 1e3


def _derive(seed: int) -> float:
    tags = itertools.count()

    def run():
        for _ in range(300):
            derive_rng(seed, "micro", "derive", next(tags))
        return 300

    return _median_time(run) / 1e3


def micro_metrics(seed: int) -> dict[str, float]:
    fast = _bit_oracle(seed, "fast", 2000)
    generic = ComplementBitOracle(_bit_oracle(seed, "generic", 500))
    return {
        "harness.serialize_us": _serialize(seed),
        "streams.derive_rng_us": _derive(seed),
        "oracles.query_ns": _query(seed),
        "walks.fast_ns_per_step": _walk_per_step(fast, range(2000)),
        "walks.generic_ns_per_step": _walk_per_step(generic, range(500)),
        "connectivity.hard_instance_us": _hard_instance(seed),
        "trees.ust6400_ms": _ust6400(seed),
        "unionfind.union_ns": _union(seed),
    }
