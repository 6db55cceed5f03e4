"""Outside-in tracing: spans and counts at the module boundaries.

``Tracer.installed()`` swaps the names one module of ``noisyquery`` uses
to call into another (``harness.threshold_count``, ``counting.check_bit``,
...) for wrappers that record a span around each call, and puts the
originals back on exit. No file of the package changes, and since the
wrappers return what the wrapped call returned, the report rows do not
change either.

Trials, instances, algorithms and trees get full spans: name, start,
end, parent and trial id. Bit-estimation walks run about 10^4 times per
threshold trial, too many to keep one span each, so each walk only adds
to its parent span's aggregate: call count, total time and a histogram
of ``WalkOutcome.steps_used``.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import workloads  # noqa: F401  (imports noisyquery from this checkout's src/)
from noisyquery import connectivity, counting, harness, trees

# (module whose name is swapped, name, span name, kind)
BOUNDARIES = (
    (harness, "run_trial", "harness.trial", "trial"),
    (harness, "derive_rng", "streams.derive", "span"),
    (harness, "seed_sequence", "streams.derive", "span"),
    (trees, "derive_rng", "streams.derive", "tree_trial"),
    (harness, "BitOracle", "oracles.build", "oracle"),
    (harness, "EdgeOracle", "oracles.build", "oracle"),
    (harness, "threshold_count", "counting.threshold", "span"),
    (harness, "counting_one_sided", "counting.one_sided", "span"),
    (harness, "counting_two_sided", "counting.two_sided", "span"),
    (counting, "counting_one_sided", "counting.one_sided", "span"),
    (harness, "sample_hard_instance", "connectivity.instance", "span"),
    (harness, "naive_connectivity", "connectivity.reconstruct", "span"),
    (connectivity, "sample_ust", "trees.sample_ust", "span"),
    (connectivity, "balanced_edges", "trees.balanced_edges", "span"),
    (trees, "sample_ust", "trees.sample_ust", "span"),
    (trees, "balanced_edges", "trees.balanced_edges", "span"),
    (counting, "asymmetric_check_bit", "walks.walk", "walk"),
    (counting, "check_bit", "walks.walk", "walk"),
    (connectivity, "check_bit", "walks.walk", "walk"),
)

COUNTING_SPANS = ("counting.threshold", "counting.one_sided", "counting.two_sided")
# spans whose first argument is a size, or has one as ``.n``
SIZED_SPANS = ("trees.sample_ust", "trees.balanced_edges", "counting.threshold")


@dataclass
class Span:
    id: int
    name: str
    parent: int
    trial: str | None
    start: int
    end: int = 0
    n: int | None = None
    queries: int | None = None


@dataclass
class WalkAggregate:
    """Every walk made directly under one span."""

    calls: int = 0
    ns: int = 0
    steps: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        # names the current repetition in trial ids; set by the caller
        self.label = ""
        self.spans: list[Span] = []
        self.walks: dict[int, WalkAggregate] = {}
        self.ledgers: list = []
        self._stack: list[Span] = []
        self._trial: str | None = None
        self._tree_trials = 0

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, name, span_name, kind in BOUNDARIES:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap(original, span_name, kind))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def _wrap(self, fn, span_name: str, kind: str):
        if kind == "walk":
            return self._wrap_walk(fn)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if kind == "trial":
                self._trial = f"{self.label}:{args[0].kind}:{args[1]}"
            elif kind == "tree_trial":
                self._tree_trials += 1
                self._trial = f"{self.label}:ust:{self._tree_trials}"
            span = Span(len(spans), span_name, stack[-1].id if stack else -1, self._trial, 0)
            if span_name in SIZED_SPANS:
                span.n = getattr(args[0], "n", args[0])
            spans.append(span)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if kind == "oracle":
                self.ledgers.append(result.ledger)
            elif hasattr(result, "queries"):
                span.queries = result.queries
            return result

        return wrapper

    def _wrap_walk(self, fn):
        stack = self._stack
        walks = self.walks

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            outcome = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            parent = stack[-1].id if stack else -1
            agg = walks.get(parent)
            if agg is None:
                agg = walks[parent] = WalkAggregate()
            agg.calls += 1
            agg.ns += elapsed
            agg.steps[outcome.steps_used] += 1
            return outcome

        return wrapper

    def write(self, path) -> None:
        """Spans, then walk aggregates, one JSON object per line."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(vars(s)) + "\n")
            for parent, agg in sorted(self.walks.items()):
                steps = {str(k): v for k, v in sorted(agg.steps.items())}
                out.write(json.dumps({"walks_under": parent, "calls": agg.calls, "ns": agg.ns, "steps": steps}) + "\n")


def _quantile(counts: Counter, q: float) -> int:
    """Smallest value with at least a share ``q`` of the mass at or below it."""
    total = sum(counts.values())
    if not total:
        return 0
    need = q * total
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= need:
            return value
    return max(counts)


def layer_metrics(tracer: Tracer, grid) -> dict[str, float]:
    """Per-layer numbers from every span the tracer recorded."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(s: Span) -> int:
        return s.end - s.start

    # a span's self time is its duration less what its direct children cover
    child_ns = Counter()
    for s in tracer.spans:
        if s.parent >= 0:
            child_ns[s.parent] += dur(s)
    steps = Counter()
    for parent, agg in tracer.walks.items():
        child_ns[parent] += agg.ns
        steps.update(agg.steps)
    walk_calls = sum(agg.calls for agg in tracer.walks.values())
    walk_ns = sum(agg.ns for agg in tracer.walks.values())

    def self_ms(group) -> float:
        return sum(dur(s) - child_ns[s.id] for s in group) / 1e6

    def mean(group, scale) -> float:
        return sum(dur(s) for s in group) / len(group) / scale if group else 0.0

    trial_spans = by_name.get("harness.trial", [])
    tree_spans = by_name.get("trees.sample_ust", [])
    # a trial is a harness trial, or on ust one tree sampled and analysed
    trials = len(trial_spans) or len(tree_spans)
    per_trial = 1.0 / trials if trials else 0.0
    trial_ms = [dur(s) / 1e6 for s in trial_spans]
    instance_ids = {s.id for s in by_name.get("connectivity.instance", [])}
    thresholds = by_name.get("counting.threshold", [])
    one_sided = by_name.get("counting.one_sided", [])
    two_sided = by_name.get("counting.two_sided", [])
    count_phase = {s.parent: s.queries for s in one_sided}
    reconstructs = by_name.get("connectivity.reconstruct", [])

    metrics = {
        "harness.trial_ms_p50": _percentile(trial_ms, 50),
        "harness.trial_ms_p99": _percentile(trial_ms, 99),
        "harness.trial_samples": len(trial_ms),
        "harness.trial_self_ms": self_ms(trial_spans) / len(trial_spans) if trial_spans else 0.0,
        "streams.derive_calls": len(by_name.get("streams.derive", [])) * per_trial,
        "streams.derive_us": mean(by_name.get("streams.derive", []), 1e3),
        "oracles.queries": sum(ledger.total_queries for ledger in tracer.ledgers) * per_trial,
        "oracles.build_ms": mean(by_name.get("oracles.build", []), 1e6),
        "walks.calls": walk_calls * per_trial,
        "walks.self_ms": walk_ns / 1e6 * per_trial,
        "walks.steps_p50": _quantile(steps, 0.5),
        "walks.steps_p99": _quantile(steps, 0.99),
        "walks.steps_max": max(steps, default=0),
        "counting.self_ms": sum(self_ms(by_name.get(n, [])) for n in COUNTING_SPANS) * per_trial,
        # the two phases of one counting_two_sided call, per call
        "counting.presample_queries": (
            sum(s.queries - count_phase[s.id] for s in two_sided) / len(two_sided) if two_sided else 0.0
        ),
        "counting.count_queries": sum(count_phase[s.id] for s in two_sided) / len(two_sided) if two_sided else 0.0,
        "counting.scan_fraction": (
            sum(tracer.walks[s.id].calls / s.n for s in thresholds) / len(thresholds) if thresholds else 0.0
        ),
        "connectivity.instance_us": mean(by_name.get("connectivity.instance", []), 1e3),
        "connectivity.trees_per_instance": (
            sum(1 for s in tree_spans if s.parent in instance_ids) / len(instance_ids) if instance_ids else 0.0
        ),
        "connectivity.reconstruct_self_ms": self_ms(reconstructs) / len(reconstructs) if reconstructs else 0.0,
    }
    for size in grid:
        sampled = [s for s in tree_spans if s.n == size]
        analysed = [s for s in by_name.get("trees.balanced_edges", []) if s.n == size]
        metrics[f"trees.sample_ust_ms.n{size}"] = mean(sampled, 1e6)
        metrics[f"trees.balanced_edges_ms.n{size}"] = mean(analysed, 1e6)
    return metrics


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return float(sum(values))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
