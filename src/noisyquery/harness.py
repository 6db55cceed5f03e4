"""Monte Carlo experiment runner with theory-bound comparisons.

Each experiment runs independent trials; a trial samples a fresh
instance, runs the designated algorithm against a fresh oracle, and
scores correctness against the known ground truth. All per-trial
randomness derives from (master seed, experiment kind, trial index,
role), so reports are reproducible bit-for-bit on any worker count and
any execution order. Query statistics aggregate as exact integers.
Trials run in blocks: each trial samples its instance and builds its
oracle as alone, then one algorithm call walks every oracle of the block
in the same walk-kernel rounds. Answers are counter-based, so the
records do not depend on the blocks.

Each experiment kind is one :class:`Kind` record in ``KINDS``: the spec
fields it reads with their rules and flags, its block function (or
vectorised runner), its theory comparator, its ``k`` column and its gate.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import repeat
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .boolfn import MAX_ARITY, TruthTable, restriction_identity_residual
from .connectivity import HARD_BALANCE, _hard_tree, _reconstruct, _under, check_balance_feasible
from .counting import counts_one_sided, counts_two_sided, threshold_counts
from .oracles import BitOracle, EdgeOracle, NoiseModel
from .streams import _is_integer, _is_real, derive_rng, seed_sequence
from .trees import ScalingReport
from .walks import (
    PassageTally, _check_delta, expected_hitting_time, hitting_probability, simulate_first_passage, simulate_hitting
)

# not called here but kept as module attributes: instrumentation such as
# perfbench's tracer wraps them by these names
from .connectivity import naive_connectivity, sample_hard_instance  # noqa: F401
from .counting import counting_one_sided, counting_two_sided, threshold_count  # noqa: F401

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
# a block of trials walks at most this many kernel keys (bits, or vertex
# pairs) at once, which bounds its memory: 3 trials at n=10^4, 16 at
# n=2000, 26 connectivity trials at n=50 (see _run_trials)
_BLOCK_KEYS = 1 << 15


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment; fields the kind does not read keep their defaults."""

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


# every report's error-rate interval is at this level; _WILSON_Z is its normal quantile
WILSON_CONFIDENCE = 0.95
_WILSON_Z = NormalDist().inv_cdf(0.5 + WILSON_CONFIDENCE / 2.0)


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at :data:`WILSON_CONFIDENCE`."""
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_integer(errors) or not 0 <= errors <= trials:
        raise ValueError(f"errors must be an integer in [0, {trials}], got {errors!r}")
    z = _WILSON_Z
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

    Each log(c/delta) is computed as written while c/delta is finite,
    and as log(c) - log(delta) once it overflows a double. n and k must
    be integers and delta a real number; a bool is neither.
    """
    noise = NoiseModel(p)
    delta = _check_delta(delta, "delta")
    if kind == "threshold":
        if not (_is_integer(n) and _is_integer(k) and 1 <= k <= n):
            raise ValueError(f"threshold bound needs integers 1 <= k <= n, got k={k!r}, n={n!r}")
        effective = min(k, n - k + 1)
        return n * _log_over(effective, delta) / noise.dkl
    if kind == "counting":
        if not (_is_integer(n) and _is_integer(k) and 0 <= k <= n):
            raise ValueError(f"counting bound needs integers 0 <= k <= n, got k={k!r}, n={n!r}")
        effective = min(k, n - k) + 1
        return n * _log_over(effective, delta) / noise.dkl
    if kind == "connectivity":
        if not _is_integer(n) or n < 2:
            raise ValueError(f"connectivity bound needs n >= 2 (an integer), got {n!r}")
        pairs = n * (n - 1) // 2
        return pairs * _log_over(pairs, delta) / noise.dkl
    raise ValueError(f"no theory bound for kind {kind!r}")


def _log_over(count: float, delta: float) -> float:
    # log(count/delta) as the comparators have always formed it where the
    # quotient is finite, so their rows keep every bit
    ratio = count / delta
    return math.log(ratio) if math.isfinite(ratio) else math.log(count) - math.log(delta)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class Param:
    """One spec field a kind reads: its rule, what None stands for, its flag.

    A value must be of the field's ``type`` (see :meth:`admits`), and
    ``ok(value, spec)`` says whether it is valid, or raises a
    ValueError of its own that says why not. None is invalid unless the
    field is optional; then it stands for ``fallback``. A required field
    with a ``cli_default`` is optional on the command line only.
    """

    field: str
    type: Callable = float
    rule: str = ""
    ok: Callable[[object, ExperimentSpec], bool] = lambda value, spec: True
    optional: bool = False
    fallback: object = None
    flag: str | None = None
    cli_default: object = None
    help: str | None = None

    def of(self, spec: ExperimentSpec):
        value = getattr(spec, self.field)
        return self.fallback if value is None else value

    def admits(self, value) -> bool:
        """Whether ``value`` is of this field's type: a bool only for bool
        fields, an integer for int fields, an int or a float for float
        fields, and a real number for the others."""
        if isinstance(value, bool) or self.type is bool:
            return isinstance(value, bool) and self.type is bool
        if self.type is int:
            return _is_integer(value)
        return isinstance(value, (int, float)) if self.type is float else _is_real(value)


N = Param("n", int, "n >= 1", lambda v, s: v >= 1)
K = Param("k", int, "1 <= k <= n", lambda v, s: 1 <= v <= s.n)
P = Param("p", float, "p in (0, 1/2)", lambda v, s: 0.0 < v < 0.5)
DELTA = Param("delta", float, "delta in (0, 1)", lambda v, s: 0.0 < v < 1.0)
CONN_N = Param("n", int, "n >= 2", lambda v, s: v >= 2)
BETA = Param(
    "beta", Fraction, "a feasible balance threshold", lambda v, s: check_balance_feasible(s.n, v) is not None,
    optional=True, fallback=HARD_BALANCE, help="balance threshold (default 1/21)",
)
ONES = Param("ones", int, "ones in [0, n]", lambda v, s: 0 <= v <= s.n, help="true number of ones per instance")
PINNED_ONES = replace(
    ONES, optional=True, help="fixed number of ones per instance (default: k-1 or k by fair coin)"
)
PRESAMPLE = Param(
    "asymptotic_presample", bool, "asymptotic_presample True or False", optional=True, flag="asymptotic-presample",
    help="size the orientation presample as n^0.99 checks at error n^-100",
)
ARITY = Param(
    "n", int, f"1 <= n <= {MAX_ARITY}", lambda v, s: 1 <= v <= MAX_ARITY, help="arity of the random functions"
)
BIAS = Param("q", float, "q in [0, 1]", lambda v, s: 0.0 <= v <= 1.0, help="bias of the product measure")
BARRIER = Param(
    "k", int, "barrier distance k >= 1", lambda v, s: v >= 1, flag="x-max", cli_default=6,
    help="largest barrier distance (rows for 1..x-max)",
)


# -- gates ---------------------------------------------------------------------


def error_bound(delta: float, trials: int) -> float:
    """Largest error rate the gate accepts: delta plus three binomial sigmas."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def _delta_gate(report: ExperimentReport) -> list[str]:
    spec = report.spec
    bound = error_bound(spec.delta, spec.trials)
    if report.error_rate > bound:
        return [f"{spec.kind}: error rate {report.error_rate:.6g} exceeds delta+3sigma = {bound:.6g}"]
    return []


def _influence_gate(report: ExperimentReport) -> list[str]:
    return [f"influence: {report.errors} identity violations"] if report.errors else []


def _walk_laws_gate(report: ExperimentReport) -> list[str]:
    spec = report.spec
    failures = []
    law = hitting_probability(spec.p, spec.k)
    slack = 3.0 * math.sqrt(law * (1.0 - law) / spec.trials)
    if abs(report.error_rate - law) > slack:
        failures.append(
            f"walk-laws x={spec.k}: hit rate {report.error_rate:.6g} departs from {law:.6g} by more than 3 sigma"
        )
    if abs(report.ratio - 1.0) > 0.02:
        failures.append(
            f"walk-laws x={spec.k}: mean passage time off the exact law by {abs(report.ratio - 1) * 100:.2f}% (> 2%)"
        )
    return failures


def scaling_gate_failures(report: ScalingReport) -> list[str]:
    """The ust-stats gate: growth exponents 0.5 +/- 0.1 and 1.5 +/- 0.1."""
    failures = []
    if not 0.4 <= report.balanced_median_slope <= 0.6:
        failures.append(f"balanced-edge slope {report.balanced_median_slope:.4f} outside 0.5 +/- 0.1")
    if not 1.4 <= report.s_sum_median_slope <= 1.6:
        failures.append(f"split-size slope {report.s_sum_median_slope:.4f} outside 1.5 +/- 0.1")
    return failures


# -- block workers -------------------------------------------------------------
# A kind's block function gives the (correct, queries) records of a range of
# trials, in order. Each trial samples its instance and builds its oracle as
# it would alone, named after its trial if that fails; then one algorithm
# call, named after the range, walks every oracle of the block together.


def _bit_oracle_for(spec: ExperimentSpec, trial: int, ones: int, noise: NoiseModel) -> BitOracle:
    instance_rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    hidden = np.zeros(spec.n, dtype=np.uint8)
    hidden[instance_rng.permutation(spec.n)[:ones]] = 1
    return BitOracle(hidden, noise, seed_sequence(spec.seed, spec.kind, "noise", trial))


def _pinned_ones(spec: ExperimentSpec, trial: int) -> int:
    if spec.ones is not None:
        return spec.ones
    # the hard instance pair: k-1 or k ones with equal probability
    coin_rng = derive_rng(spec.seed, spec.kind, "pair-coin", trial)
    return spec.k - 1 + int(coin_rng.integers(0, 2))


def _each_trial(spec: ExperimentSpec, build: Callable, trials: range, *columns) -> list:
    # build(spec, trial, column values...) for each trial in order, as in
    # the trial alone; a failure is named after its trial
    built = []
    for trial, *values in zip(trials, *columns):
        with _naming(spec, range(trial, trial + 1)):
            built.append(build(spec, trial, *values))
    return built


def _threshold_block(spec: ExperimentSpec, trials: range) -> list[tuple[bool, int]]:
    pinned = [_pinned_ones(spec, trial) for trial in trials]
    oracles = _each_trial(spec, _bit_oracle_for, trials, pinned, repeat(NoiseModel(spec.p)))
    with _naming(spec, trials):
        results = threshold_counts(oracles, spec.k, spec.delta)
    records = []
    for ones, result in zip(pinned, results):
        if 2 * spec.k > spec.n + 1:
            # the complement scan answers "at least k" or "fewer than k", not a count
            correct = (result.value == spec.k) == (ones >= spec.k)
        else:
            correct = result.value == min(spec.k, ones)
        records.append((correct, result.queries))
    return records


def _counting_block(spec: ExperimentSpec, trials: range) -> list[tuple[bool, int]]:
    oracles = _each_trial(spec, _bit_oracle_for, trials, repeat(spec.ones), repeat(NoiseModel(spec.p)))
    with _naming(spec, trials):
        results = counts_one_sided(oracles, spec.delta)
    return [(result.value == spec.ones, result.queries) for result in results]


def _counting2_block(spec: ExperimentSpec, trials: range) -> list[tuple[bool, int]]:
    oracles = _each_trial(spec, _bit_oracle_for, trials, repeat(spec.ones), repeat(NoiseModel(spec.p)))
    rngs = [derive_rng(spec.seed, spec.kind, "presample", trial) for trial in trials]
    with _naming(spec, trials):
        results = counts_two_sided(oracles, spec.delta, rngs, asymptotic_presample=spec.asymptotic_presample)
    return [(result.value == spec.ones, result.queries) for result in results]


def _connectivity_case(spec: ExperimentSpec, trial: int, noise: NoiseModel, frac: Fraction):
    """A connectivity trial's oracle, its truth, and its terminals (None without).

    The oracle's edges are the tree's (child, parent) pairs, less the cut
    child's; for st-connectivity, s and t are drawn after the instance and
    lie apart iff exactly one of them is under the cut.
    """
    instance_rng = derive_rng(spec.seed, spec.kind, "instance", trial)
    parent, order, removed, label = _hard_tree(spec.n, instance_rng, frac)
    children = np.array(order)
    if removed is not None:
        children = children[children != removed]
    pairs = np.column_stack((children, np.array(parent)[children]))
    if spec.kind == "connectivity":
        truth, terminals = label == 1, None
    else:
        terminals = int(instance_rng.integers(0, spec.n)), int(instance_rng.integers(0, spec.n))
        truth = removed is None or _under(parent, terminals[0], removed) == _under(parent, terminals[1], removed)
    oracle = EdgeOracle(spec.n, pairs, noise, seed_sequence(spec.seed, spec.kind, "noise", trial))
    return oracle, truth, terminals


def _connectivity_block(spec: ExperimentSpec, trials: range) -> list[tuple[bool, int]]:
    frac = check_balance_feasible(spec.n, BETA.of(spec))
    cases = _each_trial(spec, _connectivity_case, trials, repeat(NoiseModel(spec.p)), repeat(frac))
    oracles = [oracle for oracle, _, _ in cases]
    with _naming(spec, trials):
        labels = _reconstruct(oracles, spec.delta).tolist()
    records = []
    for (oracle, truth, terminals), row in zip(cases, labels):
        # each vertex is labelled with its component's least vertex
        answer = not any(row) if terminals is None else row[terminals[0]] == row[terminals[1]]
        records.append((answer == truth, oracle.ledger.total_queries))
    return records


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


def _influence_block(spec: ExperimentSpec, trials: range) -> list[tuple[bool, int]]:
    return _each_trial(spec, _trial_influence, trials)


def _blocks(spec: ExperimentSpec, size: int) -> list[range]:
    """The trial ids in near-equal ranges of at most max(1, size), and at least one per worker."""
    count = max(-(-spec.trials // max(1, size)), min(spec.jobs, spec.trials))
    bounds = [spec.trials * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_trials(spec: ExperimentSpec) -> tuple[int, float, float]:
    """Errors, mean and stddev of queries over every trial of ``spec``.

    The trials run in blocks of at most ``_BLOCK_KEYS`` kernel keys (see
    :func:`_blocks`), and the kind's ``block(spec, trials)`` gives the
    records of one block in order. With ``jobs`` > 1 a process pool maps
    the blocks.
    """
    kind = KINDS[spec.kind]
    blocks = _blocks(spec, 1 if kind.keys is None else _BLOCK_KEYS // kind.keys(spec))
    if spec.jobs > 1:
        # imported here: a run of one job, and importing the package, need no pool
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(blocks) // (spec.jobs * 8))
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            parts = list(pool.map(kind.block, repeat(spec), blocks, chunksize=chunk))
    else:
        parts = [kind.block(spec, trials) for trials in blocks]
    records = [record for part in parts for record in part]
    errors = sum(1 for correct, _ in records if not correct)
    queries = PassageTally(spec.trials, sum(q for _, q in records), sum(q * q for _, q in records))
    return errors, queries.mean, queries.stddev


def _run_walk_laws(spec: ExperimentSpec) -> tuple[int, float, float]:
    """Vectorized runner: hit tallies toward +x, passage times to -x.

    Uses one oracle stream per law rather than per-trial streams; the
    result is still a pure function of (seed, p, x, trials).
    """
    hit = simulate_hitting(spec.p, spec.k, spec.trials, seed_sequence(spec.seed, spec.kind, "hit", spec.k))
    passage = simulate_first_passage(
        spec.p, spec.k, spec.trials, seed_sequence(spec.seed, spec.kind, "passage", spec.k)
    )
    return hit.hits, passage.mean, passage.stddev


# -- the registry --------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """Everything one experiment kind means.

    ``params`` are the spec fields it reads, in flag order; ``run`` gives
    (errors, mean queries, stddev queries), by default over the records
    that ``block`` gives for blocks of trials. A trial walks ``keys(spec)``
    kernel keys, or none. ``theory`` is the comparator (0 for none) and
    ``k_column`` the field in the ``k`` column. With ``sweep_k`` the
    command reports one row per k from 1 up to the flag's value.
    """

    name: str
    help: str
    params: tuple[Param, ...]
    theory: Callable[[ExperimentSpec], float]
    gate: Callable[[ExperimentReport], list[str]]
    block: Callable[[ExperimentSpec, range], list[tuple[bool, int]]] | None = None
    keys: Callable[[ExperimentSpec], int] | None = None
    run: Callable[[ExperimentSpec], tuple[int, float, float]] = _run_trials
    k_column: str = "k"
    trials_default: int = 1000
    sweep_k: bool = False


def _counting_theory(spec: ExperimentSpec) -> float:
    return theory_bound("counting", n=spec.n, k=spec.ones, delta=spec.delta, p=spec.p)


def _connectivity_theory(spec: ExperimentSpec) -> float:
    return theory_bound("connectivity", n=spec.n, delta=spec.delta, p=spec.p)


def _bits(spec: ExperimentSpec) -> int:
    return spec.n


def _pairs(spec: ExperimentSpec) -> int:
    return spec.n * (spec.n - 1) // 2


KINDS = {
    kind.name: kind
    for kind in (
        Kind("threshold", "decide whether at least k of n bits are ones", (N, K, P, DELTA, PINNED_ONES),
             lambda s: theory_bound("threshold", n=s.n, k=s.k, delta=s.delta, p=s.p), _delta_gate,
             block=_threshold_block, keys=_bits),
        Kind("counting", "count the ones exactly (one-sided algorithm)", (N, P, DELTA, ONES),
             _counting_theory, _delta_gate, block=_counting_block, keys=_bits, k_column="ones"),
        Kind("counting2", "count the ones exactly (orientation wrapper)", (N, P, DELTA, ONES, PRESAMPLE),
             _counting_theory, _delta_gate, block=_counting2_block, keys=_bits, k_column="ones"),
        Kind("connectivity", "decide connectivity of hard spanning-tree instances", (CONN_N, P, DELTA, BETA),
             _connectivity_theory, _delta_gate, block=_connectivity_block, keys=_pairs),
        Kind("st-connectivity", "decide s-t connectivity with uniform random terminals", (CONN_N, P, DELTA, BETA),
             _connectivity_theory, _delta_gate, block=_connectivity_block, keys=_pairs),
        Kind("influence", "influence identities on random truth tables", (ARITY, BIAS),
             lambda s: 0.0, _influence_gate, block=_influence_block, trials_default=100),
        Kind("walk-laws", "gambler's-ruin hitting laws, one row per barrier", (P, BARRIER),
             lambda s: expected_hitting_time(s.p, s.k), _walk_laws_gate, run=_run_walk_laws,
             trials_default=10**6, sweep_k=True),
    )
}


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Raise ValueError unless ``spec`` can run; return it with numpy scalars as the Python numbers they equal."""
    numpy = {f.name: v.item() for f in fields(spec) if isinstance(v := getattr(spec, f.name), np.generic)}
    spec = replace(spec, **numpy)
    known = f"{', '.join(KINDS)}; ust-stats tables come from structure_scaling_report"
    _require(spec.kind in KINDS, f"unknown experiment kind {spec.kind!r} (kinds: {known})")
    _require(_is_integer(spec.seed), "seed must be an integer")
    _require(_is_integer(spec.trials) and spec.trials >= 1, "trials must be a positive integer")
    _require(_is_integer(spec.jobs) and spec.jobs >= 1, "jobs must be a positive integer")
    params = KINDS[spec.kind].params
    read = {param.field for param in params} | {"kind", "trials", "seed", "jobs"}
    unread = [f.name for f in fields(ExperimentSpec) if f.name not in read and getattr(spec, f.name) != f.default]
    _require(not unread, f"{spec.kind} does not read {', '.join(unread)}; leave them unset")
    for param in params:
        value = param.of(spec)
        if value is None and param.optional:
            continue
        _require(
            value is not None and param.admits(value) and param.ok(value, spec), f"{spec.kind} needs {param.rule}"
        )
    return spec


class _TrialFailed(RuntimeError):
    """A trial raised; the message names the kind and the trial, or the block."""


@contextmanager
def _naming(spec: ExperimentSpec, trials: range):
    # re-raises what the body raises as a _TrialFailed that names the trials
    try:
        yield
    except _TrialFailed:
        raise
    except Exception as exc:
        which = f"trial {trials[0]}" if len(trials) == 1 else f"trials {trials[0]}-{trials[-1]}"
        raise _TrialFailed(f"{spec.kind} {which} failed: {exc}") from exc


def run_trial(spec: ExperimentSpec, trial: int) -> tuple[bool, int]:
    """Run a single trial, the block of one, of a spec that :func:`validate_spec`
    admits; exposed for order-independence testing. Walk-laws runs only whole."""
    spec = validate_spec(spec)
    block = KINDS[spec.kind].block
    _require(block is not None, f"{spec.kind} has no single trials; run_experiment runs it whole")
    trials = range(trial, trial + 1)
    with _naming(spec, trials):
        return block(spec, trials)[0]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute every trial of ``spec`` and aggregate one report."""
    spec = validate_spec(spec)
    kind = KINDS[spec.kind]
    start = time.perf_counter()
    errors, mean_queries, stddev_queries = kind.run(spec)
    ci_low, ci_high = wilson_interval(errors, spec.trials)
    theory = kind.theory(spec)
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


def gate_failures(report: ExperimentReport) -> list[str]:
    """The kind's statistical gate: one line per failed bound, empty on a pass."""
    return KINDS[report.spec.kind].gate(report)


# -- report serialization ------------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    """Row mapping in CSV column order; wall_time intentionally excluded."""
    spec = report.spec
    return {
        "experiment": spec.kind,
        "n": spec.n,
        "k": getattr(spec, KINDS[spec.kind].k_column),
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
    import json

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
