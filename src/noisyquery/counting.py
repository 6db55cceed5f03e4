"""Counting ones in a noisy bit vector.

Three procedures over a :class:`~noisyquery.oracles.BitOracle`:

* ``threshold_count``: decide whether at least k ones are present, via
  one asymmetric bit check per index with early exit at k hits.
* ``counting_one_sided``: exact count. Every index runs the same
  up/down walk, always advancing the currently most-promising index;
  an index is counted once its walk clears a retire barrier, and the
  run ends when even the best remaining walk is hopeless for the
  current count. That schedule runs as level sweeps: at each level
  every remaining index walks until it falls one level or retires.
* ``counting_two_sided``: orientation wrapper that first cheaply
  estimates whether ones or zeros are the minority and counts the
  minority side, which is what makes the cost symmetric in the answer.

All walks run through :func:`noisyquery.walks.walks`, many keys per
call. Answers are counter-based, so this gives the same answers, counts
and ledgers as checking the keys one at a time in the order described.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import ComplementBitOracle
from .streams import as_generator
# check_bit is not called here but stays a module attribute: walk
# instrumentation, such as perfbench's tracer, wraps it by this name
from .walks import (  # noqa: F401
    WalkPolicy,
    _check_delta,
    asymmetric_check_bit,
    block_keys,
    check_bit,
    commit_walks,
    snapped_ceil,
    walks,
)


@dataclass(frozen=True)
class ThresholdResult:
    """min(k, true count) claim plus the number of queries spent.

    ``value == k`` means "at least k ones"; any smaller value is a
    claimed exact count.
    """

    value: int
    queries: int


@dataclass(frozen=True)
class CountResult:
    """Claimed exact count of ones plus the number of queries spent."""

    value: int
    queries: int


def threshold_count(oracle, k: int, delta: float) -> ThresholdResult:
    """Return min(k, #ones) with error probability at most ``delta``.

    Scans indices once, estimating each bit with error delta/2n on
    zeros and delta/2k on ones, and stops as soon as k ones are
    confirmed. The scan walks one block of indices at a time and charges
    only the indices up to the one that ends it.
    """
    n = oracle.n
    if not isinstance(k, int) or not 1 <= k <= n:
        raise ValueError(f"threshold k must be an integer in [1, {n}], got {k!r}")
    _check_delta(delta, "delta")
    delta0 = delta / (2.0 * n)
    delta1 = delta / (2.0 * k)
    policy = WalkPolicy.for_error_bounds(oracle.noise, delta0, delta1)
    a = policy.down_threshold_a
    b = policy.up_threshold_b
    chunk = block_keys(oracle.noise.p, a, b)
    start = oracle.ledger.total_queries
    count = 0
    for lo in range(0, n, chunk):
        keys = np.arange(lo, min(lo + chunk, n))
        decided, steps = walks(oracle, keys, a, b, commit=False)
        ones = count + np.cumsum(decided)
        reached = np.flatnonzero(ones >= k)
        if reached.size == 0 and keys[-1] < n - 1:
            commit_walks(oracle, keys, steps)
            count = int(ones[-1])
            continue
        last = int(reached[0]) if reached.size else keys.size - 1
        commit_walks(oracle, keys[:last], steps[:last])
        # Stopgap: the index that ends the scan is walked again, one key
        # through asymmetric_check_bit, with the same answers and verdict.
        # perfbench's tracer wraps that name and raises KeyError on a scan
        # with no wrapped walk; once it wraps walks.walks instead, this
        # becomes commit_walks(oracle, keys[: last + 1], steps[: last + 1]).
        count = int(ones[last]) - int(decided[last])
        count += asymmetric_check_bit(oracle, int(keys[last]), delta0, delta1, policy=policy).decided_bit
        break
    return ThresholdResult(count, oracle.ledger.total_queries - start)


def counting_one_sided(oracle, delta: float) -> CountResult:
    """Return the exact number of ones with error probability <= ``delta``.

    Cheap when ones are scarce: cost scales with log((#ones + 1)/delta)
    per index rather than log(n/delta).

    Every index runs a +-1 walk on its answers, always advancing the
    highest walk (lowest index on ties). An index is counted, and leaves,
    when its walk reaches ``retire_at``; the run ends when the highest
    walk is at or below ``-stop_at(count)``. That schedule is a sequence
    of level sweeps: at the start of level L every remaining walk is at
    L, and in increasing index order each runs alone until it falls to
    L - 1 or retires, since it stays the highest walk until then. The
    walks that fell are at L - 1 in index order, which is the next sweep.
    ``stop_at`` only grows, so the stop rule can first hold when a sweep
    starts. Each sweep is one :func:`~noisyquery.walks.walks` call.
    """
    _check_delta(delta, "delta")
    n = oracle.n
    if n == 0:
        return CountResult(0, 0)
    log_ratio = oracle.noise.log_ratio
    retire_at = snapped_ceil(math.log(6.0 * n / delta) / log_ratio)
    start = oracle.ledger.total_queries
    count = 0
    stop_at = snapped_ceil(math.log(6.0 * (count + 1) / delta) / log_ratio)
    level = 0
    active = np.arange(n)
    while active.size and level > -stop_at:
        retired, _ = walks(oracle, active, 1, retire_at - level)
        count += int(retired.sum())
        stop_at = snapped_ceil(math.log(6.0 * (count + 1) / delta) / log_ratio)
        active = active[retired == 0]
        level -= 1
    return CountResult(count, oracle.ledger.total_queries - start)


def counting_two_sided(
    oracle,
    delta: float,
    rng,
    *,
    presample_size: int | None = None,
    presample_error: float | None = None,
    asymptotic_presample: bool = False,
) -> CountResult:
    """Exact count whose cost depends on min(#ones, #zeros), not #ones.

    A presample of indices drawn with replacement estimates the majority
    bit; the one-sided counter then runs either directly or through a
    complemented view of the oracle. The orientation only affects cost:
    either branch returns the exact count with probability >= 1 - delta.

    ``rng`` drives the presample positions only; all noisy answers come
    from the oracle's own stream. An index drawn r times is checked r
    times: the checks run in rounds, round i walking every index drawn
    more than i times. The default presample (ceil(sqrt(n))
    checks at error 1/n^2) keeps the overhead negligible at practical
    sizes; ``asymptotic_presample`` switches to the asymptotic-analysis sizing
    of n^0.99 checks at error n^-100.
    """
    _check_delta(delta, "delta")
    n = oracle.n
    if n == 0:
        return CountResult(0, 0)
    if asymptotic_presample:
        if presample_size is None:
            presample_size = math.ceil(n**0.99)
        if presample_error is None:
            # exp(-100 ln n), floored at 1e-300 to stay a normal float;
            # for n where the floor binds, the walk barrier differs by a
            # constant and the wrapper's correctness is unaffected
            presample_error = max(math.exp(-min(100.0 * math.log(max(n, 2)), 690.0)), 1e-300)
    else:
        if presample_size is None:
            presample_size = math.ceil(math.sqrt(n))
        if presample_error is None:
            presample_error = 1.0 / max(n, 2) ** 2
    if not isinstance(presample_size, int) or presample_size < 1:
        raise ValueError(f"presample size must be a positive integer, got {presample_size!r}")
    _check_delta(presample_error, "presample_error")

    gen = as_generator(rng)
    start = oracle.ledger.total_queries
    positions = gen.integers(0, n, size=presample_size)
    policy = WalkPolicy.for_error_bounds(oracle.noise, presample_error, presample_error)
    drawn, times = np.unique(positions, return_counts=True)
    ones_seen = 0
    for i in range(int(times.max())):
        decided, _ = walks(oracle, drawn[times > i], policy.down_threshold_a, policy.up_threshold_b)
        ones_seen += int(decided.sum())
    if 2 * ones_seen <= presample_size:
        value = counting_one_sided(oracle, delta).value
    else:
        value = n - counting_one_sided(ComplementBitOracle(oracle), delta).value
    return CountResult(value, oracle.ledger.total_queries - start)
