"""Counting ones in a noisy bit vector.

Three procedures over a :class:`~noisyquery.oracles.BitOracle`:

* ``threshold_count``: decide whether at least k ones are present, via
  one asymmetric bit check per index with early exit at k hits. When
  2k > n + 1 it scans the complement instead, for n - k + 1 zeros, so
  the cost grows with min(k, n - k + 1) and not with k.
* ``counting_one_sided``: exact count. Every index runs the same
  up/down walk, always advancing the currently most-promising index;
  an index is counted once its walk clears a retire barrier, and the
  run ends when even the best remaining walk is hopeless for the
  current count. That schedule runs as stop-level extensions: each
  remaining index walks down to the current count's stop level or retires.
* ``counting_two_sided``: orientation wrapper that first cheaply
  estimates whether ones or zeros are the minority and counts the
  minority side, which is what makes the cost symmetric in the answer.

Walks run through :func:`noisyquery.walks.walks`, many keys per call;
only the index that ends a threshold scan is checked alone, by a
single-bit check. Answers are counter-based, so this gives the same
answers, counts and ledgers as checking the keys one at a time in the
order described.
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
    barrier,
    check_bit,
    commit_walks,
    walk_rounds,
    walks,
)


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold claim plus the number of queries spent.

    ``value == k`` means "at least k ones". For 2k <= n + 1 a smaller
    value is a claimed exact count; for 2k > n + 1 the only smaller value
    is k - 1, meaning "fewer than k ones", not an exact count.
    """

    value: int
    queries: int


@dataclass(frozen=True)
class CountResult:
    """Claimed exact count of ones plus the number of queries spent."""

    value: int
    queries: int


def threshold_count(oracle, k: int, delta: float) -> ThresholdResult:
    """Decide whether at least k ones are present, with error probability
    at most ``delta``.

    For 2k <= n + 1, scan for k ones and return min(k, #ones). For
    2k > n + 1, scan the complement view for k' = n - k + 1 zeros with the
    same delta. Confirming fewer than k' zeros means every index was
    checked and at least k ones are present: return k. Otherwise return
    k - 1, "fewer than k", not a count. Either way a bit the scan does not
    count walks down to about log(2 min(k, n - k + 1)/delta)/log((1-p)/p),
    so the cost follows min(k, n - k + 1), not k. The view shares the
    oracle's counters and ledger, so ``queries`` is read off its ledger.
    """
    n = oracle.n
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
        raise ValueError(f"threshold k must be an integer in [1, {n}], got {k!r}")
    _check_delta(delta, "delta")
    start = oracle.ledger.total_queries
    if 2 * k > n + 1:
        zeros = _threshold_scan(ComplementBitOracle(oracle), n - k + 1, delta)
        value = k if zeros < n - k + 1 else k - 1
    else:
        value = _threshold_scan(oracle, k, delta)
    return ThresholdResult(value, oracle.ledger.total_queries - start)


def threshold_barriers(noise, n: int, k: int, delta: float) -> tuple[int, int]:
    """Barriers (a, b) of a scan for k ones among n indices, with error <= delta.

    (a, b) = (barrier(2k), barrier(2n)). The union bound splits delta in
    two halves. A zero the scan reads climbs to +b with probability at
    most delta/2n, and the scan reads at most n zeros. Only the first k
    ones in scan order, or all of them when there are fewer, decide the
    answer; each falls to -a with probability at most delta/2k.
    """
    return barrier(noise, 2 * k, delta), barrier(noise, 2 * n, delta)


def _threshold_scan(oracle, k: int, delta: float) -> int:
    """min(k, #ones): scan the indices in order, checking each bit with
    the barriers of :func:`threshold_barriers`, and stop as soon as k
    ones are confirmed. Follows the walks of
    :func:`~noisyquery.walks.walk_rounds` round by round over the ended
    prefix of the indices, and charges only the indices up to the one
    that ends the scan."""
    n = oracle.n
    a, b = threshold_barriers(oracle.noise, n, k, delta)
    keys = np.arange(n)
    decided = np.empty(n, dtype=np.int8)
    steps = np.empty(n, dtype=np.int64)
    count = scanned = 0
    last = n - 1
    for ended in walk_rounds(oracle, keys, a, b, decided, steps):
        ones = np.flatnonzero(decided[scanned:ended])
        if count + ones.size >= k:
            last = scanned + int(ones[k - count - 1])
            break
        count += ones.size
        scanned = ended
    commit_walks(oracle, keys[:last], steps[:last])
    # Stopgap: the index that ends the scan is walked again, one key
    # through asymmetric_check_bit with the scan's barriers as its policy,
    # so with the same answers and verdict. perfbench's tracer wraps that
    # name and raises KeyError on a scan with no wrapped walk; once it wraps
    # walks.walks, this is commit_walks(oracle, keys[: last + 1], steps[: last + 1]).
    count = int(np.count_nonzero(decided[:last]))
    return count + asymmetric_check_bit(oracle, last, delta, delta, policy=WalkPolicy(a, b)).decided_bit


def counting_levels(noise, n: int, count: int, delta: float) -> tuple[int, int]:
    """Stop level and retire barrier of :func:`counting_one_sided` at ``count``.

    (stop, retire) = (barrier(6(count+1)), barrier(6n)). With r = (1-p)/p,
    rho_c = r^-stop(c) <= delta/6(c+1) and r^-retire <= delta/6n. Given m
    ones, the run errs only if a zero's walk climbs to retire, or the run
    stops at some count c < m; then each of m - c uncounted ones has
    fallen to -stop(c), and distinct indices walk independently. The
    per-level error sum is

        n r^-retire + sum_{c=0}^{m-1} C(m, m-c) rho_c^(m-c)
            <= delta/6 + sum_{j>=1} (delta/6)^j < delta/6 + delta/5,

    using C(m, j) <= (m-j+1)^j. The constant 6 leaves the rest of delta unspent.
    """
    return barrier(noise, 6 * (count + 1), delta), barrier(noise, 6 * n, delta)


def counting_one_sided(oracle, delta: float) -> CountResult:
    """Return the exact number of ones with error probability <= ``delta``.

    Cheap when ones are scarce: cost scales with log((#ones + 1)/delta)
    per index rather than log(n/delta).

    Every index runs a +-1 walk on its answers, always advancing the highest
    walk (lowest index on ties). An index is counted, and leaves, when its
    walk reaches ``retire_at``; the run ends when the highest walk is at or
    below ``-stop_at(count)``. Both come from :func:`counting_levels`. Each
    :func:`~noisyquery.walks.walks` call runs one stop-level extension:
    every remaining walk goes from ``-reached`` (0 at first) to the first of
    ``retire_at`` and ``-floor``, ``floor = stop_at(count)``. The heap's
    level sweeps over that range give each walk the same answers and
    barriers, since a walk stays the highest until it falls a level or
    retires; and ``stop_at`` only grows, so at each level -s in the range
    ``stop_at >= floor > s`` and the run cannot stop inside it.
    """
    _check_delta(delta, "delta")
    n = oracle.n
    if n == 0:
        return CountResult(0, 0)
    start = oracle.ledger.total_queries
    count = reached = 0
    floor, retire_at = counting_levels(oracle.noise, n, count, delta)
    active = np.arange(n)
    while active.size and floor > reached:
        retired, _ = walks(oracle, active, floor - reached, retire_at + reached)
        count += int(retired.sum())
        active = active[retired == 0]
        reached, floor = floor, counting_levels(oracle.noise, n, count, delta)[0]
    return CountResult(count, oracle.ledger.total_queries - start)


def counting_two_sided(
    oracle,
    delta: float,
    rng,
    *,
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
        presample_size = math.ceil(n**0.99)
        # exp(-100 ln n), floored at 1e-300 to stay a normal float;
        # for n where the floor binds, the walk barrier differs by a
        # constant and the wrapper's correctness is unaffected
        presample_error = max(math.exp(-min(100.0 * math.log(max(n, 2)), 690.0)), 1e-300)
    else:
        presample_size = math.ceil(math.sqrt(n))
        presample_error = 1.0 / max(n, 2) ** 2

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
