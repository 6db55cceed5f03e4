"""Counting ones in a noisy bit vector.

Three procedures over a :class:`~noisyquery.oracles.BitOracle`, and no other oracle:

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

Each procedure also runs on a block of oracles of one size and one p
(``threshold_counts``, ``counts_one_sided``, ``counts_two_sided``); a
single oracle is the block of one. The oracles are stacked once into one
channel (:func:`~noisyquery.walks.stack`), which is the only check of
the block, and each procedure reads, flips, walks and charges only that
channel: the kernel walks its keys many per call, and a complement is
its bits flipped. One :func:`~noisyquery.walks.unstack` writes the rows
back and gives each oracle's queries. Answers are
counter-based, so this gives the same answers, counts and ledgers as
checking each oracle's keys one at a time in the order described.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import BitOracle
from .streams import _is_integer, as_generator
# asymmetric_check_bit and check_bit are not called here but stay: walk
# instrumentation, such as perfbench's tracer, wraps them by these names
from .walks import (  # noqa: F401
    WalkPolicy,
    _check_delta,
    asymmetric_check_bit,
    barrier,
    check_bit,
    stack,
    unstack,
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
    so the cost follows min(k, n - k + 1), not k.
    """
    return threshold_counts([oracle], k, delta)[0]


def threshold_counts(oracles, k: int, delta: float) -> list[ThresholdResult]:
    """:func:`threshold_count` on each of several oracles of one size and
    one p, their scans advancing together through one round loop.

    For 2k > n + 1 the stacked block's bits are flipped, which reads each
    row as its complement view would, and the scans look for n - k + 1
    zeros. Unstacking the block once gives each oracle's queries.
    """
    block = _stack_bits(oracles)
    n = oracles[0].n
    if not _is_integer(k) or not 1 <= k <= n:
        raise ValueError(f"threshold k must be an integer in [1, {n}], got {k!r}")
    _check_delta(delta, "delta")
    k = int(k)
    if 2 * k > n + 1:
        block._bits ^= 1
        zeros = _threshold_scans(block, len(oracles), n, n - k + 1, delta)
        values = [k if found < n - k + 1 else k - 1 for found in zeros]
    else:
        values = _threshold_scans(block, len(oracles), n, k, delta)
    return [ThresholdResult(v, int(q)) for v, q in zip(values, unstack(block, oracles))]


def _stack_bits(oracles):
    # stack, of BitOracles only: an EdgeOracle's n counts vertices, not slots
    for oracle in oracles:
        if not isinstance(oracle, BitOracle):
            raise TypeError(f"counting needs BitOracles, got {type(oracle).__name__}")
    return stack(oracles)


def threshold_barriers(noise, n: int, k: int, delta: float) -> tuple[int, int]:
    """Barriers (a, b) of a scan for k ones among n indices, with error <= delta.

    (a, b) = (barrier(2k), barrier(2n)). The union bound splits delta in
    two halves. A zero the scan reads climbs to +b with probability at
    most delta/2n, and the scan reads at most n zeros. Only the first k
    ones in scan order, or all of them when there are fewer, decide the
    answer; each falls to -a with probability at most delta/2k.
    """
    return barrier(noise, 2 * k, delta), barrier(noise, 2 * n, delta)


def _threshold_scans(block, count: int, n: int, k: int, delta: float) -> list[int]:
    """min(k, #ones) of each of the ``count`` rows of n bits of a block:
    scan its indices in order, checking each bit with the barriers of
    :func:`threshold_barriers`, and stop as soon as k ones are confirmed.

    The block is walked index-major (index 0 of every row, then index 1,
    ...), so every scan advances at the same pace. The scans follow the
    walks of :func:`~noisyquery.walks.walk_rounds` round by round over
    the indices ended in every row; the block is charged each row's
    indices through the one that ends its scan.
    """
    a, b = threshold_barriers(block.noise, n, k, delta)
    # key i * count + t of the walk is index i of oracle t, its slot t * n + i
    keys = (np.arange(count) * n + np.arange(n)[:, None]).ravel()
    decided = np.empty(keys.size, dtype=np.int8)
    steps = np.empty(keys.size, dtype=np.int64)
    found = np.zeros(count, dtype=np.int64)
    last = np.full(count, n - 1)
    scanning = np.ones(count, dtype=bool)
    scanned = 0
    for ended in walk_rounds(block, keys, a, b, decided, steps):
        rows = ended // count
        if rows == scanned:
            continue
        ones = found + np.cumsum(decided[scanned * count : rows * count].reshape(-1, count), axis=0)
        stops = scanning & (ones[-1] >= k)
        # the index of each stopping scan's k-th one
        last[stops] = scanned + np.argmax(ones[:, stops] >= k, axis=0)
        scanning &= ~stops
        found, scanned = ones[-1], rows
        if not scanning.any():
            break
    # row t of the block is charged its scan's indices through its last,
    # in one pass over every slot; walks past them are not charged
    charged = np.arange(n) <= last[:, None]
    block._charge(np.s_[:], np.where(charged, steps.reshape(n, count).T, 0).ravel())
    # a stopped scan has found at least k ones; one that never stopped
    # scanned all n indices, and found is its count
    return np.minimum(found, k).tolist()


# K_r of counting_levels: the zeros' retire walks spend delta/K_r of the
# error, the stop levels the rest
_RETIRE_SHARE = 3


def counting_levels(noise, n: int, count: int, delta: float) -> tuple[int, int]:
    """Stop level and retire barrier of :func:`counting_one_sided` at ``count``.

    (stop, retire) = (barrier(K_s (count+1)), barrier(K_r n)) with K_r = 3
    and K_s = K_r/(K_r - 1) + delta = 3/2 + delta. With r = (1-p)/p,
    rho_c = r^-stop(c) <= delta/K_s(c+1) and r^-retire <= delta/K_r n.
    Given m ones, the run errs only if a zero's walk climbs to retire, or
    the run stops at some count c < m; then each of m - c uncounted ones
    has fallen to -stop(c), and distinct indices walk independently. The
    per-level error sum is

        n r^-retire + sum_{c=0}^{m-1} C(m, m-c) rho_c^(m-c)
            <= delta/K_r + sum_{j>=1} (delta/K_s)^j = delta/K_r + delta/(K_s - delta),

    using C(m, j) <= (m-j+1)^j, and delta/(K_s - delta) = delta (1 - 1/K_r),
    so the two parts spend exactly delta.
    """
    stop_share = _RETIRE_SHARE / (_RETIRE_SHARE - 1) + delta
    return barrier(noise, stop_share * (count + 1), delta), barrier(noise, _RETIRE_SHARE * n, delta)


def counting_one_sided(oracle, delta: float) -> CountResult:
    """Return the exact number of ones with error probability <= ``delta``.

    Cheap when ones are scarce: cost scales with log((#ones + 1)/delta)
    per index rather than log(n/delta).

    Every index runs a +-1 walk on its answers, always advancing the highest
    walk (lowest index on ties). An index is counted, and leaves, when its
    walk reaches ``retire_at``; the run ends when the highest walk is at or
    below ``-stop_at(count)``. Both come from :func:`counting_levels`, whose
    union bound over the two ways to err spends exactly ``delta``. Each
    kernel call runs one stop-level extension: every remaining walk goes
    from ``-reached`` (0 at first) to the first of ``retire_at`` and
    ``-floor``, ``floor = stop_at(count)``. The heap's level sweeps over
    that range give each walk the same answers and barriers, since a walk
    stays the highest until it falls a level or retires; and ``stop_at``
    only grows, so at each level -s in the range ``stop_at >= floor > s``
    and the run cannot stop inside it.
    """
    return counts_one_sided([oracle], delta)[0]


def counts_one_sided(oracles, delta: float) -> list[CountResult]:
    """:func:`counting_one_sided` on each of several oracles of one size
    and one p: stacked once into a block (:func:`~noisyquery.walks.stack`),
    counted row by row in lockstep by :func:`_count_rows`, and unstacked
    once, which gives each oracle's queries."""
    block = _stack_bits(oracles)
    _check_delta(delta, "delta")
    n = oracles[0].n
    if n == 0:
        return [CountResult(0, 0) for _ in oracles]
    counts = _count_rows(block, len(oracles), n, delta)
    return [CountResult(int(c), int(q)) for c, q in zip(counts, unstack(block, oracles))]


def _count_rows(block, rows: int, n: int, delta: float) -> np.ndarray:
    """The count :func:`counting_one_sided` finds on each row of a block
    of ``rows`` oracles of n bits.

    Each stop-level extension of every running row is one
    :func:`~noisyquery.walks.walks` call over the block's remaining
    keys, each key with its own row's barriers. A row whose stop level
    stops moving never walks again, so its keys are dropped.
    """
    noise = block.noise
    counts = np.zeros(rows, dtype=np.int64)
    reached = np.zeros(rows, dtype=np.int64)
    floor, retire_at = counting_levels(noise, n, 0, delta)
    floors = np.full(rows, floor, dtype=np.int64)
    keys = np.arange(rows * n)
    while keys.size:
        row = keys // n
        retired, _ = walks(block, keys, (floors - reached)[row], (retire_at + reached)[row])
        counts += np.bincount(row[retired == 1], minlength=rows)
        reached, floors = floors, np.array([counting_levels(noise, n, c, delta)[0] for c in counts.tolist()])
        keys = keys[(retired == 0) & (floors > reached)[row]]
    return counts


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
    return counts_two_sided([oracle], delta, [rng], asymptotic_presample=asymptotic_presample)[0]


def counts_two_sided(oracles, delta: float, rngs, *, asymptotic_presample: bool = False) -> list[CountResult]:
    """:func:`counting_two_sided` on each of several oracles of one size
    and one p, ``rngs[i]`` driving the presample of ``oracles[i]``.

    The oracles are stacked once into a block. Presample round i is one
    :func:`~noisyquery.walks.walks` call over every oracle's indices
    drawn more than i times (none for some). The rows whose presample
    saw mostly ones then have their bits flipped in the block, which
    reads each as its complement view would, and :func:`_count_rows`
    counts every row's minority bit. Unstacking the block once gives
    each oracle's queries over both phases.
    """
    block = _stack_bits(oracles)
    _check_delta(delta, "delta")
    n = oracles[0].n
    if len(rngs) != len(oracles):
        raise ValueError("counts_two_sided needs one rng per oracle")
    if n == 0:
        return [CountResult(0, 0) for _ in oracles]
    if asymptotic_presample:
        presample_size = math.ceil(n**0.99)
        # exp(-100 ln n), floored at 1e-300 to stay a normal float;
        # for n where the floor binds, the walk barrier differs by a
        # constant and the wrapper's correctness is unaffected
        presample_error = max(math.exp(-min(100.0 * math.log(max(n, 2)), 690.0)), 1e-300)
    else:
        presample_size = math.ceil(math.sqrt(n))
        presample_error = 1.0 / max(n, 2) ** 2

    policy = WalkPolicy.for_error_bounds(block.noise, presample_error, presample_error)
    draws = [np.unique(as_generator(rng).integers(0, n, size=presample_size), return_counts=True) for rng in rngs]
    ones_seen = np.zeros(len(oracles), dtype=np.int64)
    for i in range(max(int(times.max()) for _, times in draws)):
        keys = np.concatenate([t * n + drawn[times > i] for t, (drawn, times) in enumerate(draws)])
        decided, _ = walks(block, keys, policy.down_threshold_a, policy.up_threshold_b)
        ones_seen += np.bincount(keys[decided == 1] // n, minlength=len(oracles))
    flipped = 2 * ones_seen > presample_size
    block._bits ^= np.repeat(flipped, n)
    counts = _count_rows(block, len(oracles), n, delta)
    values = np.where(flipped, n - counts, counts)
    return [CountResult(int(v), int(q)) for v, q in zip(values, unstack(block, oracles))]
