"""Biased-random-walk bit estimation.

The core primitive estimates a hidden bit by repeated noisy reads,
tracking d = (#ones - #zeros) and stopping at the first of two integer
barriers: d = -a declares 0, d = +b declares 1. Gambler's-ruin laws give
the error probabilities ((p/(1-p))^a resp. ^b) and the expected cost
(barrier / (1-2p)), which is how the stopping thresholds are chosen from
target error rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import NoiseModel, _BufferedChannel
from .streams import as_generator


def snapped_ceil(value: float, rel_tol: float = 1e-9) -> int:
    """Ceiling with a relative snap for values within rounding of an integer.

    Thresholds are computed in double precision; without the snap, a
    quotient that is mathematically an integer could ceil to either of
    two neighbours depending on rounding. Result is clamped to >= 1.
    """
    nearest = round(value)
    if abs(value - nearest) <= rel_tol * max(1.0, abs(value)):
        result = int(nearest)
    else:
        result = math.ceil(value)
    return max(result, 1)


@dataclass(frozen=True)
class WalkPolicy:
    """Integer stopping barriers for the bit-estimation walk."""

    down_threshold_a: int
    up_threshold_b: int

    def __post_init__(self) -> None:
        if self.down_threshold_a < 1 or self.up_threshold_b < 1:
            raise ValueError("walk thresholds must be positive integers")

    @classmethod
    def for_error_bounds(cls, noise: NoiseModel, delta0: float, delta1: float) -> "WalkPolicy":
        """Barriers meeting false-1 rate <= delta0 and false-0 rate <= delta1.

        a = ceil(log(1/delta1) / log((1-p)/p)) bounds the probability that
        a 1-bit walk ever falls to -a; b = ceil(log(1/delta0) / ...) bounds
        the probability that a 0-bit walk ever climbs to +b.
        """
        _check_delta(delta0, "delta0")
        _check_delta(delta1, "delta1")
        a = snapped_ceil(math.log(1.0 / delta1) / noise.log_ratio)
        b = snapped_ceil(math.log(1.0 / delta0) / noise.log_ratio)
        return cls(a, b)


@dataclass(frozen=True)
class WalkOutcome:
    """Declared bit and the number of noisy queries the walk consumed."""

    decided_bit: int
    steps_used: int


def _check_delta(delta: float, name: str) -> None:
    if not (isinstance(delta, (int, float)) and 0.0 < float(delta) < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {delta!r}")


def _check_walk_params(p: float, x: int) -> None:
    if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 < p < 0.5):
        raise ValueError(f"step-up probability must lie in (0, 1/2), got {p!r}")
    if not isinstance(x, (int, np.integer)) or x < 0:
        raise ValueError(f"barrier distance must be a non-negative integer, got {x!r}")


def hitting_probability(p: float, x: int) -> float:
    """Chance that a walk stepping +1 w.p. p, -1 w.p. 1-p ever reaches +x."""
    _check_walk_params(p, x)
    return (p / (1.0 - p)) ** x


def expected_hitting_time(p: float, x: int) -> float:
    """Mean steps for the same down-drift walk to first reach -x."""
    _check_walk_params(p, x)
    return x / (1.0 - 2.0 * p)


def _fast_walk(oracle: _BufferedChannel, key, a: int, b: int) -> WalkOutcome:
    # Operates directly on the oracle's uniform buffer. Consumes exactly
    # the same draws, in the same order, as per-step query() calls; the
    # ledger is committed once when the walk stops.
    hid = oracle._hidden_bit(key)
    p = oracle._p
    buf = oracle._buf
    pos = oracle._pos
    blen = len(buf)
    d = 0
    steps = 0
    if hid:
        # answer = 1 ^ (u < p): a one-bit steps down exactly when u < p
        while True:
            if pos == blen:
                oracle._pos = pos
                oracle._refill()
                buf = oracle._buf
                blen = len(buf)
                pos = 0
            u = buf[pos]
            pos += 1
            steps += 1
            if u < p:
                d -= 1
                if d == -a:
                    decided = 0
                    break
            else:
                d += 1
                if d == b:
                    decided = 1
                    break
    else:
        while True:
            if pos == blen:
                oracle._pos = pos
                oracle._refill()
                buf = oracle._buf
                blen = len(buf)
                pos = 0
            u = buf[pos]
            pos += 1
            steps += 1
            if u < p:
                d += 1
                if d == b:
                    decided = 1
                    break
            else:
                d -= 1
                if d == -a:
                    decided = 0
                    break
    oracle._pos = pos
    oracle.ledger.record(oracle._ledger_key(key), steps)
    return WalkOutcome(decided, steps)


def _buffered_walks(oracle: _BufferedChannel, keys, bits, start: int, a: int, b: int) -> int:
    """Walk ``keys[start:]`` in turn until one is declared 1.

    Each walk starts at 0 and stops at -a (declared 0) or +b (declared
    1). ``keys`` are ledger keys of the oracle, and ``bits[key]`` is the
    bit that key's answers are noisy reads of: its hidden bit, or its
    complement through a complement view. Like :func:`_fast_walk`, the
    walks consume the same draws, in the same order, as per-step
    query() calls, and each commits its steps to the ledger when it
    stops. Returns the position of the key declared 1, or ``len(keys)``.
    """
    record = oracle.ledger.record
    p = oracle._p
    buf = oracle._buf
    pos = oracle._pos
    blen = len(buf)
    # a draw u < p flips the answer, so the loop tracks e = d on a zero
    # bit and e = -d on a one bit, with the barriers swapped to match
    zero_bit = (b, -a)
    one_bit = (a, -b)
    try:
        for j in range(start, len(keys)):
            key = keys[j]
            bit = bits[key]
            hi, lo = one_bit if bit else zero_bit
            e = 0
            steps = 0
            while True:
                if pos == blen:
                    oracle._refill()
                    buf = oracle._buf
                    blen = len(buf)
                    pos = 0
                u = buf[pos]
                pos += 1
                steps += 1
                if u < p:
                    e += 1
                    if e == hi:
                        break
                else:
                    e -= 1
                    if e == lo:
                        break
            record(key, steps)
            if (e == hi) != bit:
                return j
        return len(keys)
    finally:
        oracle._pos = pos


def _generic_walk(oracle, key, a: int, b: int) -> WalkOutcome:
    d = 0
    steps = 0
    query = oracle.query
    while True:
        steps += 1
        if query(key):
            d += 1
            if d == b:
                return WalkOutcome(1, steps)
        else:
            d -= 1
            if d == -a:
                return WalkOutcome(0, steps)


def asymmetric_check_bit(
    oracle,
    key,
    delta0: float,
    delta1: float,
    *,
    policy: WalkPolicy | None = None,
) -> WalkOutcome:
    """Estimate one hidden bit with asymmetric error targets.

    If the bit is 0 the declared value is wrong with probability at most
    ``delta0`` and the expected cost is governed by the far barrier
    a/(1-2p); if the bit is 1 the error is at most ``delta1`` at expected
    cost governed by b/(1-2p). Works against any oracle exposing
    ``query(key)`` and ``noise``.
    """
    if policy is None:
        policy = WalkPolicy.for_error_bounds(oracle.noise, delta0, delta1)
    else:
        _check_delta(delta0, "delta0")
        _check_delta(delta1, "delta1")
    a = policy.down_threshold_a
    b = policy.up_threshold_b
    if isinstance(oracle, _BufferedChannel):
        return _fast_walk(oracle, key, a, b)
    return _generic_walk(oracle, key, a, b)


def check_bit(oracle, key, delta: float, *, policy: WalkPolicy | None = None) -> WalkOutcome:
    """Symmetric special case: error at most ``delta`` for either bit value."""
    return asymmetric_check_bit(oracle, key, delta, delta, policy=policy)


@dataclass(frozen=True)
class HitTally:
    """Outcome counts of truncated upward-hitting walks."""

    walks: int
    hits: int

    @property
    def fraction(self) -> float:
        return self.hits / self.walks


@dataclass(frozen=True)
class PassageTally:
    """Exact step sums over simulated first-passage walks."""

    walks: int
    steps_total: int
    steps_squared_total: int

    @property
    def mean(self) -> float:
        return self.steps_total / self.walks

    @property
    def stddev(self) -> float:
        if self.walks < 2:
            return float("nan")
        var = (self.steps_squared_total - self.steps_total**2 / self.walks) / (self.walks - 1)
        return math.sqrt(max(var, 0.0))


def simulate_hitting(p: float, x: int, walks: int, rng, *, precision: float = 1e-6) -> HitTally:
    """Monte Carlo estimate of the probability of ever reaching +x.

    Walks step +1 w.p. p and -1 w.p. 1-p. A walk is abandoned as a
    non-hit once it falls to x - ceil(log(1/precision)/log((1-p)/p)),
    from where the chance of still reaching +x is below ``precision``;
    the estimate is therefore biased low by at most ``precision``.
    """
    _check_walk_params(p, x)
    if walks < 1:
        raise ValueError("need at least one walk")
    if x == 0:
        return HitTally(walks=walks, hits=walks)
    gen = as_generator(rng)
    noise = NoiseModel(p)
    escape = x - snapped_ceil(math.log(1.0 / precision) / noise.log_ratio)
    if escape >= 0:
        # hitting probability below the truncation precision
        return HitTally(walks=walks, hits=0)
    pos = np.zeros(walks, dtype=np.int64)
    hits = 0
    while pos.size:
        u = gen.random(pos.size)
        pos += np.where(u < p, 1, -1)
        hit = pos == x
        done = hit | (pos == escape)
        hits += int(hit.sum())
        pos = pos[~done]
    return HitTally(walks=walks, hits=hits)


def simulate_first_passage(p: float, x: int, walks: int, rng) -> PassageTally:
    """Monte Carlo first-passage times of the down-drift walk to -x.

    The walk reaches -x almost surely, so no truncation is applied; step
    counts are accumulated as exact integers.
    """
    _check_walk_params(p, x)
    if walks < 1:
        raise ValueError("need at least one walk")
    if x == 0:
        return PassageTally(walks=walks, steps_total=0, steps_squared_total=0)
    gen = as_generator(rng)
    target = -int(x)
    pos = np.zeros(walks, dtype=np.int64)
    steps_total = 0
    steps_squared = 0
    step = 0
    while pos.size:
        step += 1
        u = gen.random(pos.size)
        pos += np.where(u < p, 1, -1)
        done = pos == target
        finished = int(done.sum())
        if finished:
            steps_total += step * finished
            steps_squared += step * step * finished
            pos = pos[~done]
    return PassageTally(walks=walks, steps_total=steps_total, steps_squared_total=steps_squared)
