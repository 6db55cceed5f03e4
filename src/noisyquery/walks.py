"""Biased-random-walk bit estimation.

The core primitive estimates a hidden bit by repeated noisy reads,
tracking d = (#ones - #zeros) and stopping at the first of two integer
barriers: d = -a declares 0, d = +b declares 1. Gambler's-ruin laws give
the error probabilities ((p/(1-p))^a resp. ^b) and the expected cost
(barrier / (1-2p)), which is how the stopping thresholds are chosen from
target error rates.

Every walk runs in one kernel, :func:`walks`. Oracle answers are
counter-based (see :mod:`noisyquery.oracles`), so the kernel computes
the answers of many keys' walks at once with numpy, advancing all of
them in lockstep, and gets exactly what per-key ``query`` calls would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import _MASK, GAMMA, NoiseModel, _CounterChannel, mix, mix_array, unwrap_complement
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


# a block computes fewer than twice this many answers at once, which
# bounds its working set at a few hundred kilobytes
_BLOCK_ELEMENTS = 1 << 14
# a block's levels, and twice its flip counts, fit int8 (see _walk_block)
_MAX_WIDTH = 63
# up to this many keys walk one at a time in Python ints (see _walk_few):
# on a 2-core Xeon with numpy 2.4, a one-to-four-key walk costs 10-50 us
# there, against a floor of 70-85 us of numpy calls in _walk_block
_FEW_KEYS = 4
# a round computes at least this many answers, widening its block if few walks are left
_ROUND_ELEMENTS = 1 << 11
# counter offsets GAMMA, 2 GAMMA, ... and step numbers 1, 2, ... of a block's rows
_OFFSETS = (np.arange(1, _MAX_WIDTH + 1, dtype=np.uint64) * np.uint64(GAMMA))[:, None]
_STEP_NUMBERS = np.arange(1, _MAX_WIDTH + 1, dtype=np.int8)[:, None]


def _channel(oracle) -> tuple[_CounterChannel, int]:
    channel, flip = unwrap_complement(oracle)
    if not isinstance(channel, _CounterChannel):
        raise TypeError(f"walks need a BitOracle, an EdgeOracle or a complement view of one, got {type(oracle).__name__}")
    return channel, flip


def block_width(p: float, a: int, b: int) -> int:
    """Steps per lockstep block: about the expected exit time of a walk.

    A walk drifts toward one barrier at speed 1-2p and most walks exit
    at the nearer one, so min(a, b)/(1-2p) steps finish most of them in
    one block without computing many answers past their exit.
    """
    return min(_MAX_WIDTH, max(4, math.ceil(min(a, b) / (1.0 - 2.0 * p))))


def block_keys(p: float, a: int, b: int) -> int:
    """Keys per block: :func:`walks` splits a call of ``size`` keys into
    ``max(1, size // block_keys)`` near-equal blocks."""
    return max(1, _BLOCK_ELEMENTS // block_width(p, a, b))


def walks(oracle, keys, a: int, b: int, *, commit: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Walk every key from 0 to the first of -a (declared 0) and +b (declared 1).

    ``keys`` are distinct slots of the oracle: bit indices of a
    :class:`~noisyquery.oracles.BitOracle`, pair slots of an
    :class:`~noisyquery.oracles.EdgeOracle`. Each walk steps +1 on an
    answer 1 and -1 on an answer 0, and its answers continue the key's
    answer count, so the result equals walking the keys one by one
    through ``query`` calls, in any order. Returns the declared bits
    (about the oracle as passed, so through a complement view the
    complement) and the steps each walk took. With ``commit`` the steps
    are added to the keys' answer counts and to the ledger; without it
    nothing changes, and :func:`commit_walks` can charge any of them
    later.

    All walking keys advance together in blocks of :func:`block_width`
    steps; a call of many keys is split into near-equal groups of fewer
    than twice :func:`block_keys` keys each.
    """
    channel, flip = _channel(oracle)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and not 0 <= keys.min() <= keys.max() < channel._bits.size:
        raise IndexError(f"walk keys must be slots in [0, {channel._bits.size})")
    decided = np.empty(keys.size, dtype=np.int8)
    steps = np.empty(keys.size, dtype=np.int64)
    if keys.size <= _FEW_KEYS:
        _walk_few(channel, flip, keys, a, b, decided, steps)
    else:
        width = block_width(channel.noise.p, a, b)
        # near-equal blocks of at least block_keys keys each, so a short
        # remainder joins the blocks instead of paying rounds of its own
        blocks = max(1, keys.size // block_keys(channel.noise.p, a, b))
        for i in range(blocks):
            part = slice(keys.size * i // blocks, keys.size * (i + 1) // blocks)
            _walk_block(channel, flip, keys[part], a, b, width, decided[part], steps[part])
    if commit:
        channel._charge(keys, steps)
    return decided, steps


def commit_walks(oracle, keys, steps) -> None:
    """Charge walks that :func:`walks` ran with ``commit=False``."""
    channel, _ = _channel(oracle)
    channel._charge(np.asarray(keys, dtype=np.int64), np.asarray(steps, dtype=np.int64))


def _walk_few(channel, flip, keys, a, b, decided, steps) -> None:
    # The same walks one key at a time in Python ints. Single-key walks
    # take this path: asymmetric_check_bit, which acceptance criterion 2
    # calls on 600,000 one-bit oracles, and the walk ending each
    # threshold scan.
    below = channel._flip_below
    for pos, slot in enumerate(keys.tolist()):
        counter = channel._counters.item(slot)
        bit = channel._bits.item(slot) ^ flip
        d = taken = 0
        while -a < d < b:
            counter = (counter + GAMMA) & _MASK
            taken += 1
            d += 1 if (mix(counter) < below) != bit else -1
        decided[pos] = d == b
        steps[pos] = taken


def _walk_block(channel, flip, keys, a, b, width, decided, steps) -> None:
    # Each walk is tracked by e = 2 * flips - steps, which is its level d
    # on a 0-bit and -d on a 1-bit; so its barriers in e are +b and -a on
    # a 0-bit and +a and -b on a 1-bit, and it declares 1 when it leaves
    # through the upper barrier on a 0-bit or the lower one on a 1-bit.
    counter = channel._counters[keys]
    bits = channel._bits[keys] != flip
    below = np.uint64(channel._flip_below)
    upper = np.where(bits, a, b)
    lower = np.where(bits, -b, -a)
    walking = np.arange(keys.size)
    e = np.zeros(keys.size, dtype=np.int64)
    taken = 0
    size = max(keys.size * width, _ROUND_ELEMENTS)
    z_buf = np.empty(size, dtype=np.uint64)
    tmp_buf = np.empty(size, dtype=np.uint64)
    while walking.size:
        m = walking.size
        # the walks left are the slow ones; when few are left, a wider
        # block costs less than another round of numpy calls
        w = min(_MAX_WIDTH, max(width, _ROUND_ELEMENTS // m))
        z = z_buf[: w * m].reshape(w, m)
        np.add(counter, _OFFSETS[:w], out=z)
        mix_array(z, tmp_buf[: w * m].reshape(w, m))
        # e after each step of the block, relative to where the block
        # started; 2 * flips <= 2w and |e| <= w, so int8 holds both
        path = np.cumsum((z < below).view(np.int8), axis=0, dtype=np.int8)
        path *= 2
        path -= _STEP_NUMBERS[:w]
        # barriers relative to the block's start; those beyond reach clip to the int8 range
        high = np.minimum(upper - e, 127).astype(np.int8)
        low = np.maximum(lower - e, -128).astype(np.int8)
        top = path >= high
        out = top | (path <= low)
        first = out.argmax(axis=0)
        columns = np.arange(m)
        ended = out[first, columns]
        done = walking[ended]
        exit_step = first[ended]
        steps[done] = taken + 1 + exit_step
        decided[done] = top[exit_step, columns[ended]] != bits[ended]
        going = ~ended
        walking = walking[going]
        counter = counter[going] + _OFFSETS[w - 1, 0]
        e = e[going] + path[-1, going]
        upper = upper[going]
        lower = lower[going]
        bits = bits[going]
        taken += w


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
    cost governed by b/(1-2p). ``key`` is a bit index, or a vertex pair
    for an edge oracle; the walk is :func:`walks` on that one key.
    """
    if policy is None:
        policy = WalkPolicy.for_error_bounds(oracle.noise, delta0, delta1)
    else:
        _check_delta(delta0, "delta0")
        _check_delta(delta1, "delta1")
    channel, _ = _channel(oracle)
    decided, steps = walks(oracle, [channel._slot(key)], policy.down_threshold_a, policy.up_threshold_b)
    return WalkOutcome(int(decided[0]), int(steps[0]))


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
