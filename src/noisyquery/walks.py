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
Its one round loop, :func:`walk_rounds`, keeps an active set of walks
that it tops up with the next keys as walks end, so the few numpy calls
of a round are spread over about 2^14 answers, whatever the call's size.
A caller can follow it round by round, as the threshold scan does to
stop at the k-th confirmed one. :func:`walk_oracles` walks every slot of
several oracles through one such loop, so their walks share rounds.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .oracles import _MASK, GAMMA, BitOracle, NoiseModel, _CounterChannel, mix, mix_array


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


def barrier(noise: NoiseModel, count: int, delta: float) -> int:
    """Smallest barrier x with count * r^-x <= delta, r = (1-p)/p (up to the snap).

    A walk drifting away from a barrier x steps off ever reaches it with
    probability r^-x, so ``count`` such walks all stay clear of it with
    probability >= 1 - delta. Computed as (log count - log delta)/log r,
    which is finite for every delta in (0, 1), subnormals included.
    """
    return snapped_ceil((math.log(count) - math.log(delta)) / noise.log_ratio)


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

        a = barrier(noise, 1, delta1) bounds the probability that a 1-bit
        walk ever falls to -a; b = barrier(noise, 1, delta0) bounds the
        probability that a 0-bit walk ever climbs to +b.
        """
        _check_delta(delta0, "delta0")
        _check_delta(delta1, "delta1")
        return cls(barrier(noise, 1, delta1), barrier(noise, 1, delta0))


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


# a round computes at most this many answers, which bounds its working
# set at a few hundred kilobytes. A round costs about 35 numpy calls plus
# a few ns per answer, and at this size the two parts are about even; so
# once no key waits to start, the slow walks left widen their rounds to
# keep this many answers, up to _MAX_WIDTH steps, and pay fewer rounds.
_BLOCK_ELEMENTS = 1 << 14
# a round's levels, and twice its flip counts, fit int8 (see walk_rounds)
_MAX_WIDTH = 63
# walk_rounds builds its walks' columns for this many full sets at a
# time, a few megabytes at most, not for every key of a large call at once
_TABLE_SETS = 16
# up to this many keys walk one at a time in Python ints (see _walk_few):
# on a 2-core Xeon with numpy 2.4, a one-to-four-key walk costs 10-50 us
# there, against a floor of 70-85 us of numpy calls in walk_rounds
_FEW_KEYS = 4
# counter offsets GAMMA, 2 GAMMA, ... and step numbers 1, 2, ... of a round's rows
_OFFSETS = (np.arange(1, _MAX_WIDTH + 1, dtype=np.uint64) * np.uint64(GAMMA))[:, None]
_STEP_NUMBERS = np.arange(1, _MAX_WIDTH + 1, dtype=np.int8)[:, None]
# an upper barrier no first-passage walk reaches
_UNREACHABLE = 1 << 62
# walk_rounds' scratch arrays, one set per thread (see _scratch)
_SCRATCH = threading.local()


def _channel(oracle) -> _CounterChannel:
    if not isinstance(oracle, _CounterChannel):
        raise TypeError(f"walks need a BitOracle or an EdgeOracle, got {type(oracle).__name__}")
    return oracle


def block_width(p: float, a: int, b: int) -> int:
    """Steps per lockstep round: about the expected exit time of a walk.

    A walk drifts toward one barrier at speed 1-2p and most walks exit
    at the nearer one, so min(a, b)/(1-2p) steps finish most of them in
    one round without computing many answers past their exit.
    """
    return min(_MAX_WIDTH, max(4, math.ceil(min(a, b) / (1.0 - 2.0 * p))))


def walks(oracle, keys, a: int, b: int, *, commit: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Walk every key from 0 to the first of -a (declared 0) and +b (declared 1).

    ``keys`` are distinct slots of the oracle: bit indices of a
    :class:`~noisyquery.oracles.BitOracle`, pair slots of an
    :class:`~noisyquery.oracles.EdgeOracle`. Each walk steps +1 on an
    answer 1 and -1 on an answer 0, and its answers continue the key's
    answer count, so the result equals walking the keys one by one
    through ``query`` calls, in any order. Returns the declared bits
    and the steps each walk took. With ``commit`` the steps are added to
    the keys' answer counts and to the ledger; without it nothing
    changes, and :func:`commit_walks` can charge any of them later.

    The walks run in :func:`walk_rounds`, one round loop over an active
    set of walks that it tops up with the next keys after every round,
    so a call of any size pays the last rounds of its slowest walks only
    once. Calls of up to four keys walk one key at a time in Python ints.
    """
    channel = _channel(oracle)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and not 0 <= keys.min() <= keys.max() < channel._bits.size:
        raise IndexError(f"walk keys must be slots in [0, {channel._bits.size})")
    decided = np.empty(keys.size, dtype=np.int8)
    steps = np.empty(keys.size, dtype=np.int64)
    if keys.size <= _FEW_KEYS:
        _walk_few(channel, keys, a, b, decided, steps)
    else:
        for _ in walk_rounds(channel, keys, a, b, decided, steps):
            pass
    if commit:
        channel._charge(keys, steps)
    return decided, steps


def walk_oracles(oracles, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`walks` over every slot of several oracles, in one round loop.

    The oracles must share p and their slot count. Their counters and
    bits are stacked into one channel and walked with ``commit=False``,
    so their walks share rounds; then each oracle's counters and ledger
    are charged with its own steps. Answers are counter-based, so every
    oracle gets what walking it alone would give. Returns the declared
    bits and the steps, one row per oracle.
    """
    channels = [_channel(oracle) for oracle in oracles]
    if not channels:
        raise ValueError("walk_oracles needs at least one oracle")
    first = channels[0]
    if any(c.noise.p != first.noise.p for c in channels):
        raise ValueError("oracles walked together must share their flip probability p")
    slots = first._bits.size
    if any(c._bits.size != slots for c in channels):
        raise ValueError("oracles walked together must have the same number of slots")
    if len({id(c._counters) for c in channels}) < len(channels):
        # an oracle listed twice, or a complement view beside its inner oracle
        raise ValueError("oracles walked together must not share answer counters")
    stacked = _CounterChannel()
    stacked.noise = first.noise
    stacked._flip_below = first._flip_below
    stacked._bits = np.concatenate([c._bits for c in channels])
    stacked._counters = np.concatenate([c._counters for c in channels])
    decided, steps = walks(stacked, np.arange(stacked._bits.size), a, b, commit=False)
    decided = decided.reshape(len(channels), slots)
    steps = steps.reshape(len(channels), slots)
    every_slot = np.arange(slots)
    for channel, own in zip(channels, steps):
        channel._charge(every_slot, own)
    return decided, steps


def commit_walks(oracle, keys, steps) -> None:
    """Charge walks that :func:`walks` ran with ``commit=False``."""
    _channel(oracle)._charge(np.asarray(keys, dtype=np.int64), np.asarray(steps, dtype=np.int64))


def _walk_few(channel, keys, a, b, decided, steps) -> None:
    # The same walks one key at a time in Python ints. Calls of a few
    # keys take this path: asymmetric_check_bit, which acceptance
    # criterion 2 calls on 600,000 one-bit oracles; the walk ending each
    # threshold scan; and counting2's repeat presample rounds, which walk
    # the indices drawn twice or more (usually 0-2 keys).
    below = channel._flip_below
    for pos, slot in enumerate(keys.tolist()):
        counter = channel._counters.item(slot)
        bit = channel._bits.item(slot)
        d = taken = 0
        while -a < d < b:
            counter = (counter + GAMMA) & _MASK
            taken += 1
            d += 1 if (mix(counter) < below) != bit else -1
        decided[pos] = d == b
        steps[pos] = taken


def walk_rounds(oracle, keys, a: int, b: int, decided: np.ndarray, steps: np.ndarray):
    """The walks of :func:`walks` with ``commit=False``, one round at a time.

    ``keys`` is a valid int64 array of distinct slots. Keys start walking
    in their order, up to ``_BLOCK_ELEMENTS // block_width`` at once, and
    a round advances every walking key by the same number of steps. When
    a walk ends, its declared bit and steps are written to ``decided``
    and ``steps`` at its key's position. After each round this yields
    the number of leading keys whose walks have all ended, so a caller
    can stop at any round; nothing is charged.
    """
    channel = _channel(oracle)
    width = block_width(channel.noise.p, a, b)
    capacity = max(1, _BLOCK_ELEMENTS // width)
    below = np.uint64(channel._flip_below)
    # Each walk is tracked by e = 2 * flips - steps, which is its level d
    # on a 0-bit and -d on a 1-bit; so its barriers in e are +b and -a on
    # a 0-bit and +a and -b on a 1-bit, and it declares 1 when it leaves
    # through the upper barrier on a 0-bit or the lower one on a 1-bit.
    # One int64 column per walk, in rows: its counter's bits, upper - e,
    # lower - e, 2 * position + bit, and 1 - (the loop's steps when it
    # started). Columns are built for _TABLE_SETS sets of keys at a time.
    table = _columns(channel, keys, a, b, 0, capacity * _TABLE_SETS)
    base = 0
    started = min(capacity, keys.size)
    table[4, :started] = 1
    state = table[:, :started]
    taken = 0
    z_buf, tmp_buf, byte_buf = _scratch()
    while state.shape[1]:
        m = state.shape[1]
        # block_width steps for a full set; fewer walks, the slow ones at
        # the end of a call, take wider rounds of as many answers
        w = min(_MAX_WIDTH, _BLOCK_ELEMENTS // m)
        counter = state[0].view(np.uint64)
        z = z_buf[: w * m].reshape(w, m)
        np.add(counter, _OFFSETS[:w], out=z)
        mix_array(z, tmp_buf[: w * m].reshape(w, m))
        # Sums down the rows run on the bytes' 64-bit words, eight walks
        # to a word: every byte holds 0 or 1 and a sum over w <= 63 rows
        # stays below 256, so no byte carries into the next.
        padded = byte_buf[: w * (m + -m % 8)].reshape(w, -1)
        padded[:, m:] = 0
        words = padded.view(np.uint64)
        flags = padded[:, :m].view(bool)
        np.less(z, below, out=flags)
        np.add.accumulate(words, axis=0, out=words)
        # e after each step of the round, relative to where the round
        # started; 2 * flips <= 2w and |e| <= w, so int8 holds both
        path = padded[:, :m].view(np.int8) * np.int8(2)
        path -= _STEP_NUMBERS[:w]
        # barriers relative to the round's start, clipped to the int8 range
        high, low = np.minimum(np.maximum(state[1:3], -128), 127).astype(np.int8)
        np.greater_equal(path, high, out=flags)
        flags |= path <= low
        # flags to "ended at or before this step", then counted per walk
        np.bitwise_or.accumulate(words, axis=0, out=words)
        after = np.add.reduce(words, axis=0).view(np.uint8)[:m]
        ends = after.nonzero()[0]
        counter += _OFFSETS[w - 1, 0]
        state[1:3] -= path[-1]
        if ends.size:
            exit_step = np.subtract(w, after[ends], dtype=np.int64)
            # a walk leaves through the upper barrier exactly when its exit level is positive
            top = path.take(exit_step * m + ends) > 0
            codes, entry = state[3:].take(ends, axis=1)
            pos = codes >> 1
            steps[pos] = exit_step + (entry + taken)
            decided[pos] = top != (codes & 1)
            state = state.compress(after == 0, axis=1)
        taken += w
        if started < keys.size:
            wanted = capacity - state.shape[1]
            if base + table.shape[1] < min(started + wanted, keys.size):
                base = started
                table = _columns(channel, keys, a, b, base, base + capacity * _TABLE_SETS)
            fresh = table[:, started - base : started - base + wanted]
            fresh[4] = 1 - taken
            state = np.concatenate((state, fresh), axis=1)
            started += fresh.shape[1]
        yield int(state[3, 0]) >> 1 if state.shape[1] else started


def _scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # A round's answers and its one byte per answer (each row padded to
    # whole 64-bit words), kept from call to call: each is written before
    # it is read within a round and holds nothing across a yield, so
    # interleaved walk_rounds calls can share them. Made afresh on every
    # call, the two 128 KiB arrays sat at glibc's default mmap and trim
    # thresholds, and in some processes, depending only on the heap's
    # layout, each call handed them back to the OS and faulted them in
    # again: a 15-20% slower counting workload from one process to the next.
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or bufs[0].size < _BLOCK_ELEMENTS:
        bufs = _SCRATCH.bufs = (
            np.empty(_BLOCK_ELEMENTS, dtype=np.uint64),
            np.empty(_BLOCK_ELEMENTS, dtype=np.uint64),
            np.empty(_BLOCK_ELEMENTS + 7 * _MAX_WIDTH, dtype=np.uint8),
        )
    return bufs


def _columns(channel, keys, a, b, lo, hi) -> np.ndarray:
    # the first four rows of walk_rounds' columns for keys[lo:hi]
    part = keys[lo:hi]
    bits = channel._bits[part]
    table = np.empty((5, part.size), dtype=np.int64)
    table[0] = channel._counters[part].view(np.int64)
    table[1] = np.where(bits, a, b)
    table[2] = np.where(bits, -b, -a)
    np.multiply(np.arange(lo, lo + part.size), 2, out=table[3])
    table[3] += bits
    return table


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
    decided, steps = walks(oracle, [_channel(oracle)._slot(key)], policy.down_threshold_a, policy.up_threshold_b)
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


def simulate_hitting(p: float, x: int, count: int, rng, *, precision: float = 1e-6) -> HitTally:
    """Monte Carlo estimate of the probability of ever reaching +x.

    Runs :func:`walks` on ``count`` zero bits of a :class:`BitOracle`
    keyed by ``rng``, so each walk steps +1 w.p. p and -1 w.p. 1-p. A
    walk is abandoned as a non-hit once it falls to
    x - ceil(log(1/precision)/log((1-p)/p)), from where the chance of
    still reaching +x is below ``precision``; the estimate is therefore
    biased low by at most ``precision``.
    """
    _check_walk_params(p, x)
    if count < 1:
        raise ValueError("need at least one walk")
    if x == 0:
        return HitTally(walks=count, hits=count)
    noise = NoiseModel(p)
    far = barrier(noise, 1, precision) - x
    if far <= 0:
        # hitting probability below the truncation precision
        return HitTally(walks=count, hits=0)
    decided, _ = walks(BitOracle(np.zeros(count, dtype=np.uint8), noise, rng), np.arange(count), far, x)
    return HitTally(walks=count, hits=int(decided.sum()))


def simulate_first_passage(p: float, x: int, count: int, rng) -> PassageTally:
    """Monte Carlo first-passage times of the down-drift walk to -x.

    Runs :func:`walks` on ``count`` zero bits of a :class:`BitOracle`
    keyed by ``rng``, with the upper barrier out of reach, so no
    truncation is applied; step counts are summed as exact integers.
    """
    _check_walk_params(p, x)
    if count < 1:
        raise ValueError("need at least one walk")
    if x == 0:
        return PassageTally(walks=count, steps_total=0, steps_squared_total=0)
    oracle = BitOracle(np.zeros(count, dtype=np.uint8), NoiseModel(p), rng)
    _, steps = walks(oracle, np.arange(count), x, _UNREACHABLE)
    return PassageTally(walks=count, steps_total=int(steps.sum()), steps_squared_total=int(steps @ steps))
