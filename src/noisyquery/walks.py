"""Biased-random-walk bit estimation.

The core primitive estimates a hidden bit by repeated noisy reads,
tracking d = (#ones - #zeros) and stopping at the first of two integer
barriers: d = -a declares 0, d = +b declares 1. Gambler's-ruin laws give
the error probabilities ((p/(1-p))^a resp. ^b) and the expected cost
(barrier / (1-2p)), which is how the stopping thresholds are chosen from
target error rates.

A single-bit check (:func:`asymmetric_check_bit`, :func:`check_bit`)
walks its one key with one oracle answer per step, since one kernel
round costs about 35 numpy calls, 60-120 us. Every other walk runs in
one kernel, :func:`walks`. Oracle answers are counter-based (see
:mod:`noisyquery.oracles`), so the kernel computes the answers of many
keys' walks at once with numpy, advancing all of them in lockstep, and
gets exactly what per-key ``query`` calls would. Its one round loop,
:func:`walk_rounds`, keeps an active set of walks that it tops up with
the next keys as walks end, so the few numpy calls of a round are spread
over up to 2^16 answers, and the slow walks left at the end of a call
take rounds of about 2^14. A caller can follow it round by round, as the
threshold scan does to stop at the k-th confirmed one. Barriers are one
pair for the whole call or one value per key. Several oracles walk as
one block, so their walks share rounds: :func:`stack` copies them into
one channel, one row each, the kernel walks its keys, and
:func:`unstack` writes the rows back.

Importing this module (and so :mod:`noisyquery`) fixes glibc's malloc
trim and mmap thresholds, once, so the arrays a round frees stay in the
process and the next round reuses them without page faults. Where
glibc's ``mallopt`` is missing, nothing changes.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .oracles import GAMMA, BitOracle, NoiseModel, QueryLedger, _CounterChannel, _read_counters, mix_array
from .streams import _is_integer


SNAP_TOLERANCE = 1e-9


def snapped_ceil(value: float) -> int:
    """Ceiling with a relative snap for values within rounding of an integer.

    Thresholds are computed in double precision; without the snap, a
    quotient that is mathematically an integer could ceil to either of
    two neighbours depending on rounding. A value within
    :data:`SNAP_TOLERANCE` (relative) of an integer is that integer.
    Result is clamped to >= 1.
    """
    nearest = round(value)
    if abs(value - nearest) <= SNAP_TOLERANCE * max(1.0, abs(value)):
        result = int(nearest)
    else:
        result = math.ceil(value)
    return max(result, 1)


def barrier(noise: NoiseModel, count: float, delta: float) -> int:
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
        _barrier(self.down_threshold_a)
        _barrier(self.up_threshold_b)

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


def _barrier(x, size: int | None = None):
    """``x`` and its smallest value if it is a barrier, else ValueError: an
    integer >= 1 by :func:`~noisyquery.streams._is_integer` or, given ``size``,
    an integer array of ``size`` such values, as int64 (empty: any dtype)."""
    if _is_integer(x):
        if x >= 1:
            return x, x
    elif size is not None and np.ndim(x):
        x = np.asarray(x)
        if x.shape != (size,):
            raise ValueError("per-key barriers need one value per key")
        if x.dtype.kind in "iu" or not size:
            x = x.astype(np.int64, copy=False)
            if (low := x.min(initial=_UNREACHABLE)) >= 1:
                return x, int(low)
    per_key = "" if size is None else ", or arrays of one per key"
    raise ValueError(f"walk barriers must be integers >= 1{per_key}, got {x!r}")


def _check_delta(delta: float, name: str) -> None:
    if not (isinstance(delta, (int, float)) and 0.0 < float(delta) < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {delta!r}")


def _check_walk_params(p: float, x: int) -> None:
    if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 < p < 0.5):
        raise ValueError(f"step-up probability must lie in (0, 1/2), got {p!r}")
    if not _is_integer(x) or x < 0:
        raise ValueError(f"barrier distance must be a non-negative integer, got {x!r}")


def hitting_probability(p: float, x: int) -> float:
    """Chance that a walk stepping +1 w.p. p, -1 w.p. 1-p ever reaches +x."""
    _check_walk_params(p, x)
    return (p / (1.0 - p)) ** x


def expected_hitting_time(p: float, x: int) -> float:
    """Mean steps for the same down-drift walk to first reach -x."""
    _check_walk_params(p, x)
    return x / (1.0 - 2.0 * p)


# A round costs about 35 numpy calls plus a few ns per answer. A full set
# of walks, block_width steps each, computes at most _ROUND_ANSWERS
# answers a round, which bounds the working set at about a megabyte. Once
# no key waits to start, the slow walks left widen their rounds to keep
# about _TAIL_ANSWERS answers, up to _MAX_WIDTH steps, and pay fewer
# rounds. The tail target stays below the full one: with both at 2^16,
# tail rounds compute more answers past their walks' exits, and lock-step
# pairs read the threshold and counting workloads about 3% slower
# (BENCH_trial_blocks.json).
_ROUND_ANSWERS = 1 << 16
_TAIL_ANSWERS = 1 << 14
# a round's levels, and twice its flip counts, fit int8 (see walk_rounds)
_MAX_WIDTH = 63
# walk_rounds builds its walks' columns for this many full sets at a
# time, about a megabyte at most, not for every key of a large call at once
_TABLE_SETS = 4
# counter offsets GAMMA, 2 GAMMA, ... and step numbers 1, 2, ... of a round's rows
_OFFSETS = (np.arange(1, _MAX_WIDTH + 1, dtype=np.uint64) * np.uint64(GAMMA))[:, None]
_STEP_NUMBERS = np.arange(1, _MAX_WIDTH + 1, dtype=np.int8)[:, None]
# an upper barrier no first-passage walk reaches
_UNREACHABLE = 1 << 62
# GAMMA is odd, so it has an inverse modulo 2^64: j answers move a counter by j * GAMMA
_GAMMA_INVERSE = np.uint64(pow(GAMMA, -1, 1 << 64))


def _keep_freed_memory() -> bool:
    # Kernel rounds allocate and free arrays of 64 KiB to a few MiB. At
    # glibc's default thresholds, which move with each process's heap
    # history, freed arrays go back to the OS and the next round faults
    # them in again: hundreds of minor faults per workload repetition,
    # and up to a sixth of counting's time, a share that changes from
    # one process to the next. Fixed thresholds keep freed memory in
    # the process: M_TRIM_THRESHOLD (-1) at 64 MiB and M_MMAP_THRESHOLD
    # (-3) at glibc's 64-bit maximum of 32 MiB. Without glibc's mallopt
    # nothing changes. Returns whether both were set.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return mallopt(-1, 64 << 20) == 1 and mallopt(-3, 32 << 20) == 1


_keep_freed_memory()


def _channel(oracle) -> _CounterChannel:
    if not isinstance(oracle, _CounterChannel):
        raise TypeError(f"walks need a BitOracle or an EdgeOracle, got {type(oracle).__name__}")
    return oracle


def _slots(channel, keys) -> np.ndarray:
    # keys as an int64 array of distinct slots of the channel, or an error;
    # slots are integers, as query's are, and an empty key list has none
    keys = np.asarray(keys)
    if keys.size and keys.dtype.kind not in "iu":
        raise IndexError(f"walk keys must be integer slots, got {keys.dtype} keys")
    keys = keys.astype(np.int64, copy=False)
    size = channel._bits.size
    if keys.size and not 0 <= keys.min() <= keys.max() < size:
        raise IndexError(f"walk keys must be slots in [0, {size})")
    # a mask over the slots: a few us for thousands of keys, unlike a sort
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    if np.count_nonzero(seen) < keys.size:
        repeated = int(np.flatnonzero(np.bincount(keys) > 1)[0])
        raise ValueError(f"walk keys must be distinct slots, got slot {repeated} more than once")
    return keys


def block_width(p: float, a, b) -> int:
    """Steps per lockstep round: about the expected exit time of a walk.

    A walk drifts toward one barrier at speed 1-2p and most walks exit
    at the nearer one, so min(a, b)/(1-2p) steps finish most of them in
    one round without computing many answers past their exit. With
    per-key barriers, the smallest barrier of any key sets the width.
    """
    nearest = min(int(x.min()) if isinstance(x, np.ndarray) else x for x in (a, b))
    return min(_MAX_WIDTH, max(4, math.ceil(nearest / (1.0 - 2.0 * p))))


def walks(oracle, keys, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Walk every key from 0 to the first of -a (declared 0) and +b (declared 1).

    ``a`` and ``b`` are integers >= 1, or arrays of one such integer per
    key. ``keys`` are distinct integer slots of the oracle: bit indices of a
    :class:`~noisyquery.oracles.BitOracle`, pair slots of an
    :class:`~noisyquery.oracles.EdgeOracle`, or slots of a :func:`stack`
    block. Each walk steps +1 on an answer 1 and -1 on an answer 0, and
    its answers continue the key's answer count, so the result equals
    walking the keys one by one through ``query`` calls, in any order.
    Returns the declared bits and the steps each walk took; the steps are
    added to the keys' answer counts and to the ledger.

    The walks run in :func:`walk_rounds`, one round loop over an active
    set of walks that it tops up with the next keys after every round,
    so a call of any size pays the last rounds of its slowest walks only
    once. A key that is not an integer or is out of range raises
    ``IndexError``, a repeated key or a barrier outside that rule
    ``ValueError``; either way nothing is charged.
    """
    channel = _channel(oracle)
    keys = _slots(channel, keys)
    decided = np.empty(keys.size, dtype=np.int8)
    steps = np.empty(keys.size, dtype=np.int64)
    for _ in walk_rounds(channel, keys, a, b, decided, steps):
        pass
    channel._charge(keys, steps)
    return decided, steps


def stack(oracles) -> _CounterChannel:
    """One channel, a block, whose row t holds every slot of ``oracles[t]``:
    block slot t * size + s is slot s of ``oracles[t]``.

    The block holds copies of the oracles' bits and answer counters and
    has its own ledger, so walks on it give each slot the answers its
    own oracle would give next, and change no oracle until
    :func:`unstack` writes the rows back. The counters of every oracle
    not read yet are formed first, in one
    :func:`~noisyquery.oracles._read_counters` call. The oracles must
    share p and their slot count, and no two may hold one counter array
    (a view beside its inner oracle), or writing back would count some
    answers twice.
    """
    channels = [_channel(oracle) for oracle in oracles]
    if not channels:
        raise ValueError("walks of several oracles need at least one oracle")
    first = channels[0]
    if any(c.noise.p != first.noise.p for c in channels):
        raise ValueError("oracles walked together must share their flip probability p")
    if any(c._bits.size != first._bits.size for c in channels):
        raise ValueError("oracles walked together must have the same number of slots")
    _read_counters(channels)
    if len({id(c._counters) for c in channels}) < len(channels):
        # an oracle listed twice, or a complement view beside its inner oracle
        raise ValueError("oracles walked together must not share answer counters")
    block = _CounterChannel()
    block.noise = first.noise
    block._flip_below = first._flip_below
    block._bits = np.concatenate([c._bits for c in channels])
    block._counters = np.concatenate([c._counters for c in channels])
    block.ledger = QueryLedger()
    return block


def unstack(block, oracles) -> np.ndarray:
    """Write each row of a :func:`stack` block back to its oracle.

    Row t's counters replace those of ``oracles[t]``, and the answers
    they moved by, (advance * GAMMA^-1) modulo 2^64 summed over the row,
    are added to its ledger. Returns those answer counts, one per row,
    computed for every row at once.
    """
    rows = block._counters.reshape(len(oracles), -1)
    moved = rows - np.concatenate([oracle._counters for oracle in oracles]).reshape(rows.shape)
    moved *= _GAMMA_INVERSE
    answered = moved.sum(axis=1).astype(np.int64)
    for oracle, row, count in zip(oracles, rows, answered.tolist()):
        # in place: a complement view shares this array with its inner oracle
        oracle._counters[:] = row
        oracle.ledger.total_queries += count
    return answered


def walk_rounds(oracle, keys, a, b, decided: np.ndarray, steps: np.ndarray):
    """The walks of :func:`walks`, one round at a time, charging nothing.

    ``keys`` is a valid int64 array of distinct slots, and ``a`` and
    ``b`` are barriers as :func:`walks` takes them. Keys start walking
    in their order, up to ``_ROUND_ANSWERS // block_width`` at once, and
    a round advances every walking key by the same number of steps. When
    a walk ends, its declared bit and steps are written to ``decided``
    and ``steps`` at its key's position. After each round this yields
    the number of leading keys whose walks have all ended, so a caller
    can stop at any round; nothing is charged.
    """
    channel = _channel(oracle)
    (a, low_a), (b, low_b) = _barrier(a, keys.size), _barrier(b, keys.size)
    if not keys.size:
        return
    width = block_width(channel.noise.p, low_a, low_b)
    capacity = max(1, _ROUND_ANSWERS // width)
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
    # a round's answers and its one byte per answer, each row padded to whole 64-bit words
    size = max(_ROUND_ANSWERS, _TAIL_ANSWERS)
    z_buf, tmp_buf = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    byte_buf = np.empty(size + 7 * _MAX_WIDTH, dtype=np.uint8)
    while state.shape[1]:
        m = state.shape[1]
        # block_width steps for a full set; fewer walks, the slow ones at
        # the end of a call, take wider rounds of about _TAIL_ANSWERS answers
        w = min(_MAX_WIDTH, max(width, _TAIL_ANSWERS // m))
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


def _columns(channel, keys, a, b, lo, hi) -> np.ndarray:
    # the first four rows of walk_rounds' columns for keys[lo:hi]
    part = keys[lo:hi]
    bits = channel._bits[part]
    a, b = (x[lo:hi] if isinstance(x, np.ndarray) else x for x in (a, b))
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
    for an edge oracle. The walk takes one oracle answer per step, so it
    gives what :func:`walks` on that one key gives, without a kernel round.
    """
    if policy is None:
        policy = WalkPolicy.for_error_bounds(oracle.noise, delta0, delta1)
    else:
        _check_delta(delta0, "delta0")
        _check_delta(delta1, "delta1")
    channel = _channel(oracle)
    answer = channel._answer
    slot = channel._slot(key)
    a, b = policy.down_threshold_a, policy.up_threshold_b
    d = taken = 0
    while -a < d < b:
        taken += 1
        d += 1 if answer(slot) else -1
    return WalkOutcome(int(d == b), taken)


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
    if not _is_integer(count) or count < 1:
        raise ValueError(f"need an integer count of at least one walk, got {count!r}")
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
    if not _is_integer(count) or count < 1:
        raise ValueError(f"need an integer count of at least one walk, got {count!r}")
    if x == 0:
        return PassageTally(walks=count, steps_total=0, steps_squared_total=0)
    oracle = BitOracle(np.zeros(count, dtype=np.uint8), NoiseModel(p), rng)
    _, steps = walks(oracle, np.arange(count), x, _UNREACHABLE)
    return PassageTally(walks=count, steps_total=int(steps.sum()), steps_squared_total=int(steps @ steps))
