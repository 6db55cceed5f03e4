"""Noise model and query-counting noisy oracles.

A noisy oracle hides a bit vector (or the edge set of a graph) and
answers point queries through a binary symmetric channel: each answer is
the true bit flipped independently with probability ``p``. Every answer
adds one query to the oracle's ledger, which holds only the total; how
many answers each key has had is its counter's advance (below).

Answers are counter-based, in the manner of Random123 (Salmon et al.,
SC'11). The oracle holds a two-word stream key, and every key it hides
(a bit index, or an unordered vertex pair) has a 64-bit counter that
starts at base(i), a mix of the stream key with i, and advances by GAMMA
with each answer. Answer j (from 1) about key i is flipped exactly when
mix(base(i) + j * GAMMA) < floor(p * 2^64), where ``mix`` is SplitMix64's
finaliser, a bijection on 64-bit words. Answers therefore depend only on
(stream key, key, j), not on the order in which keys are queried, so a
walk over many keys can compute all its answers at once
(:func:`noisyquery.walks.walks`), bit for bit equal to repeated
``query`` calls. Query counts and answers are reproducible functions of
(stream key, hidden input, p).

An oracle keeps its stream key and forms its counters' bases the first
time they are read, so building one costs no mixing. Stacking a block of
oracles (:func:`noisyquery.walks.stack`) forms the bases of every one
not read yet in one :func:`mix_array` call (:func:`_read_counters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .streams import _is_integer, _is_real, stream_key
from .trees import _vertex_count

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix(z: int) -> int:
    """SplitMix64's finaliser on one 64-bit word."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix_array(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """:func:`mix` on every word of a uint64 array, in place.

    ``tmp``, an array of the same shape, saves allocating a scratch one.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _read_counters(channels) -> None:
    """Form the counters of every channel in ``channels`` not read yet, in
    one :func:`mix_array` call; the channels share their slot count.

    Each gets a row of one array, with the values its own first read gives.
    """
    fresh = [channel for channel in channels if "_counters" not in vars(channel)]
    if fresh:
        keys = np.array([channel._key for channel in fresh], dtype=np.uint64)
        # base(s) = mix(key0 + (s + 1) * GAMMA) ^ key1, one row per channel
        bases = np.arange(1, fresh[0]._bits.size + 1, dtype=np.uint64) * np.uint64(GAMMA) + keys[:, :1]
        mix_array(bases)
        bases ^= keys[:, 1:]
        for channel, row in zip(fresh, bases):
            channel._counters = row


@dataclass(frozen=True)
class NoiseModel:
    """Flipping probability and its derived information constants.

    ``log_ratio`` is log((1-p)/p) and ``dkl`` is (1-2p)*log((1-p)/p),
    the KL divergence between Bernoulli(p) and Bernoulli(1-p). Natural
    logarithms throughout.
    """

    p: float
    log_ratio: float = field(init=False)
    dkl: float = field(init=False)

    def __post_init__(self) -> None:
        p = self.p
        if not (_is_real(p) and 0.0 < p < 0.5):
            raise ValueError(f"flipping probability must lie in (0, 1/2), got {p!r}")
        p = float(p)
        object.__setattr__(self, "p", p)
        # (1-p)/p as written wherever it is finite, so rows keep every
        # bit; at subnormal p it overflows, and the logs stay finite
        ratio = (1.0 - p) / p
        log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log1p(-p) - math.log(p)
        object.__setattr__(self, "log_ratio", log_ratio)
        object.__setattr__(self, "dkl", (1.0 - 2.0 * p) * self.log_ratio)


@dataclass
class QueryLedger:
    """Monotone count of an oracle's answers, over all its keys."""

    total_queries: int = 0


class _CounterChannel:
    """Shared machinery: counter-based answers, per-key counters, ledger.

    The hidden keys are numbered by slots 0..size-1; ``_slot`` maps a key
    to its slot: a bit index, or a slot of a stacked block, is its own
    slot, and :class:`EdgeOracle` maps vertex pairs. ``_bits[s]`` is the hidden bit of
    slot s and ``_counters[s]`` the counter of its latest answer:
    base(s) + j * GAMMA after j answers, modulo 2^64, where
    base(s) = mix(key0 + (s + 1) * GAMMA) ^ key1. The next answer about
    slot s is flipped when mix(_counters[s] + GAMMA) < ``_flip_below``.
    GAMMA is odd, so the counters are the one per-key record: j is
    (_counters[s] - base(s)) * GAMMA^-1 modulo 2^64. The ledger holds
    the total over all slots. The counters are formed from ``_key``, the
    pair (key0, key1) that an oracle sets after this constructor, on
    first read, or by :func:`_read_counters`.

    Answers are computed one at a time by ``_answer`` (for ``query`` and
    single-bit checks) and many at once by
    :func:`noisyquery.walks.walk_rounds`, whose walks ``_charge`` records.
    """

    def __init__(self, noise: NoiseModel | float, bits: np.ndarray, ledger: QueryLedger | None = None) -> None:
        if not isinstance(noise, NoiseModel):
            noise = NoiseModel(noise)
        self.noise = noise
        # p * 2^64 is exact in binary floating point, so the flip chance is p to within 2^-64
        self._flip_below = int(noise.p * 2.0**64)
        self._bits = bits
        self.ledger = QueryLedger() if ledger is None else ledger

    @cached_property
    def _counters(self) -> np.ndarray:
        # the bases, formed on first read; afterwards the instance attribute is read directly
        _read_counters([self])
        return vars(self)["_counters"]

    def query(self, key) -> int:
        """One noisy answer about ``key``: a bit index, or a vertex pair in either order."""
        return self._answer(self._slot(key))

    def _slot(self, i) -> int:
        if not _is_integer(i):
            raise IndexError(f"bit index must be an integer, got {i!r}")
        if not 0 <= i < self._bits.size:
            raise IndexError(f"bit index {i} out of range [0, {self._bits.size})")
        return int(i)

    def _answer(self, slot: int) -> int:
        """The next answer about ``slot``: advance its counter and count one query."""
        counter = (self._counters.item(slot) + GAMMA) & _MASK
        self._counters[slot] = counter
        self.ledger.total_queries += 1
        return self._bits.item(slot) ^ (mix(counter) < self._flip_below)

    def _charge(self, slots: np.ndarray, steps: np.ndarray) -> None:
        """Count ``steps[i]`` more answers about ``slots[i]``; ``slots`` are
        distinct slots, or a slice of them."""
        self._counters[slots] += steps.astype(np.uint64) * np.uint64(GAMMA)
        self.ledger.total_queries += int(steps.sum())


class BitOracle(_CounterChannel):
    """Noisy point-query access to a hidden bit vector.

    The hidden vector is fixed at construction. ``query(i)`` returns
    ``hidden[i]`` with probability 1-p and its complement otherwise,
    independently across calls, and adds one query to the ledger. Bit i
    is slot i.
    """

    def __init__(self, hidden: Sequence[int] | np.ndarray, noise: NoiseModel | float, rng) -> None:
        bits = np.asarray(hidden)
        if bits.ndim != 1 or not ((bits == 0) | (bits == 1)).all():
            raise ValueError("hidden input must consist of 0/1 bits")
        super().__init__(noise, bits.astype(np.uint8))
        self._key = stream_key(rng)

    @property
    def n(self) -> int:
        return self._bits.size

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(self._bits.tolist())


class EdgeOracle(_CounterChannel):
    """Noisy membership queries over the edge set of a hidden graph on [n].

    Queries address unordered pairs: ``query((u, v))`` and
    ``query((v, u))`` hit the same hidden edge. The pairs u < v are the
    slots, numbered in the order of ``numpy.triu_indices(n, 1)``.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray, noise: NoiseModel | float, rng) -> None:
        self._n = _vertex_count(n)
        bits = np.zeros(self._n * (self._n - 1) // 2, dtype=np.uint8)
        # an (m, 2) integer array is read as it is; other iterables are listed first
        bits[self._slots(edges if isinstance(edges, np.ndarray) else list(edges))] = 1
        super().__init__(noise, bits)
        self._key = stream_key(rng)

    def _slots(self, pairs) -> np.ndarray:
        """Slots of vertex pairs in either order, for the constructor and ``query``: an array, or a
        list of pairs. The first bad pair raises: ValueError for a vertex that is not an integer
        (a bool too) or a self-loop, IndexError out of range."""
        listed = None if isinstance(pairs, np.ndarray) else pairs
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be vertex pairs, got an array of shape {pairs.shape}")
        if pairs.dtype.kind not in "iu":
            raise ValueError(f"vertex pairs must hold integers, got {pairs.dtype} vertices")
        # a list's array reads a bool beside an int as the int it equals, so the list's own vertices are read
        bad = [] if listed is None else [x for pair in listed for x in pair if not _is_integer(x)]
        if bad:
            raise ValueError(f"vertex pairs must hold integers, got {type(bad[0]).__name__} vertices")
        pairs = pairs.astype(np.int64, copy=False)
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        # a pair is bad when u == v, u < 0 or v >= n; as unsigned words a
        # negative vertex is at least 2^63, so two comparisons find all three
        unsigned = vs.view(np.uint64)
        bad = us.view(np.uint64) >= unsigned
        bad |= unsigned >= self._n
        if np.count_nonzero(bad):
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not a valid query")
            raise IndexError(f"vertex pair ({u}, {v}) out of range [0, {self._n})")
        return self._pair_slot(us, vs)

    def _pair_slot(self, u, v):
        # pairs (0,1), (0,2), ..., (0,n-1), (1,2), ...: row u starts after u rows of n-1, n-2, ... pairs,
        # u (2n - u - 1) / 2 of them, so (u, v) is slot u (2n - u - 3) / 2 + v - 1, where the
        # product is always even; u and v may be ints or integer arrays
        return u * (2 * self._n - 3 - u) // 2 + v - 1

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The hidden edges, as pairs (u, v) with u < v."""
        us, vs = self._pairs(np.flatnonzero(self._bits))
        return frozenset(zip(us.tolist(), vs.tolist()))

    def _slot(self, key) -> int:
        return int(self._slots([key])[0])

    def _pairs(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (u, v), u < v, of the pairs at ``slots``.

        u is the last row that starts at or before the slot, and v
        follows from the slot's offset in that row.
        """
        rows = np.arange(self._n - 1)
        starts = self._pair_slot(rows, rows + 1)
        us = np.searchsorted(starts, slots, side="right") - 1
        return us, slots - starts[us] + us + 1


class ComplementBitOracle(BitOracle):
    """Bit oracle over the complement of another's hidden bits.

    Flipping a binary-symmetric-channel answer about bit b gives the
    same channel about bit 1-b, so the view's answers are the inner
    oracle's flipped. It holds the inner oracle's answer counters and
    ledger: its answers continue the inner's answer counts, and its
    queries are recorded in the inner's ledger. Building a view forms
    the inner's counters if they were not read yet.
    """

    def __init__(self, inner: BitOracle) -> None:
        if not isinstance(inner, BitOracle):
            raise TypeError(f"a complement view needs a BitOracle, got {type(inner).__name__}")
        _CounterChannel.__init__(self, inner.noise, inner._bits ^ 1, inner.ledger)
        self._counters = inner._counters
