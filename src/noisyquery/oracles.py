"""Noise model and query-counting noisy oracles.

A noisy oracle hides a bit vector (or the edge set of a graph) and
answers point queries through a binary symmetric channel: each answer is
the true bit flipped independently with probability ``p``. Every answer
consumes exactly one uniform draw from the oracle's private stream and
increments its ledger by one, so query counts and answer streams are
reproducible functions of (seed, hidden input, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .streams import as_generator

_CHUNK_START = 128
_CHUNK_MAX = 16384


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
        if not isinstance(p, (float, int)) or isinstance(p, bool):
            raise ValueError(f"flipping probability must be a real number, got {p!r}")
        p = float(p)
        if not math.isfinite(p) or not 0.0 < p < 0.5:
            raise ValueError(f"flipping probability must lie strictly in (0, 1/2), got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "log_ratio", math.log((1.0 - p) / p))
        object.__setattr__(self, "dkl", (1.0 - 2.0 * p) * self.log_ratio)


@dataclass
class QueryLedger:
    """Monotone query counter, optionally broken down per queried key."""

    total_queries: int = 0
    per_index: dict | None = None

    def record(self, key, count: int = 1) -> None:
        self.total_queries += count
        if self.per_index is not None:
            self.per_index[key] = self.per_index.get(key, 0) + count


class _BufferedChannel:
    """Shared machinery: buffered uniform draws, noise flip, ledger.

    Uniforms are drawn from the generator in growing blocks; consuming
    them one by one yields exactly the same sequence as unbuffered
    scalar draws, so buffering never changes an oracle's answer stream.
    """

    def _init_channel(self, noise: NoiseModel, rng, track_per_index: bool) -> None:
        if not isinstance(noise, NoiseModel):
            noise = NoiseModel(noise)
        self.noise = noise
        self._p = noise.p
        self._rng = as_generator(rng)
        self._chunk = _CHUNK_START
        self._buf: list[float] = []
        self._pos = 0
        self.ledger = QueryLedger(per_index={} if track_per_index else None)

    def _refill(self) -> None:
        chunk = self._chunk
        if chunk < _CHUNK_MAX:
            self._chunk = chunk * 2
        self._buf = self._rng.random(chunk).tolist()
        self._pos = 0

    def _next_uniform(self) -> float:
        pos = self._pos
        buf = self._buf
        if pos == len(buf):
            self._refill()
            buf = self._buf
            pos = 0
        self._pos = pos + 1
        return buf[pos]


class BitOracle(_BufferedChannel):
    """Noisy point-query access to a hidden bit vector.

    The hidden vector is fixed at construction. ``query(i)`` returns
    ``hidden[i]`` with probability 1-p and its complement otherwise,
    independently across calls, and adds one query to the ledger.
    """

    def __init__(
        self,
        hidden: Sequence[int] | np.ndarray,
        noise: NoiseModel | float,
        rng,
        *,
        track_per_index: bool = False,
    ) -> None:
        bits = [int(b) for b in hidden]
        if any(b not in (0, 1) for b in bits):
            raise ValueError("hidden input must consist of 0/1 bits")
        self._hidden = bits
        self._n = len(bits)
        self._init_channel(noise, rng, track_per_index)

    @property
    def n(self) -> int:
        return self._n

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(self._hidden)

    def true_ones(self) -> int:
        """Ground-truth number of ones (for harness scoring, not algorithms)."""
        return sum(self._hidden)

    def _hidden_bit(self, i) -> int:
        if not isinstance(i, (int, np.integer)):
            raise IndexError(f"bit index must be an integer, got {i!r}")
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range [0, {self._n})")
        return self._hidden[i]

    def _ledger_key(self, i) -> int:
        return int(i)

    def query(self, i: int) -> int:
        """One noisy read of bit ``i`` (0-based)."""
        bit = self._hidden_bit(i)
        u = self._next_uniform()
        self.ledger.record(int(i))
        return bit ^ (u < self._p)


class EdgeOracle(_BufferedChannel):
    """Noisy membership queries over the edge set of a hidden graph on [n].

    Queries address unordered pairs: ``query((u, v))`` and
    ``query((v, u))`` hit the same hidden edge.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        noise: NoiseModel | float,
        rng,
        *,
        track_per_index: bool = False,
    ) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        self._n = int(n)
        normalized = set()
        for u, v in edges:
            normalized.add(self._normalize(u, v))
        self._edges = frozenset(normalized)
        self._init_channel(noise, rng, track_per_index)

    def _normalize(self, u, v) -> tuple[int, int]:
        u = int(u)
        v = int(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid query")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise IndexError(f"vertex pair ({u}, {v}) out of range [0, {self._n})")
        return (u, v) if u < v else (v, u)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def _hidden_bit(self, key) -> int:
        u, v = key
        return 1 if self._normalize(u, v) in self._edges else 0

    def _ledger_key(self, key) -> tuple[int, int]:
        return self._normalize(*key)

    def query(self, key: tuple[int, int]) -> int:
        """One noisy membership test of the unordered pair ``key``."""
        u, v = key
        pair = self._normalize(u, v)
        bit = 1 if pair in self._edges else 0
        w = self._next_uniform()
        self.ledger.record(pair)
        return bit ^ (w < self._p)


class ComplementBitOracle:
    """View of a bit oracle with every answer flipped.

    Flipping a binary-symmetric-channel answer about bit b gives the
    same channel about bit 1-b, so this view behaves exactly like an
    oracle over the complemented hidden vector. Queries are recorded in
    the underlying oracle's ledger.
    """

    def __init__(self, inner: BitOracle) -> None:
        self._inner = inner

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def noise(self) -> NoiseModel:
        return self._inner.noise

    @property
    def ledger(self) -> QueryLedger:
        return self._inner.ledger

    def query(self, i: int) -> int:
        return 1 ^ self._inner.query(i)


def unwrap_complement(oracle) -> tuple[object, int]:
    """The oracle under any complement views, and 1 if they flip its answers."""
    flip = 0
    while isinstance(oracle, ComplementBitOracle):
        oracle = oracle._inner
        flip ^= 1
    return oracle, flip
