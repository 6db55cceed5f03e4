"""Exact influence analytics for explicit Boolean functions.

Functions are stored as full truth tables (arity capped at 20, i.e. one
megabit). Input strings are identified with integer indices where bit j
of the index is the value of the j-th variable (LSB first).

Uniform-measure influences are dyadic rationals with denominator
2^(n-1) and are computed exactly; biased-measure influences group the
differing input pairs by Hamming weight, so each probability is a short
compensated sum of n+1 weighted terms.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from .streams import as_generator

MAX_ARITY = 20

_PC_TABLE: np.ndarray | None = None


def _popcount(arr: np.ndarray) -> np.ndarray:
    global _PC_TABLE
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr)
    if _PC_TABLE is None:
        _PC_TABLE = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
    arr = np.asarray(arr, dtype=np.int64)
    return _PC_TABLE[arr & 0xFFFF] + _PC_TABLE[arr >> 16]


class TruthTable:
    """Immutable Boolean function on at most :data:`MAX_ARITY` variables."""

    __slots__ = ("_values", "_labels", "_positions")

    def __init__(self, values: Sequence[int] | np.ndarray, labels: Sequence[int] | None = None):
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("truth table must be a non-empty flat bit array")
        arity = arr.size.bit_length() - 1
        if 1 << arity != arr.size:
            raise ValueError(f"truth table length must be a power of two, got {arr.size}")
        if arity > MAX_ARITY:
            raise ValueError(f"arity {arity} exceeds the supported maximum {MAX_ARITY}")
        # checked as given, as BitOracle checks its bits, and then cast
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("truth table entries must be 0/1 bits")
        if labels is None:
            labels = range(arity)
        labels = tuple(int(v) for v in labels)
        if len(labels) != arity or len(set(labels)) != arity:
            raise ValueError(f"need {arity} distinct variable labels, got {labels!r}")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        self._values = arr
        self._labels = labels
        self._positions = {lab: pos for pos, lab in enumerate(labels)}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parity(cls, arity: int) -> "TruthTable":
        idx = np.arange(1 << arity, dtype=np.int64)
        return cls((_popcount(idx) & 1).astype(np.uint8))

    @classmethod
    def dictator(cls, arity: int, label: int = 0) -> "TruthTable":
        idx = np.arange(1 << arity, dtype=np.int64)
        if not 0 <= label < arity:
            raise ValueError(f"dictator variable {label} out of range")
        return cls(((idx >> label) & 1).astype(np.uint8))

    @classmethod
    def or_function(cls, arity: int) -> "TruthTable":
        idx = np.arange(1 << arity, dtype=np.int64)
        return cls((idx != 0).astype(np.uint8))

    @classmethod
    def random(cls, arity: int, rng) -> "TruthTable":
        gen = as_generator(rng)
        return cls(gen.integers(0, 2, size=1 << arity, dtype=np.uint8))

    # -- basic accessors -------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def values(self) -> np.ndarray:
        return self._values

    def evaluate(self, index: int) -> int:
        return int(self._values[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(self._values, other._values)

    def __hash__(self):
        return hash((self._labels, self._values.tobytes()))

    def __repr__(self) -> str:
        return f"TruthTable(arity={self.arity}, labels={self._labels})"

    def _position(self, label: int) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"variable {label!r} is not among labels {self._labels}") from None

    def _pair_views(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        # rows: index bits above pos, cols: bits below pos
        v = self._values.reshape(-1, 2, 1 << pos)
        return v[:, 0, :], v[:, 1, :]

    # -- influence -------------------------------------------------------------

    def influence(self, label: int) -> float:
        """P over uniform x that flipping ``label`` flips the value.

        Exact: the count of differing flip-pairs over 2^(n-1).
        """
        pos = self._position(label)
        low, high = self._pair_views(pos)
        pairs = int(np.count_nonzero(low != high))
        return pairs / float(1 << (self.arity - 1))

    def total_influence(self) -> float:
        """Sum of single-variable influences (= average sensitivity)."""
        return math.fsum(self.influence(lab) for lab in self._labels)

    def q_biased_influence(self, label: int, q: float) -> float:
        """P over x ~ Bernoulli(q)^n that flipping ``label`` flips the value."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"bias q must lie in [0, 1], got {q!r}")
        pos = self._position(label)
        n = self.arity
        low, high = self._pair_views(pos)
        diff = low != high
        if not diff.any():
            return 0.0
        rows = _popcount(np.arange(diff.shape[0], dtype=np.int64))
        cols = _popcount(np.arange(diff.shape[1], dtype=np.int64))
        # Hamming weight of the n-1 unflipped coordinates, per pair
        weight = rows[:, None].astype(np.int64) + cols[None, :].astype(np.int64)
        per_weight = np.bincount(weight[diff], minlength=n)
        terms = []
        for m in range(n):
            c = int(per_weight[m]) if m < per_weight.size else 0
            if c == 0:
                continue
            # pair contributes its bit=0 assignment (weight m) and its
            # bit=1 assignment (weight m+1)
            terms.append(c * (q**m * (1.0 - q) ** (n - m) + q ** (m + 1) * (1.0 - q) ** (n - 1 - m)))
        return math.fsum(terms)

    def q_biased_total_influence(self, q: float) -> float:
        return math.fsum(self.q_biased_influence(lab, q) for lab in self._labels)

    # -- restriction -----------------------------------------------------------

    def restrict(self, assignment: Mapping[int, int]) -> "TruthTable":
        """Fix some variables to constants; the rest stay free.

        ``assignment`` maps variable labels to the integers 0 or 1 (bools
        included); any other value raises ValueError. Unmentioned labels
        remain free, so an empty assignment returns the same function.
        """
        if not assignment:
            return TruthTable(self._values, self._labels)
        fixed: list[tuple[int, int]] = []
        for label, bit in assignment.items():
            if not isinstance(bit, numbers.Integral) or bit not in (0, 1):
                raise ValueError(f"restriction value for {label!r} must be the integer 0 or 1, got {bit!r}")
            fixed.append((self._position(label), int(bit)))
        fixed.sort(reverse=True)
        values = self._values
        remaining = list(self._labels)
        for pos, bit in fixed:
            values = values.reshape(-1, 2, 1 << pos)[:, bit, :].reshape(-1)
            del remaining[pos]
        return TruthTable(values, remaining)


def restriction_identity_residual(table: TruthTable, label: int, q: float) -> float:
    """Defect of the one-variable restriction identity for total influence.

    Averaging the biased total influence of the two restrictions of a
    variable (weighted q and 1-q) recovers the full biased total
    influence minus that variable's own biased influence. Returns the
    absolute difference between the two sides; mathematically zero, so
    anything above float-roundoff scale indicates a bug.
    """
    own = table.q_biased_influence(label, q)
    total = table.q_biased_total_influence(q)
    up = table.restrict({label: 1}).q_biased_total_influence(q)
    down = table.restrict({label: 0}).q_biased_total_influence(q)
    return abs(q * up + (1.0 - q) * down - (total - own))
