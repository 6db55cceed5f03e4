"""Deterministic random stream derivation.

Every random consumer in this package (instance samplers,
algorithm-internal randomness) gets its own generator derived from a
master seed plus a tuple of tags; oracles get a two-word stream key for
their counter-based answers (:func:`stream_key`). Streams with distinct tags are
statistically independent and do not depend on the order in which they
are created, so trials can run on any number of workers and still
reproduce bit-for-bit.
"""

from __future__ import annotations

import numbers

import numpy as np

_TAG_NONNEGATIVE = 1
_TAG_NEGATIVE = 2
_TAG_STR = 3


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's too; bool is an int
    subclass, but a count, index or barrier of True is a slip."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy's too, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _entropy_words(part: int | str) -> list[int]:
    """Map a tag to 32-bit words suitable for SeedSequence entropy.

    Every tag starts with a header word, 4 * length + type: the type
    tells non-negative ints, negative ints and strings apart, and the
    length counts the payload's 32-bit words for ints (the magnitude,
    least significant word first) and its UTF-8 bytes for strings. The
    framing makes the encoding of a tag tuple injective: distinct tuples
    give distinct word lists, and since no header is zero, no list is
    another with zero words appended, which SeedSequence would not tell
    apart. Nothing depends on the builtin ``hash``, which is salted per
    process. A bool is refused, as :func:`_is_integer` refuses it: True
    would otherwise name the stream of 1.
    """
    if isinstance(part, str):
        data = part.encode("utf-8")
        padded = data + bytes(-len(data) % 4)
        payload = [int.from_bytes(padded[i : i + 4], "little") for i in range(0, len(padded), 4)]
        return [4 * len(data) + _TAG_STR, *payload]
    if _is_integer(part):
        value = int(part)
        kind = _TAG_NONNEGATIVE if value >= 0 else _TAG_NEGATIVE
        value = abs(value)
        payload = []
        while value:
            payload.append(value & 0xFFFFFFFF)
            value >>= 32
        return [4 * len(payload) + kind, *payload]
    raise TypeError(f"stream tag must be int or str, got {type(part).__name__}")


def seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """Build a SeedSequence from a master seed and tags.

    ``seed_sequence(seed, "oracle", trial)`` and
    ``seed_sequence(seed, "instance", trial)`` are independent streams;
    recreating either with the same arguments yields the same stream.
    """
    if not parts:
        raise ValueError("at least one entropy part is required")
    entropy: list[int] = []
    for part in parts:
        entropy.extend(_entropy_words(part))
    # an array is read several times faster than a list of Python ints
    return np.random.SeedSequence(np.array(entropy, dtype=np.uint32))


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Generator for the stream named by ``parts``."""
    return np.random.default_rng(seed_sequence(*parts))


def _random_source(rng) -> np.random.Generator | np.random.SeedSequence:
    """``rng`` if it is a Generator or a SeedSequence, an integer seed as
    its SeedSequence, or TypeError; a bool is not a seed."""
    if isinstance(rng, (np.random.Generator, np.random.SeedSequence)):
        return rng
    if _is_integer(rng):
        return np.random.SeedSequence(int(rng))
    raise TypeError(f"expected Generator, SeedSequence or int, got {type(rng).__name__}")


def as_generator(rng: np.random.Generator | np.random.SeedSequence | int) -> np.random.Generator:
    """Coerce a seed, SeedSequence or Generator into a Generator; a seed n
    gives ``default_rng(n)``'s stream."""
    source = _random_source(rng)
    return source if isinstance(source, np.random.Generator) else np.random.default_rng(source)


def stream_key(rng: np.random.Generator | np.random.SeedSequence | int) -> tuple[int, int]:
    """Two 64-bit words naming a counter-based stream.

    A SeedSequence (or an int seed, through one) yields its first two
    state words; a Generator is asked for two uniform 64-bit words, which
    advances it.
    """
    source = _random_source(rng)
    if isinstance(source, np.random.Generator):
        words = source.integers(0, 1 << 64, size=2, dtype=np.uint64)
    else:
        words = source.generate_state(2, dtype=np.uint64)
    return int(words[0]), int(words[1])
