import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest

from noisyquery import BitOracle, derive_rng, seed_sequence
from noisyquery.streams import _entropy_words, as_generator, stream_key

tags = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6))


def test_negative_seed_does_not_alias_a_positive_one():
    # -1 was once encoded as (1 << 1) | 1 = 3
    assert derive_rng(-1, "a").random() != derive_rng(3, "a").random()


def test_wide_int_tag_does_not_alias_two_tags():
    # 2**32 was once the words [0, 1], the same as the tags 0 and 1
    assert derive_rng(2**32, "a").random() != derive_rng(0, 1, "a").random()


def test_trailing_zero_tag_is_not_dropped():
    # SeedSequence pads short entropy with zero words, so [1] and [1, 0]
    # would name one stream without the type and length frame
    assert derive_rng(1).random() != derive_rng(1, 0).random()


@hypothesis.given(st.lists(tags, min_size=1, max_size=4), st.lists(tags, min_size=1, max_size=4))
def test_distinct_tag_tuples_give_distinct_streams(first, second):
    hypothesis.assume(first != second)
    state = seed_sequence(*first).generate_state(4)
    assert not np.array_equal(state, seed_sequence(*second).generate_state(4))


@pytest.mark.parametrize("source", [lambda: 7, lambda: seed_sequence(7, "o"), lambda: derive_rng(7, "o")])
def test_oracle_stream_sources_replay(source):
    # a seed, a SeedSequence and a Generator each name a stream, and the
    # same source names the same one again
    first, again = (BitOracle([0, 1], 0.2, source()) for _ in range(2))
    assert [first.query(i % 2) for i in range(50)] == [again.query(i % 2) for i in range(50)]


def test_oracle_rejects_other_stream_sources():
    with pytest.raises(TypeError):
        BitOracle([0, 1], 0.2, "seed")


@pytest.mark.parametrize(
    "name_stream",
    [lambda v: seed_sequence(v, "x"), lambda v: derive_rng(7, v), stream_key, as_generator],
    ids=["seed_sequence", "derive_rng", "stream_key", "as_generator"],
)
def test_a_bool_never_names_a_stream(name_stream):
    # True is an int subclass, but as a seed or tag it would name the
    # stream of 1; numpy integers stay seeds
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(TypeError):
            name_stream(flag)
    assert name_stream(np.int64(1)) is not None


def test_seed_sequence_needs_a_part():
    with pytest.raises(ValueError, match="at least one entropy part"):
        seed_sequence()


def test_the_tag_cache_keeps_every_tag_apart():
    # the tag words are cached by value and type: a bool must not find the
    # words of the int it equals, and numpy integers find the words of theirs
    seed_sequence(5, "x", 1)
    with pytest.raises(TypeError):
        seed_sequence(5, "x", True)
    with pytest.raises(TypeError):
        seed_sequence(5, "x", 1.0)
    for value in (0, 1, 7, 2**32, -(2**40)):
        assert _entropy_words(np.int64(value)) == _entropy_words(value)
        assert derive_rng(5, np.int64(value)).random() == derive_rng(5, value).random()
    assert _entropy_words(np.int32(7)) == _entropy_words(np.uint8(7)) == _entropy_words(7)
    # a string's header word has type 3 and an int's 1 or 2, so they never share words
    for text, number in (("1", 1), ("", 0), ("a", 97), ("\x00", 0)):
        assert _entropy_words(text) != _entropy_words(number)
        assert _entropy_words(text)[0] % 4 == 3 and _entropy_words(number)[0] % 4 in (1, 2)


def test_the_tag_cache_is_bounded():
    assert _entropy_words.cache_info().maxsize == 1024
    for tag in range(3000):
        seed_sequence(tag)
    assert _entropy_words.cache_info().currsize <= 1024
