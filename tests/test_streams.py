import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest

from noisyquery import BitOracle, derive_rng, seed_sequence

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
