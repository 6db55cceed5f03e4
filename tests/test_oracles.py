import math
from itertools import combinations

import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest

from noisyquery import (
    BitOracle,
    ComplementBitOracle,
    EdgeOracle,
    NoiseModel,
    derive_rng,
    seed_sequence,
)
from noisyquery.oracles import GAMMA, mix
from noisyquery.streams import stream_key
from noisyquery.walks import stack, unstack, walks

from conftest import answer_counts, query_walk


def bernoulli_kl(a: float, b: float) -> float:
    """Independent generic KL oracle for two Bernoulli distributions."""
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def test_noise_model_values():
    model = NoiseModel(0.25)
    assert model.dkl == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
    assert model.dkl == pytest.approx(0.549306, abs=1e-6)
    model = NoiseModel(0.1)
    assert model.dkl == pytest.approx(0.8 * math.log(9.0), rel=1e-12)
    assert model.dkl == pytest.approx(1.757780, abs=1e-6)


@pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.4, 0.45, 0.49])
def test_noise_model_matches_generic_kl(p):
    model = NoiseModel(p)
    assert model.log_ratio > 0.0
    assert model.dkl > 0.0
    assert model.dkl == pytest.approx(bernoulli_kl(1.0 - p, p), rel=1e-12)


def test_noise_model_vanishes_near_half():
    model = NoiseModel(0.499)
    assert 0.0 < model.dkl < 1e-4


@pytest.mark.parametrize("p", [0.0, 0.5, -0.1, 0.7, 1.0, float("nan"), float("inf"), None, "0.2", True, np.bool_(True)])
def test_noise_model_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        NoiseModel(p)


def test_bit_oracle_channel_frequency():
    # hidden 1, p=0.3: one-rate 0.7 within 0.002 over 1e6 calls
    oracle = BitOracle([1], 0.3, derive_rng(77, "chan"))
    calls = 10**6
    ones = sum(oracle.query(0) for _ in range(calls))
    assert abs(ones / calls - 0.7) < 0.002
    assert oracle.ledger.total_queries == calls


def test_bit_oracle_ledger_exact_and_per_index():
    oracle = BitOracle([0, 1, 1, 0], 0.2, 3)
    pattern = [0, 1, 1, 2, 3, 3, 3, 1]
    for i in pattern:
        oracle.query(i)
    assert oracle.ledger.total_queries == len(pattern)
    assert answer_counts(oracle, BitOracle([0, 1, 1, 0], 0.2, 3)) == [1, 3, 1, 3]


def test_bit_oracle_reproducible_streams():
    def stream(seed):
        oracle = BitOracle([0, 1, 0, 1, 1], 0.3, seed_sequence(seed, "repro"))
        return [oracle.query(i % 5) for i in range(500)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


def test_bit_oracle_hidden_immutable_and_validated():
    oracle = BitOracle([0, 1], 0.1, 0)
    assert oracle.hidden == (0, 1)
    assert oracle.n == 2
    with pytest.raises(ValueError):
        BitOracle([0, 2], 0.1, 0)
    with pytest.raises(IndexError):
        oracle.query(2)
    with pytest.raises(IndexError):
        oracle.query(-1)


def test_edge_oracle_frequencies():
    oracle = EdgeOracle(4, [(0, 1)], 0.2, derive_rng(9, "edges"))
    calls = 10**5
    on_edge = sum(oracle.query((0, 1)) for _ in range(calls))
    off_edge = sum(oracle.query((2, 3)) for _ in range(calls))
    assert abs(on_edge / calls - 0.8) < 0.006
    assert abs(off_edge / calls - 0.2) < 0.006
    assert oracle.ledger.total_queries == 2 * calls


def test_edge_oracle_unordered_pairs():
    oracle = EdgeOracle(3, [(2, 0)], 0.25, 1)
    for _ in range(10):
        oracle.query((0, 2))
        oracle.query((2, 0))
    # slots (0, 1), (0, 2), (1, 2): both orders charge the one pair
    assert answer_counts(oracle, EdgeOracle(3, [(2, 0)], 0.25, 1)) == [0, 20, 0]
    assert oracle.ledger.total_queries == 20
    # identical streams queried in either vertex order give identical answers
    a = EdgeOracle(3, [(2, 0)], 0.25, seed_sequence(4, "sym"))
    b = EdgeOracle(3, [(2, 0)], 0.25, seed_sequence(4, "sym"))
    assert [a.query((0, 2)) for _ in range(200)] == [b.query((2, 0)) for _ in range(200)]


def test_edge_oracle_validation():
    oracle = EdgeOracle(3, [(0, 1)], 0.2, 0)
    with pytest.raises(ValueError):
        oracle.query((1, 1))
    with pytest.raises(IndexError):
        oracle.query((0, 3))
    with pytest.raises(ValueError):
        EdgeOracle(0, [], 0.2, 0)
    with pytest.raises(ValueError):
        EdgeOracle(3, [(0, 0)], 0.2, 0)
    # a bool vertex is refused beside an int as it is beside a bool, though
    # the array of such a list reads it as the int it equals
    for pairs in ([(0, True)], [(True, False)], [(2, 0), (np.bool_(True), 2)]):
        with pytest.raises(ValueError, match="got bool vertices"):
            EdgeOracle(3, pairs, 0.2, 0)
    for key in ((0, True), (True, False), (np.bool_(False), 2)):
        with pytest.raises(ValueError, match="got bool vertices"):
            oracle.query(key)
    assert oracle.ledger.total_queries == 0


def per_edge_bits(n, edges):
    """Reference construction: each pair checked and normalised in turn,
    as query checks it; slots numbered as combinations lists the pairs."""
    slot = {pair: s for s, pair in enumerate(combinations(range(n), 2))}
    bits = [0] * len(slot)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid query")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"vertex pair ({u}, {v}) out of range [0, {n})")
        bits[slot[min(u, v), max(u, v)]] = 1
    return bits


@hypothesis.given(st.integers(1, 30), st.data())
def test_edge_oracle_matches_per_edge_construction(n, data):
    # reversed and duplicated pairs, and perhaps one pair anywhere that is
    # a self-loop or out of range
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
    outside = st.sampled_from([-2, -1, n, n + 1])
    odd = data.draw(st.none() | vertex.map(lambda v: (v, v)) | st.tuples(vertex, outside) | st.tuples(outside, vertex))
    if odd is not None:
        edges.insert(data.draw(st.integers(0, len(edges))), odd)
    try:
        bits = per_edge_bits(n, edges)
    except (ValueError, IndexError) as expected:
        with pytest.raises(type(expected)) as raised:
            EdgeOracle(n, edges, 0.2, 0)
        assert str(raised.value) == str(expected)
        return
    oracle = EdgeOracle(n, edges, 0.2, 0)
    assert oracle._bits.tolist() == bits
    assert oracle.edges == frozenset((min(u, v), max(u, v)) for u, v in edges)
    us, vs = oracle._pairs(np.arange(len(bits)))
    assert list(zip(us.tolist(), vs.tolist())) == list(combinations(range(n), 2))


def test_edge_oracle_rejects_the_first_bad_pair():
    # each error names the offending pair as given
    with pytest.raises(ValueError, match=r"self-loop \(2, 2\)"):
        EdgeOracle(3, [(0, 1), (2, 2), (0, 5)], 0.2, 0)
    with pytest.raises(IndexError, match=r"vertex pair \(5, 0\) out of range"):
        EdgeOracle(3, [(1, 0), (5, 0), (2, 2)], 0.2, 0)
    with pytest.raises(IndexError, match=r"vertex pair \(1, -1\)"):
        EdgeOracle(3, frozenset({(1, -1)}), 0.2, 0)
    with pytest.raises(ValueError, match="vertex pairs"):
        EdgeOracle(3, [(0, 1, 2)], 0.2, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: EdgeOracle(3, [(0, 1.5)], 0.2, 0),
        lambda: EdgeOracle(3, [("1", "2")], 0.2, 0),
        lambda: EdgeOracle(3.5, [(0, 1)], 0.2, 0),
        lambda: EdgeOracle(True, [], 0.2, 0),
        lambda: EdgeOracle(3, [(0, 1)], 0.2, 0).query((0, 1.7)),
    ],
    ids=["float vertex", "str vertices", "float n", "bool n", "float query"],
)
def test_edge_oracle_refuses_vertices_that_are_not_integers(build):
    # no vertex, or vertex count, is truncated to an integer
    with pytest.raises(ValueError, match="integer"):
        build()


def test_edge_oracle_accepts_numpy_integers():
    oracle = EdgeOracle(np.int64(4), np.array([[2, 0]], dtype=np.uint8), 0.2, seed_sequence(6, "np"))
    twin = EdgeOracle(4, [(0, 2)], 0.2, seed_sequence(6, "np"))
    assert oracle.n == 4 and oracle.edges == twin.edges == {(0, 2)}
    assert [oracle.query((np.int64(2), 0)) for _ in range(20)] == [twin.query((0, 2)) for _ in range(20)]


def test_complement_view_flips_channel():
    base = BitOracle([1, 0], 0.2, seed_sequence(8, "comp"))
    view = ComplementBitOracle(base)
    assert view.n == 2
    assert view.noise == base.noise
    mirror = BitOracle([1, 0], 0.2, seed_sequence(8, "comp"))
    for i in (0, 1, 0, 1, 1, 0):
        assert view.query(i) == 1 ^ mirror.query(i)
    assert view.ledger.total_queries == 6


class Flipped:
    """Proxy that flips another oracle's answers; not itself an oracle."""

    def __init__(self, inner):
        self.inner = inner

    def query(self, i):
        return 1 ^ self.inner.query(i)


def test_complement_view_needs_a_bit_oracle():
    with pytest.raises(TypeError, match="needs a BitOracle, got EdgeOracle"):
        ComplementBitOracle(EdgeOracle(3, [(0, 1)], 0.2, 0))
    with pytest.raises(TypeError, match="needs a BitOracle, got Flipped"):
        ComplementBitOracle(Flipped(BitOracle([1, 0], 0.2, 0)))


def test_complement_view_shares_the_inner_answer_stream():
    # the view's answers continue the inner oracle's answer counts, so
    # queries to either and walks on the view, in any interleaving, read
    # one stream: the inner's answers as a mirror oracle gives them, and
    # the view's answers flipped
    hidden = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1]
    inner = BitOracle(hidden, 0.3, seed_sequence(14, "comp-stream"))
    view = ComplementBitOracle(inner)
    mirror = BitOracle(hidden, 0.3, seed_sequence(14, "comp-stream"))
    assert view._counters is inner._counters and view.ledger is inner.ledger
    rng = derive_rng(14, "comp-order")
    for _ in range(300):
        i = int(rng.integers(0, len(hidden)))
        move = int(rng.integers(0, 3))
        if move == 0:
            assert inner.query(i) == mirror.query(i)
        elif move == 1:
            assert view.query(i) == 1 ^ mirror.query(i)
        else:
            # one to all twelve keys, each call through the round loop
            keys = rng.permutation(len(hidden))[: int(rng.integers(1, len(hidden) + 1))]
            decided, steps = walks(view, keys, 2, 3)
            reference = [query_walk(Flipped(mirror), key, 2, 3) for key in keys.tolist()]
            assert list(zip(decided.tolist(), steps.tolist())) == reference
    assert inner.ledger == mirror.ledger
    assert inner._counters.tolist() == mirror._counters.tolist()


def test_complement_view_one_rate():
    # hidden bit 0 behind the complement behaves like a hidden 1
    view = ComplementBitOracle(BitOracle([0], 0.3, derive_rng(12, "comp-rate")))
    calls = 10**5
    ones = sum(view.query(0) for _ in range(calls))
    assert abs(ones / calls - 0.7) < 0.005


def test_answers_follow_the_documented_counter_mapping():
    # answer j (from 1) about slot s is flipped iff
    # mix(base(s) + j * GAMMA) < p * 2^64, base(s) = mix(key0 + (s + 1) * GAMMA) ^ key1,
    # whatever order the slots are queried in
    p, hidden = 0.3, [0, 1, 0]
    oracle = BitOracle(hidden, p, seed_sequence(6, "mapping"))
    key0, key1 = stream_key(seed_sequence(6, "mapping"))
    mask = (1 << 64) - 1
    answered = [0, 0, 0]
    for slot in (2, 0, 2, 1, 1, 2, 0) * 20:
        answered[slot] += 1
        base = mix((key0 + (slot + 1) * GAMMA) & mask) ^ key1
        flipped = mix((base + answered[slot] * GAMMA) & mask) < int(p * 2**64)
        assert oracle.query(slot) == hidden[slot] ^ flipped


@pytest.mark.parametrize("kind", ["bits", "edges"])
@hypothesis.given(
    size=st.integers(1, 30),
    seed=st.integers(0, 2**32),
    moves=st.lists(
        st.tuples(
            st.sampled_from(["query", "walk", "block walk", "view query", "view walk"]),
            st.integers(0, 2**16),
            st.integers(1, 6),
            st.integers(1, 6),
        ),
        max_size=25,
    ),
)
def test_answer_counts_tally_every_path_to_the_counters(kind, size, seed, moves):
    # the counters are the one per-slot record of answers: after any mix
    # of single queries, walks, walks of a stacked block that is then
    # unstacked, and queries and walks through a complement view, each
    # slot's counter advance is the hand tally of its answers, and the
    # advances sum to the ledger's total. ``pick`` chooses a move's slot,
    # pair order or key count.
    rng = derive_rng(seed, "tally-instance")
    noise = seed_sequence(seed, "tally")
    if kind == "bits":
        hidden = rng.integers(0, 2, size=size)
        oracle, fresh = (BitOracle(hidden, 0.3, noise) for _ in range(2))
        view = ComplementBitOracle(oracle)
    else:
        n = 2 + size % 7
        pairs = list(combinations(range(n), 2))
        edges = [pair for pair in pairs if rng.random() < 0.5]
        oracle, fresh = (EdgeOracle(n, edges, 0.3, noise) for _ in range(2))
        # an EdgeOracle has no complement view: its view moves use it directly
        view = oracle
        size = len(pairs)
    tally = [0] * size
    for step, (move, pick, a, b) in enumerate(moves):
        if move.endswith("query"):
            slot = pick // 2 % size
            # query() takes a vertex pair in either order
            key = slot if kind == "bits" else pairs[slot][:: 1 if pick % 2 else -1]
            (view if move == "view query" else oracle).query(key)
            tally[slot] += 1
        else:
            # one key to every slot, each call through the round loop
            keys = derive_rng(seed, "tally-keys", step).permutation(size)[: 1 + pick % size].tolist()
            if move == "block walk":
                # the block of the oracle or, on odd steps, of its view
                walked = [view if step % 2 else oracle]
                block = stack(walked)
                _, steps = walks(block, keys, a, b)
                assert unstack(block, walked).tolist() == [int(steps.sum())]
            else:
                _, steps = walks(view if move == "view walk" else oracle, keys, a, b)
            for key, taken in zip(keys, steps.tolist()):
                tally[key] += taken
        counts = answer_counts(oracle, fresh)
        assert counts == tally, (step, move)
        assert sum(counts) == oracle.ledger.total_queries, (step, move)
