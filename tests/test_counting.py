import dataclasses
import hashlib
import heapq
import math
from collections import Counter

import hypothesis
from hypothesis import strategies as st
import pytest

from noisyquery import (
    BitOracle,
    ComplementBitOracle,
    CountResult,
    ExperimentSpec,
    WalkPolicy,
    asymmetric_check_bit,
    counting_one_sided,
    counting_two_sided,
    derive_rng,
    reports_to_csv,
    run_experiment,
    seed_sequence,
    snapped_ceil,
    theory_bound,
    threshold_count,
)

from conftest import query_walk


class RecordingOracle:
    """Pass-through proxy that logs (index, answer) pairs in query order."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def n(self):
        return self.inner.n

    @property
    def noise(self):
        return self.inner.noise

    @property
    def ledger(self):
        return self.inner.ledger

    def query(self, i):
        answer = self.inner.query(i)
        self.log.append((i, answer))
        return answer


def heap_counting(oracle, delta):
    """Scalar reference for counting_one_sided: one query() per heap step.

    Always advances the highest walk, lowest index on ties; an index
    retires at ``retire_at`` and the run stops once the highest walk is
    at or below -stop_at(count).
    """
    n = oracle.n
    log_ratio = oracle.noise.log_ratio
    retire_at = snapped_ceil(math.log(6.0 * n / delta) / log_ratio)
    start = oracle.ledger.total_queries
    count = 0
    stop_at = snapped_ceil(math.log(6.0 * (count + 1) / delta) / log_ratio)
    walk = [0] * n
    heap = [(0, i) for i in range(n)]
    while heap:
        neg_c, i = heap[0]
        if -neg_c <= -stop_at:
            break
        heapq.heappop(heap)
        c = walk[i] + (1 if oracle.query(i) else -1)
        walk[i] = c
        if c >= retire_at:
            count += 1
            stop_at = snapped_ceil(math.log(6.0 * (count + 1) / delta) / log_ratio)
        else:
            heapq.heappush(heap, (-c, i))
    return CountResult(count, oracle.ledger.total_queries - start)


def hidden_with_ones(n, ones, rng):
    bits = [0] * n
    for i in rng.permutation(n)[:ones].tolist():
        bits[i] = 1
    return bits


@pytest.mark.parametrize("ones", [0, 1, 7, 100, 193, 200])
def test_exact_under_vanishing_noise(ones):
    n, p, delta, k = 200, 0.01, 0.01, 50
    for trial in range(100):
        hidden = hidden_with_ones(n, ones, derive_rng(100, "exact-inst", ones, trial))
        t_oracle = BitOracle(hidden, p, seed_sequence(100, "exact-th", ones, trial))
        assert threshold_count(t_oracle, k, delta).value == min(k, ones)
        c_oracle = BitOracle(hidden, p, seed_sequence(100, "exact-ct", ones, trial))
        assert counting_one_sided(c_oracle, delta).value == ones


def test_threshold_validation():
    oracle = BitOracle([0] * 10, 0.25, 0)
    with pytest.raises(ValueError):
        threshold_count(oracle, 0, 0.1)
    with pytest.raises(ValueError):
        threshold_count(oracle, 11, 0.1)
    with pytest.raises(ValueError):
        threshold_count(oracle, 3, 0.0)
    with pytest.raises(ValueError):
        counting_one_sided(oracle, 1.0)


def test_threshold_never_exceeds_k_and_early_exits():
    n, k = 120, 3
    oracle = BitOracle([1] * n, 0.05, seed_sequence(3, "early"), track_per_index=True)
    result = threshold_count(oracle, k, 0.05)
    assert result.value == k
    # the scan confirmed k ones without touching the tail of the array
    assert max(oracle.ledger.per_index) < 20
    assert result.queries == oracle.ledger.total_queries


def test_threshold_all_zeros_example():
    n, k, p, delta = 300, 1, 0.3, 0.1
    trials = 300
    hits = 0
    for t in range(trials):
        oracle = BitOracle([0] * n, p, seed_sequence(5, "zeros", t))
        hits += threshold_count(oracle, k, delta).value == 0
    assert hits / trials >= 0.9 - 3.0 * math.sqrt(delta * (1 - delta) / trials)


@pytest.mark.parametrize("ones,k,expected", [(5, 3, 3), (2, 5, 2)])
def test_threshold_clips_at_k(ones, k, expected):
    n, p, delta = 300, 0.25, 0.05
    trials = 300
    hits = 0
    for t in range(trials):
        hidden = hidden_with_ones(n, ones, derive_rng(7, "clip-inst", k, t))
        oracle = BitOracle(hidden, p, seed_sequence(7, "clip", k, t))
        hits += threshold_count(oracle, k, delta).value == expected
    assert hits / trials >= 0.95 - 3.0 * math.sqrt(delta * (1 - delta) / trials)


def test_threshold_query_decomposition_replay():
    # rerunning the per-index checks by hand on an identically seeded
    # oracle must reproduce the scan: same verdicts, same per-index costs
    n, k, p, delta = 80, 6, 0.2, 0.05
    hidden = hidden_with_ones(n, 10, derive_rng(9, "replay-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(9, "replay"), track_per_index=True)
    result = threshold_count(oracle, k, delta)

    replay = BitOracle(hidden, p, seed_sequence(9, "replay"), track_per_index=True)
    policy = WalkPolicy.for_error_bounds(replay.noise, delta / (2 * n), delta / (2 * k))
    count = 0
    for i in range(n):
        count += asymmetric_check_bit(replay, i, delta / (2 * n), delta / (2 * k), policy=policy).decided_bit
        if count >= k:
            break
    assert result.value == (k if count >= k else count)
    assert oracle.ledger.per_index == replay.ledger.per_index
    assert oracle.ledger.total_queries == replay.ledger.total_queries == result.queries


def test_counting_retirement_from_query_log():
    # replay every index's answers through query() on an identically
    # seeded oracle: once a walk reaches the retire barrier the index must
    # never be queried again, and the returned count must equal the number
    # of retired indices
    n, p, delta = 60, 0.2, 0.1
    hidden = hidden_with_ones(n, 12, derive_rng(11, "retire-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(11, "retire"), track_per_index=True)
    result = counting_one_sided(oracle, delta)

    replay = BitOracle(hidden, p, seed_sequence(11, "retire"))
    retire_at = snapped_ceil(math.log(6.0 * n / delta) / replay.noise.log_ratio)
    retired = 0
    for i, answers in oracle.ledger.per_index.items():
        walk = 0
        for _ in range(answers):
            assert walk < retire_at, f"index {i} queried after retiring"
            walk += 1 if replay.query(i) else -1
        retired += walk >= retire_at
    assert result.value == retired
    assert result.queries == replay.ledger.total_queries


def test_counting_empty_active_returns_n():
    n = 25
    oracle = BitOracle([1] * n, 0.02, seed_sequence(13, "all-ones"))
    assert counting_one_sided(oracle, 0.2).value == n


def test_counting_all_zeros_cost_factor():
    n, p, delta = 500, 0.25, 0.1
    trials = 300
    hits = 0
    queries = 0
    for t in range(trials):
        oracle = BitOracle([0] * n, p, seed_sequence(15, "czeros", t))
        result = counting_one_sided(oracle, delta)
        hits += result.value == 0
        queries += result.queries
    assert hits / trials >= 0.9 - 3.0 * math.sqrt(delta * (1 - delta) / trials)
    reference = theory_bound("counting", n=n, k=0, delta=delta, p=p)
    assert queries / trials <= 2.0 * reference
    assert queries / trials >= 0.5 * reference


def test_counting_single_bit_instance():
    p, delta = 0.1, 0.2
    trials = 1000
    hits = 0
    for t in range(trials):
        oracle = BitOracle([1], p, seed_sequence(17, "one", t))
        hits += counting_one_sided(oracle, delta).value == 1
    assert hits / trials >= 0.8 - 3.0 * math.sqrt(delta * (1 - delta) / trials)


def test_counting_moderate_instance():
    n, ones, p, delta = 400, 10, 0.2, 0.05
    trials = 200
    hits = 0
    for t in range(trials):
        hidden = hidden_with_ones(n, ones, derive_rng(19, "mod-inst", t))
        oracle = BitOracle(hidden, p, seed_sequence(19, "mod", t))
        hits += counting_one_sided(oracle, delta).value == ones
    assert hits / trials >= 0.95 - 3.0 * math.sqrt(delta * (1 - delta) / trials)


def test_two_sided_exact_both_orientations():
    n, p, delta = 120, 0.02, 0.02
    for ones in (3, n - 3):
        for trial in range(30):
            hidden = hidden_with_ones(n, ones, derive_rng(21, "ts-inst", ones, trial))
            oracle = BitOracle(hidden, p, seed_sequence(21, "ts", ones, trial))
            algo_rng = derive_rng(21, "ts-algo", ones, trial)
            result = counting_two_sided(oracle, delta, algo_rng)
            assert result.value == ones
            assert result.queries == oracle.ledger.total_queries


def test_two_sided_flip_path_identity():
    # the flip branch is literally n minus the one-sided count on the
    # complemented channel
    n, ones, p, delta = 90, 85, 0.02, 0.02
    hidden = hidden_with_ones(n, ones, derive_rng(23, "flip-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(23, "flip"))
    flipped = counting_one_sided(ComplementBitOracle(oracle), delta)
    assert n - flipped.value == ones


def test_two_sided_zero_ones_matches_one_sided_up_to_presample():
    n, p, delta = 150, 0.15, 0.05
    oracle_a = BitOracle([0] * n, p, seed_sequence(25, "zf"))
    direct = counting_one_sided(oracle_a, delta)
    oracle_b = BitOracle([0] * n, p, seed_sequence(25, "zf2"))
    wrapped = counting_two_sided(oracle_b, delta, derive_rng(25, "zf-algo"), presample_size=12)
    assert wrapped.value == direct.value == 0
    # presample cost rides on top of the one-sided run
    assert wrapped.queries > direct.queries * 0.5


def test_two_sided_asymptotic_presample_smoke():
    n, p, delta = 40, 0.1, 0.1
    hidden = hidden_with_ones(n, 35, derive_rng(27, "pf-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(27, "pf"))
    result = counting_two_sided(oracle, delta, derive_rng(27, "pf-algo"), asymptotic_presample=True)
    assert result.value == 35


def test_two_sided_validation():
    oracle = BitOracle([0, 1], 0.2, 0)
    rng = derive_rng(0, "v")
    with pytest.raises(ValueError):
        counting_two_sided(oracle, 0.1, rng, presample_size=0)
    with pytest.raises(ValueError):
        counting_two_sided(oracle, 0.1, rng, presample_error=1.0)
    with pytest.raises(ValueError):
        counting_two_sided(oracle, 0.0, rng)


def test_results_report_exact_query_deltas():
    oracle = BitOracle([1, 0, 1, 1], 0.2, seed_sequence(29, "delta"))
    warmup = oracle.query(0)
    before = oracle.ledger.total_queries
    result = counting_one_sided(oracle, 0.1)
    assert result.queries == oracle.ledger.total_queries - before


def _random_counting_case(case):
    rng = derive_rng(31, "sweep-case", case)
    n = int(rng.integers(1, 41))
    density = float(rng.random())
    hidden = (rng.random(n) < density).astype(int).tolist()
    p = float(rng.uniform(0.02, 0.45))
    delta = float(rng.uniform(0.005, 0.6))
    warmup = rng.integers(0, n, size=int(rng.integers(0, 200))).tolist()
    probes = rng.integers(0, n, size=5).tolist()
    return hidden, p, delta, warmup, probes


@pytest.mark.parametrize("complement", [False, True])
def test_sweep_matches_heap_reference(complement):
    # the level sweep must be the heap schedule answer for answer: same
    # count, same per-index costs, and the stream left at the same place
    for case in range(150):
        hidden, p, delta, warmup, probes = _random_counting_case(case)
        oracles = [
            BitOracle(hidden, p, seed_sequence(31, "sweep", case), track_per_index=True) for _ in range(2)
        ]
        views = [ComplementBitOracle(o) if complement else o for o in oracles]
        for view in views:
            for i in warmup:
                view.query(i)
        swept = counting_one_sided(views[0], delta)
        reference = heap_counting(views[1], delta)
        assert swept == reference, case
        assert oracles[0].ledger == oracles[1].ledger, case
        assert [views[0].query(i) for i in probes] == [views[1].query(i) for i in probes], case


@pytest.mark.parametrize("complement", [False, True])
def test_query_path_sweep_matches_heap_order(complement):
    # the heap reference reads its answers one query() at a time, in heap
    # order; answers depend only on (index, answer number), so the sweep's
    # lockstep walks read the same answers: same count, and per index as
    # many answers as the heap's query log holds
    for case in range(40):
        hidden, p, delta, _, _ = _random_counting_case(case)
        swept = BitOracle(hidden, p, seed_sequence(37, "sweep-q", case), track_per_index=True)
        proxy = RecordingOracle(BitOracle(hidden, p, seed_sequence(37, "sweep-q", case)))
        result = counting_one_sided(ComplementBitOracle(swept) if complement else swept, delta)
        assert result == heap_counting(ComplementBitOracle(proxy) if complement else proxy, delta), case
        assert swept.ledger.per_index == dict(Counter(i for i, _ in proxy.log)), case


@hypothesis.given(
    hidden=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    p=st.floats(0.02, 0.45),
    delta=st.floats(0.005, 0.6),
    seed=st.integers(0, 2**32),
    complement=st.booleans(),
    warmup=st.lists(st.integers(0, 59), max_size=100),
)
def test_sweep_matches_heap_reference_property(hidden, p, delta, seed, complement, warmup):
    oracles = [BitOracle(hidden, p, seed_sequence(seed, "heap"), track_per_index=True) for _ in range(2)]
    views = [ComplementBitOracle(o) if complement else o for o in oracles]
    for view in views:
        for i in warmup:
            view.query(i % len(hidden))
    assert counting_one_sided(views[0], delta) == heap_counting(views[1], delta)
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


@hypothesis.example(n=2000, density=0.01, k_share=0.01, p=0.25, delta=0.01, seed=1, warmup=[1999])
@hypothesis.given(
    n=st.integers(1, 2000),
    density=st.floats(0.0, 1.0),
    k_share=st.floats(0.0, 1.0),
    p=st.floats(0.02, 0.4),
    delta=st.floats(0.001, 0.5),
    seed=st.integers(0, 2**32),
    warmup=st.lists(st.integers(0, 1999), max_size=30),
)
def test_threshold_charges_no_index_past_the_stop(n, density, k_share, p, delta, seed, warmup):
    # against a scan that checks one index at a time through query() and
    # stops at the k-th one: same answer, same answers read per index
    hidden = (derive_rng(seed, "th-bits").random(n) < density).astype(int)
    k = max(1, math.ceil(k_share * n))
    oracles = [BitOracle(hidden, p, seed_sequence(seed, "th"), track_per_index=True) for _ in range(2)]
    for oracle in oracles:
        for i in warmup:
            oracle.query(i % n)
    result = threshold_count(oracles[0], k, delta)
    policy = WalkPolicy.for_error_bounds(oracles[1].noise, delta / (2 * n), delta / (2 * k))
    count = 0
    for i in range(n):
        count += query_walk(oracles[1], i, policy.down_threshold_a, policy.up_threshold_b)[0]
        if count >= k:
            break
    assert result.value == count
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


# sha256 of reports_to_csv for the benchmark's counting and threshold
# specs at seeds 0-2, recorded when answers became counter-based (oracle
# answers and stream derivation both changed then); a refactor that keeps
# every realisation keeps these
ROWS_GOLDEN = {
    (0, "counting"): "e9592c75a16cb03c05b6d4bf4b94ebae6db588b97846380e5aea265f9a398e5c",
    (1, "counting"): "925a0c8eb25fa725547e2fce58a8198be041d05632a613b93ba07a7d4de9fea4",
    (2, "counting"): "cf12ab8c0b23c8cffd5c8c075385d1bf36a92cbf1f87e5e4c682d11223b99662",
    (0, "counting2"): "58c6252bd815f1535b5a56c4063d37982e8abf02e2515e5bc5c93144992d8946",
    (1, "counting2"): "5292730e3e09cc80a31b7a52a61e1aa847f20a208cc52493fa245e268ea538d6",
    (2, "counting2"): "ec64aef8d1c4afd6f7b2ffc83e5cb26201282cd2dcffd0a248bb547dc0a4f072",
    (0, "threshold"): "36a6129684473b03dd73f5f17d9a6fb08c1e3ebd3108ab2c1ecce57b1b81bf7d",
    (1, "threshold"): "fd15756d1a3d69e1f729f56dc90248272509bf91eadb5739e3b6aecad124781a",
    (2, "threshold"): "37ceee2ad287f03a4754ef5a29944653f97ba1e7426703fdd215bee4ee8e2c7f",
    (0, "threshold-k990"): "0ed202657b12135fec3b18692c8afff4bc7ae3684544358d6fce02bcd5204171",
    (1, "threshold-k990"): "51c12d96ee11e521827b3d07cc7e862cf2b4db83c05243d111846d76ec04ea4e",
    (2, "threshold-k990"): "3064a121a74dd258afd3bf4ed4d249b4d79255f29032240b8adcc86127f9dc83",
}
GOLDEN_SPECS = {
    "counting": ExperimentSpec("counting", n=2000, p=0.2, delta=0.05, ones=10, trials=3),
    "counting2": ExperimentSpec("counting2", n=2000, p=0.2, delta=0.05, ones=1990, trials=4),
    "threshold": ExperimentSpec("threshold", n=10**4, k=100, p=0.25, delta=0.01, trials=4),
    "threshold-k990": ExperimentSpec("threshold", n=1000, k=990, p=0.25, delta=0.01, trials=20),
}


def rows_digest(spec, seed):
    csv = reports_to_csv([run_experiment(dataclasses.replace(spec, seed=seed))])
    return hashlib.sha256(csv.encode()).hexdigest()


@pytest.mark.parametrize("seed,kind", sorted(key for key in ROWS_GOLDEN if key[1].startswith("counting")))
def test_counting_rows_golden(seed, kind):
    assert rows_digest(GOLDEN_SPECS[kind], seed) == ROWS_GOLDEN[(seed, kind)]


@pytest.mark.parametrize("seed,name", sorted(key for key in ROWS_GOLDEN if key[1].startswith("threshold")))
def test_threshold_rows_golden(seed, name):
    assert rows_digest(GOLDEN_SPECS[name], seed) == ROWS_GOLDEN[(seed, name)]
