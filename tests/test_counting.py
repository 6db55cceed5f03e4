import dataclasses
import hashlib
import heapq
import itertools
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
    NoiseModel,
    WalkPolicy,
    asymmetric_check_bit,
    counting_one_sided,
    counting_two_sided,
    derive_rng,
    reports_to_csv,
    run_experiment,
    run_trial,
    seed_sequence,
    theory_bound,
    threshold_count,
)
from noisyquery import counting as counting_module
from noisyquery.counting import counting_levels, threshold_barriers
from noisyquery.harness import error_bound
from noisyquery.walks import block_width, walk_each

from conftest import answer_counts, exact_threshold_error, query_walk, small_rounds


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
    start = oracle.ledger.total_queries
    count = 0
    stop_at, retire_at = counting_levels(oracle.noise, n, count, delta)
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
            stop_at = counting_levels(oracle.noise, n, count, delta)[0]
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


@pytest.mark.parametrize("ones", [0, 148, 149, 150, 200])
def test_complement_exact_under_vanishing_noise(ones):
    # 2k > n + 1: the scan runs on the complement, and a value below k
    # means "fewer than k", so it is k - 1 whatever the count
    n, p, delta, k = 200, 0.01, 0.01, 150
    for trial in range(100):
        hidden = hidden_with_ones(n, ones, derive_rng(101, "exact-inst", ones, trial))
        oracle = BitOracle(hidden, p, seed_sequence(101, "exact-th", ones, trial))
        result = threshold_count(oracle, k, delta)
        assert result.value == (k if ones >= k else k - 1)
        assert result.queries == oracle.ledger.total_queries


def test_threshold_validation():
    oracle = BitOracle([0] * 10, 0.25, 0)
    with pytest.raises(ValueError):
        threshold_count(oracle, 0, 0.1)
    with pytest.raises(ValueError):
        threshold_count(oracle, 11, 0.1)
    with pytest.raises(ValueError):
        threshold_count(oracle, 3, 0.0)
    # bool is an int subclass, but k=True is a slip, not a threshold
    with pytest.raises(ValueError):
        threshold_count(BitOracle([1, 0, 1], 0.1, 3), True, 0.1)
    with pytest.raises(ValueError):
        counting_one_sided(oracle, 1.0)


def test_threshold_never_exceeds_k_and_early_exits():
    n, k = 120, 3
    oracle = BitOracle([1] * n, 0.05, seed_sequence(3, "early"))
    result = threshold_count(oracle, k, 0.05)
    assert result.value == k
    # the scan confirmed k ones without touching the tail of the array
    counts = answer_counts(oracle, BitOracle([1] * n, 0.05, seed_sequence(3, "early")))
    assert any(counts[:20]) and not any(counts[20:])
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


def test_barrier_functions_hand_values():
    # r = 3 at p = 0.25: log(2k/delta)/log 3 and log(2n/delta)/log 3
    # give 9.01 and 13.2 for criterion 3, 7.005 and 11.1 for k=990's
    # complement scan (k' = n - k + 1 = 11)
    assert threshold_barriers(NoiseModel(0.25), 10**4, 100, 0.01) == (10, 14)
    assert threshold_barriers(NoiseModel(0.25), 1000, 11, 0.01) == (8, 12)
    # r = 4 at p = 0.2: log(6(c+1)/delta)/log 4 is 3.45 at c=0 and 5.18 at
    # c=10; log(6n/delta)/log 4 is 8.94
    assert counting_levels(NoiseModel(0.2), 2000, 0, 0.05) == (4, 9)
    assert counting_levels(NoiseModel(0.2), 2000, 10, 0.05) == (6, 9)


def test_threshold_query_decomposition_replay():
    # rerunning the per-index checks by hand on an identically seeded
    # oracle must reproduce the scan: same verdicts, same per-index costs
    n, k, p, delta = 80, 6, 0.2, 0.05
    hidden = hidden_with_ones(n, 10, derive_rng(9, "replay-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(9, "replay"))
    result = threshold_count(oracle, k, delta)

    replay = BitOracle(hidden, p, seed_sequence(9, "replay"))
    policy = WalkPolicy(*threshold_barriers(replay.noise, n, k, delta))
    count = 0
    for i in range(n):
        count += asymmetric_check_bit(replay, i, delta, delta, policy=policy).decided_bit
        if count >= k:
            break
    assert result.value == (k if count >= k else count)
    assert oracle._counters.tolist() == replay._counters.tolist()
    assert oracle.ledger.total_queries == replay.ledger.total_queries == result.queries


def test_counting_retirement_from_query_log():
    # replay every index's answers through query() on an identically
    # seeded oracle: once a walk reaches the retire barrier the index must
    # never be queried again, and the returned count must equal the number
    # of retired indices
    n, p, delta = 60, 0.2, 0.1
    hidden = hidden_with_ones(n, 12, derive_rng(11, "retire-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(11, "retire"))
    result = counting_one_sided(oracle, delta)

    replay = BitOracle(hidden, p, seed_sequence(11, "retire"))
    retire_at = counting_levels(replay.noise, n, 0, delta)[1]
    retired = 0
    for i, answers in enumerate(answer_counts(oracle, replay)):
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
    wrapped = counting_two_sided(oracle_b, delta, derive_rng(25, "zf-algo"))
    assert wrapped.value == direct.value == 0
    # presample cost rides on top of the one-sided run
    assert wrapped.queries > direct.queries * 0.5


def test_two_sided_asymptotic_presample_smoke():
    n, p, delta = 40, 0.1, 0.1
    hidden = hidden_with_ones(n, 35, derive_rng(27, "pf-inst"))
    oracle = BitOracle(hidden, p, seed_sequence(27, "pf"))
    result = counting_two_sided(oracle, delta, derive_rng(27, "pf-algo"), asymptotic_presample=True)
    assert result.value == 35


@pytest.mark.parametrize("n, seed", [(12, 0), (16, 1), (20, 2)])
@pytest.mark.parametrize("share", [0.25, 0.75])
def test_two_sided_checks_an_index_drawn_r_times_r_times(n, seed, share):
    # the asymptotic presample draws about n indices of n, so some index
    # is drawn three or more times; the reference walks one query_walk per
    # draw, in draw order, then counts as counting_two_sided does
    delta, p = 0.1, 0.2
    hidden = hidden_with_ones(n, round(share * n), derive_rng(seed, "twice-inst"))
    oracle, twin, fresh = (BitOracle(hidden, p, seed_sequence(seed, "twice")) for _ in range(3))
    result = counting_two_sided(oracle, delta, derive_rng(seed, "twice-algo"), asymptotic_presample=True)

    positions = derive_rng(seed, "twice-algo").integers(0, n, size=math.ceil(n**0.99)).tolist()
    assert max(Counter(positions).values()) >= 3
    error = math.exp(-100 * math.log(n))
    policy = WalkPolicy.for_error_bounds(twin.noise, error, error)
    ones_seen = sum(query_walk(twin, i, policy.down_threshold_a, policy.up_threshold_b)[0] for i in positions)
    if 2 * ones_seen <= len(positions):
        value = counting_one_sided(twin, delta).value
    else:
        value = n - counting_one_sided(ComplementBitOracle(twin), delta).value
    assert result == CountResult(value, twin.ledger.total_queries)
    assert answer_counts(oracle, fresh) == answer_counts(twin, fresh)
    assert oracle.ledger == twin.ledger


def test_two_sided_validation():
    oracle = BitOracle([0, 1], 0.2, 0)
    rng = derive_rng(0, "v")
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
    # the stop-level extensions must be the heap schedule answer for
    # answer: same count, same per-index costs, and the stream left at
    # the same place
    for case in range(150):
        hidden, p, delta, warmup, probes = _random_counting_case(case)
        oracles = [BitOracle(hidden, p, seed_sequence(31, "sweep", case)) for _ in range(2)]
        views = [ComplementBitOracle(o) if complement else o for o in oracles]
        for view in views:
            for i in warmup:
                view.query(i)
        swept = counting_one_sided(views[0], delta)
        reference = heap_counting(views[1], delta)
        assert swept == reference, case
        assert oracles[0].ledger == oracles[1].ledger, case
        assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist(), case
        assert [views[0].query(i) for i in probes] == [views[1].query(i) for i in probes], case


@pytest.mark.parametrize("complement", [False, True])
def test_query_path_sweep_matches_heap_order(complement):
    # the heap reference reads its answers one query() at a time, in heap
    # order; answers depend only on (index, answer number), so the
    # extensions' lockstep walks read the same answers: same count, and
    # per index as many answers as the heap's query log holds
    for case in range(40):
        hidden, p, delta, _, _ = _random_counting_case(case)
        swept = BitOracle(hidden, p, seed_sequence(37, "sweep-q", case))
        heap = BitOracle(hidden, p, seed_sequence(37, "sweep-q", case))
        proxy = RecordingOracle(ComplementBitOracle(heap) if complement else heap)
        result = counting_one_sided(ComplementBitOracle(swept) if complement else swept, delta)
        assert result == heap_counting(proxy, delta), case
        tally = Counter(i for i, _ in proxy.log)
        fresh = BitOracle(hidden, p, seed_sequence(37, "sweep-q", case))
        assert answer_counts(swept, fresh) == [tally[i] for i in range(len(hidden))], case


@hypothesis.given(
    hidden=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    p=st.floats(0.02, 0.45),
    delta=st.floats(0.005, 0.6),
    seed=st.integers(0, 2**32),
    complement=st.booleans(),
    warmup=st.lists(st.integers(0, 59), max_size=100),
)
def test_sweep_matches_heap_reference_property(hidden, p, delta, seed, complement, warmup):
    oracles = [BitOracle(hidden, p, seed_sequence(seed, "heap")) for _ in range(2)]
    views = [ComplementBitOracle(o) if complement else o for o in oracles]
    for view in views:
        for i in warmup:
            view.query(i % len(hidden))
    assert counting_one_sided(views[0], delta) == heap_counting(views[1], delta)
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


def record_walk_calls(monkeypatch):
    """Wrap the kernel as counting calls it on one oracle; returns the (a, b) of each call."""
    calls = []

    def recording(oracles, keys, a, b):
        assert len(oracles) == len(keys) == len(a) == len(b) == 1
        calls.append((a[0], b[0]))
        return walk_each(oracles, keys, a, b)

    monkeypatch.setattr(counting_module, "walk_each", recording)
    return calls


def stop_levels(calls):
    # call i runs from -reached to -floor, with b = retire_at + reached and
    # reached = 0 on the first call
    return [a + b - calls[0][1] for a, b in calls]


def test_counting_walks_once_per_stop_level(monkeypatch):
    # criterion 4's ones=10 spec: stop_at(0) = 4; the first walk retires
    # the ones, which lifts stop_at to 6; the second retires nobody more
    calls = record_walk_calls(monkeypatch)
    spec = ExperimentSpec("counting", n=2000, p=0.2, delta=0.05, ones=10, trials=20, seed=20240817)
    for trial in range(spec.trials):
        calls.clear()
        assert run_trial(spec, trial)[0], trial
        assert stop_levels(calls) == [4, 6], trial


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("n", [400, 2000])
def test_sweep_matches_heap_reference_at_scale(monkeypatch, n, complement):
    # the random cases above stay under 60 indices; here the count, and
    # with it the heap's stop level, moves more than once inside one
    # extension. A run makes at most one kernel call per stop level its
    # count passes through.
    calls = record_walk_calls(monkeypatch)
    moved = 0
    grid = itertools.product((0, n // 100, n // 2, n - 1), (0.1, 0.3), (0.05, 1e-6))
    for i, (ones, p, delta) in enumerate(grid):
        case = (ones, p, delta)
        hidden = hidden_with_ones(n, ones, derive_rng(41, "scale-inst", n, ones))
        oracles = [BitOracle(hidden, p, seed_sequence(41, "scale", n, i)) for _ in range(2)]
        views = [ComplementBitOracle(o) if complement else o for o in oracles]
        calls.clear()
        result = counting_one_sided(views[0], delta)
        assert result == heap_counting(views[1], delta), case
        assert oracles[0].ledger == oracles[1].ledger, case
        assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist(), case
        levels = {counting_levels(views[0].noise, n, c, delta)[0] for c in range(result.value + 1)}
        assert len(calls) <= len(levels), case
        moved += len(levels) > 2
    assert moved


@hypothesis.example(n=2000, density=0.01, k_share=0.01, p=0.25, delta=0.01, seed=1, warmup=[1999])
@hypothesis.example(n=1000, density=0.99, k_share=0.99, p=0.25, delta=0.01, seed=2, warmup=[999])
@hypothesis.example(n=1000, density=0.5, k_share=0.99, p=0.25, delta=0.01, seed=3, warmup=[])
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
    # stops at the target-th one: same answer, same answers read per
    # index. For 2k > n + 1 the scan reads the complement's answers and
    # stops at the (n - k + 1)-th zero.
    hidden = (derive_rng(seed, "th-bits").random(n) < density).astype(int)
    k = max(1, math.ceil(k_share * n))
    oracles = [BitOracle(hidden, p, seed_sequence(seed, "th")) for _ in range(2)]
    for oracle in oracles:
        for i in warmup:
            oracle.query(i % n)
    result = threshold_count(oracles[0], k, delta)
    complement = 2 * k > n + 1
    target = n - k + 1 if complement else k
    view = ComplementBitOracle(oracles[1]) if complement else oracles[1]
    a, b = threshold_barriers(view.noise, n, target, delta)
    count = 0
    for i in range(n):
        count += query_walk(view, i, a, b)[0]
        if count >= target:
            break
    if complement:
        assert result.value == (k if count < target else k - 1)
    else:
        assert result.value == count
    assert result.queries == oracles[0].ledger.total_queries - len(warmup)
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


@hypothesis.given(
    n=st.integers(1, 600),
    density=st.floats(0.0, 1.0),
    k_share=st.floats(0.0, 1.0),
    p=st.floats(0.02, 0.4),
    delta=st.floats(0.001, 0.5),
    capacity=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_threshold_scan_at_a_small_capacity(n, density, k_share, p, delta, capacity, seed):
    # a few walks at a time make the scan follow many rounds, most of
    # them with walks starting and ending; the answer, ledger and
    # counters match the scan at the default capacity
    hidden = (derive_rng(seed, "cap-bits").random(n) < density).astype(int)
    k = max(1, math.ceil(k_share * n))
    oracles = [BitOracle(hidden, p, seed_sequence(seed, "cap")) for _ in range(2)]
    target = n - k + 1 if 2 * k > n + 1 else k
    width = block_width(p, *threshold_barriers(oracles[0].noise, n, target, delta))
    with small_rounds(capacity * width):
        small = threshold_count(oracles[0], k, delta)
    assert small == threshold_count(oracles[1], k, delta)
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


def test_threshold_exact_error_within_delta():
    # the exact error of both threshold branches on the hard pair (k - 1
    # or k ones), n up to 1e6 and delta down to 1e-16; k = ceil(n/2) is an
    # O(n) convolution, so it stops at n = 1e4
    for n, p, delta in itertools.product((50, 400, 10**4, 10**6), (0.01, 0.1, 0.25, 0.45), (0.2, 0.05, 1e-4, 1e-16)):
        ks = (1, 2, math.ceil(n / 2), n - 1, n) if n <= 10**4 else (1, 2, n - 1, n)
        for k in ks:
            for ones in (k - 1, k):
                error = exact_threshold_error(n, k, p, delta, ones)
                assert 0.0 < error <= delta, (n, k, p, delta, ones, error)


def test_threshold_exact_error_at_criterion_3():
    # criterion 3 (n=1e4, k=100, p=0.25, delta=0.01) at barriers (10, 14):
    # at k - 1 ones the count must come out exact, at k ones reach k
    assert exact_threshold_error(10**4, 100, 0.25, 0.01, 99) == pytest.approx(0.003736, rel=1e-3)
    assert exact_threshold_error(10**4, 100, 0.25, 0.01, 100) == pytest.approx(0.001689, rel=1e-3)


@pytest.mark.parametrize("n", [50, 400])
def test_threshold_cost_law_grid(n):
    # On the hard pair (k - 1 or k ones), over k from 1 to n, errors stay
    # within the delta gate and the mean cost within Wald's bound. A walk
    # on a bit the scan reads as 0 takes a/(1-2p) steps in expectation at
    # most, on a 1 b/(1-2p): the barriers are integers and steps are +-1,
    # so it stops exactly on one, and Wald's identity gives
    # E[steps] (1-2p) = a P(-a) - b P(+b) <= a, resp. b P(+b) - a P(-a) <= b.
    # A scan walks a subset of the indices, so the sum over all of them
    # bounds its expected cost. On the complement branch the scan reads
    # the ones as 0s.
    trials = 60
    for i, (k, p, delta) in enumerate(itertools.product((1, math.ceil(n / 2), n - 1, n), (0.1, 0.3), (0.05, 1e-4))):
        case = (n, k, p, delta)
        report = run_experiment(ExperimentSpec("threshold", n=n, k=k, p=p, delta=delta, trials=trials, seed=43 + i))
        assert report.error_rate <= error_bound(delta, trials), case
        a, b = threshold_barriers(NoiseModel(p), n, min(k, n - k + 1), delta)
        read_as_one = [n - ones if 2 * k > n + 1 else ones for ones in (k - 1, k)]
        wald = max((n - r) * a + r * b for r in read_as_one) / (1 - 2 * p)
        assert report.mean_queries <= wald + 4.0 * report.stddev_queries / math.sqrt(trials), case


def test_cost_ratio_falls_as_delta_shrinks():
    # the o(1) of the laws: a zero's walk costs about barrier/(1-2p), and
    # the barrier, about log(c m/delta)/log((1-p)/p), stands against the
    # law's log(m/delta)/log((1-p)/p) (threshold: c=2, m=k; counting: c=6,
    # m=ones+1), so the ratio to theory falls toward 1 as delta shrinks.
    # The measured fall from the largest to the smallest delta must be at
    # least half of the fall that ratio predicts.
    deltas = (1e-2, 1e-4, 1e-8, 1e-16)
    for kind, zero_barrier, m, fields, seed in (
        ("threshold", lambda noise, d: threshold_barriers(noise, 2000, 20, d)[0], 20, dict(k=20, p=0.25), 47),
        ("counting", lambda noise, d: counting_levels(noise, 2000, 10, d)[0], 11, dict(ones=10, p=0.2), 53),
    ):
        noise = NoiseModel(fields["p"])
        predicted = [zero_barrier(noise, d) * noise.log_ratio / math.log(m / d) for d in deltas]
        ratios = [
            run_experiment(ExperimentSpec(kind, n=2000, delta=d, trials=20, seed=seed, **fields)).ratio for d in deltas
        ]
        assert ratios[0] - ratios[-1] >= (predicted[0] - predicted[-1]) / 2, (kind, ratios, predicted)


# sha256 of reports_to_csv for the benchmark's counting and threshold
# specs at seeds 0-2, recorded when answers became counter-based (oracle
# answers and stream derivation both changed then); a refactor that keeps
# every realisation keeps these. The threshold-k990 digests were
# re-recorded when threshold_count began scanning the complement for
# 2k > n + 1.
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
    (0, "threshold-k990"): "136a4151851fbc857fcd2c1b4b1b028c669adb28d4c2549a311a3afa213c3ecd",
    (1, "threshold-k990"): "68b41e60d0cd69728c6f78b06fe072e46bd9d1cd48f4bc236cc27073797096b9",
    (2, "threshold-k990"): "d8a1592e56d1fb9039139a42566d923850db7601a9257cdef2115a2d4dcc5bd4",
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
