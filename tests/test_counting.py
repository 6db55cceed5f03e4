import hashlib
import heapq
import math

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
    # reconstruct every per-index walk from the query log: once a walk
    # reaches the retire barrier the index must never be queried again,
    # and the returned count must equal the number of retired indices
    n, p, delta = 60, 0.2, 0.1
    hidden = hidden_with_ones(n, 12, derive_rng(11, "retire-inst"))
    inner = BitOracle(hidden, p, seed_sequence(11, "retire"))
    proxy = RecordingOracle(inner)
    result = counting_one_sided(proxy, delta)

    retire_at = snapped_ceil(math.log(6.0 * n / delta) / inner.noise.log_ratio)
    walk = {}
    retired_step = {}
    for step, (i, answer) in enumerate(proxy.log):
        assert i not in retired_step, f"index {i} queried after retiring"
        walk[i] = walk.get(i, 0) + (1 if answer else -1)
        if walk[i] >= retire_at:
            retired_step[i] = step
    assert result.value == len(retired_step)
    assert result.queries == len(proxy.log)


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
    # an oracle without a uniform buffer is walked through query() in
    # the heap's order
    for case in range(40):
        hidden, p, delta, _, _ = _random_counting_case(case)
        proxies = [RecordingOracle(BitOracle(hidden, p, seed_sequence(37, "sweep-q", case))) for _ in range(2)]
        views = [ComplementBitOracle(proxy) if complement else proxy for proxy in proxies]
        assert counting_one_sided(views[0], delta) == heap_counting(views[1], delta), case
        assert proxies[0].log == proxies[1].log, case


# sha256 of reports_to_csv for the benchmark's counting specs, recorded
# from the heap scheduler before it was replaced by level sweeps
COUNTING_GOLDEN = {
    (0, "counting"): "9be9d15fadf6bd2b6b1f4f88324b6c839582466d80204290c39041e66b822ea9",
    (0, "counting2"): "3e254ff21285b1591b0810bf4dde609d03cfeb1b6fe5a58e03d15c797622e260",
    (1, "counting"): "32d0f60ae68fbdbd65319cca9d49e7439d2198239cd526748d0021e52f89cc42",
    (1, "counting2"): "12ee85a5a9addb2e94e2b4439c41a58b8baa8be1c3dc53aaebb3409fe997ac89",
    (2, "counting"): "6434f2ad6c31e417d7123c36aefc2c4ffaa114a7719db4a7e3ceeca567e94d64",
    (2, "counting2"): "f2579f8c9850544a0b4245a3579986735fb318f8494f5226162ff6ce16242262",
}


@pytest.mark.parametrize("seed,kind", sorted(COUNTING_GOLDEN))
def test_counting_rows_golden(seed, kind):
    ones = 10 if kind == "counting" else 1990
    trials = 3 if kind == "counting" else 4
    spec = ExperimentSpec(kind, n=2000, p=0.2, delta=0.05, ones=ones, trials=trials, seed=seed)
    csv = reports_to_csv([run_experiment(spec)])
    assert hashlib.sha256(csv.encode()).hexdigest() == COUNTING_GOLDEN[(seed, kind)]
