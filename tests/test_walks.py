import math
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, getcontext

import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest

from noisyquery import (
    BitOracle,
    ComplementBitOracle,
    EdgeOracle,
    NoiseModel,
    WalkOutcome,
    WalkPolicy,
    asymmetric_check_bit,
    check_bit,
    counting_one_sided,
    derive_rng,
    expected_hitting_time,
    hitting_probability,
    seed_sequence,
    simulate_first_passage,
    simulate_hitting,
    snapped_ceil,
    threshold_count,
)
from noisyquery import walks as walks_module
from noisyquery.walks import HIT_PRECISION, barrier, block_width, stack, unstack, walk_rounds, walks

from conftest import exact_check, log_up_first, query_walk, small_rounds

getcontext().prec = 60


def decimal_threshold(p: float, delta: float) -> int:
    """60-digit evaluation of ceil(log(1/delta)/log((1-p)/p)) with the
    same near-integer snap the library applies."""
    dp = Decimal(p)
    value = (1 / Decimal(delta)).ln() / ((1 - dp) / dp).ln()
    nearest = value.to_integral_value(rounding=ROUND_HALF_EVEN)
    if abs(value - nearest) <= Decimal("1e-9") * max(Decimal(1), abs(value)):
        result = int(nearest)
    else:
        result = int(value.to_integral_value(rounding=ROUND_CEILING))
    return max(result, 1)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.3, 0.4, 0.45])
@pytest.mark.parametrize("delta", [0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6])
def test_walk_policy_thresholds_match_high_precision(p, delta):
    policy = WalkPolicy.for_error_bounds(NoiseModel(p), delta, delta)
    expected = decimal_threshold(p, delta)
    assert policy.down_threshold_a == expected
    assert policy.up_threshold_b == expected


def test_walk_policy_asymmetric_assignment():
    # a is driven by delta1 (false-zero bound), b by delta0 (false-one bound)
    policy = WalkPolicy.for_error_bounds(NoiseModel(0.2), 0.01, 0.5)
    assert policy.up_threshold_b == math.ceil(math.log(100.0) / math.log(4.0)) == 4
    assert policy.down_threshold_a == 1
    with pytest.raises(ValueError):
        WalkPolicy.for_error_bounds(NoiseModel(0.2), 0.0, 0.5)
    with pytest.raises(ValueError):
        WalkPolicy.for_error_bounds(NoiseModel(0.2), 0.5, 1.0)
    with pytest.raises(ValueError):
        WalkPolicy(0, 3)


def test_snapped_ceil_behavior():
    assert snapped_ceil(3.0000000001) == 3
    assert snapped_ceil(2.9999999999) == 3
    assert snapped_ceil(3.1) == 4
    assert snapped_ceil(0.2) == 1
    assert snapped_ceil(1e-12) == 1


def test_barrier_hand_values():
    # r = 4 at p = 0.2: (log 10 - log 5e-324)/log 4 = (2.3026 + 744.4401)/1.3863 = 538.66
    assert barrier(NoiseModel(0.2), 10, 5e-324) == 539
    # log(1/0.01)/log 3 = 4.19 at p = 0.25
    assert barrier(NoiseModel(0.25), 1, 0.01) == 5


@pytest.mark.parametrize("p", [0.01, 0.1, 0.25, 0.4, 0.49])
def test_policy_meets_its_error_bounds_exactly(p):
    # the exact gambler's-ruin error of each bit's walk is within its
    # delta, down to the smallest subnormal; the slack covers the snap of
    # snapped_ceil, which may round a value 1e-9 above an integer down
    noise = NoiseModel(p)
    deltas = (0.5, 0.05, 1e-3, 1e-16, 1e-300, 1e-308, 1e-320, 5e-324)
    for delta0 in deltas:
        for delta1 in deltas:
            policy = WalkPolicy.for_error_bounds(noise, delta0, delta1)
            a, b = policy.down_threshold_a, policy.up_threshold_b
            for bit, delta in ((0, delta0), (1, delta1)):
                log_error = log_up_first(p, a, b) if bit == 0 else log_up_first(p, b, a)
                assert log_error <= math.log(delta) + math.log1p(1e-6), (p, delta0, delta1, bit)


@pytest.mark.parametrize("delta0,delta1", [(0.05, 0.05), (0.01, 0.2), (0.2, 0.01)])
def test_kernel_matches_the_exact_walk_law(delta0, delta1):
    # criterion 2's delta pairs at p = 0.2: on 2e5 keys of each bit value
    # the kernel's error rate and mean steps sit within 4 standard errors
    # of the exact law
    p, keys = 0.2, 200_000
    policy = WalkPolicy.for_error_bounds(NoiseModel(p), delta0, delta1)
    a, b = policy.down_threshold_a, policy.up_threshold_b
    for bit in (0, 1):
        oracle = BitOracle(np.full(keys, bit, dtype=np.uint8), p, seed_sequence(59, "exact", f"{delta0}-{delta1}", bit))
        decided, steps = walks(oracle, np.arange(keys), a, b)
        error, mean_steps = exact_check(p, a, b, bit)
        rate = float(np.mean(decided != bit))
        assert abs(rate - error) <= 4.0 * math.sqrt(error * (1.0 - error) / keys), (bit, rate, error)
        assert abs(steps.mean() - mean_steps) <= 4.0 * steps.std(ddof=1) / math.sqrt(keys), (bit, mean_steps)


def test_check_bit_single_step_regime():
    # delta = 0.5 at p = 0.25: a = b = ceil(ln 2 / ln 3) = 1
    policy = WalkPolicy.for_error_bounds(NoiseModel(0.25), 0.5, 0.5)
    assert policy.down_threshold_a == 1
    assert policy.up_threshold_b == 1
    oracle = BitOracle([1], 0.25, 0)
    outcome = check_bit(oracle, 0, 0.5)
    assert outcome.steps_used == 1


def test_hitting_probability_closed_form():
    assert hitting_probability(0.3, 0) == 1.0
    assert hitting_probability(1 / 3, 2) == pytest.approx(0.25, rel=1e-12)
    assert hitting_probability(0.25, 3) == pytest.approx(1 / 27, rel=1e-12)
    with pytest.raises(ValueError):
        hitting_probability(0.5, 1)
    with pytest.raises(ValueError):
        hitting_probability(0.2, -1)


def test_expected_hitting_time_closed_form():
    assert expected_hitting_time(0.3, 0) == 0.0
    assert expected_hitting_time(0.25, 1) == pytest.approx(2.0)
    assert expected_hitting_time(0.1, 4) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        expected_hitting_time(0.7, 1)


@pytest.mark.parametrize("p,x", [(1 / 3, 2), (0.25, 3)])
def test_simulated_hitting_matches_law(p, x):
    walks = 10**5
    tally = simulate_hitting(p, x, walks, derive_rng(21, "hit", x))
    law = hitting_probability(p, x)
    band = 3.0 * math.sqrt(law * (1.0 - law) / walks) + 1e-6
    assert abs(tally.fraction - law) <= band


@pytest.mark.parametrize("p,x", [(0.25, 1), (0.1, 4)])
def test_simulated_first_passage_matches_law(p, x):
    walks = 10**5
    tally = simulate_first_passage(p, x, walks, derive_rng(22, "fp", x))
    assert tally.mean == pytest.approx(expected_hitting_time(p, x), rel=0.02)
    assert tally.stddev > 0.0


@pytest.mark.parametrize("p,x", [(0.1, 2), (0.25, 1), (0.4, 3)])
def test_simulated_laws_walk_the_kernel(p, x):
    # the laws are tallies of the walk kernel on all-zero bits: a twin
    # oracle from the same stream, walked key by key through query(),
    # gives the same hits and the same step sums
    count = 200
    far = barrier(NoiseModel(p), 1, HIT_PRECISION) - x
    twin = BitOracle([0] * count, p, seed_sequence(41, "hit", int(p * 100), x))
    hits = sum(query_walk(twin, i, far, x)[0] for i in range(count))
    tally = simulate_hitting(p, x, count, seed_sequence(41, "hit", int(p * 100), x))
    assert tally.hits == hits
    twin = BitOracle([0] * count, p, seed_sequence(41, "passage", int(p * 100), x))
    steps = [query_walk(twin, i, x, 1 << 62)[1] for i in range(count)]
    passage = simulate_first_passage(p, x, count, seed_sequence(41, "passage", int(p * 100), x))
    assert (passage.steps_total, passage.steps_squared_total) == (sum(steps), sum(s * s for s in steps))


def test_fast_walk_consumes_stream_like_single_queries():
    # asymmetric_check_bit must be answer-for-answer identical to a walk
    # driven by public query() calls on an identically seeded oracle
    for hidden_bit in (0, 1):
        fast = BitOracle([hidden_bit], 0.3, seed_sequence(33, "fastpath", hidden_bit))
        slow = BitOracle([hidden_bit], 0.3, seed_sequence(33, "fastpath", hidden_bit))
        policy = WalkPolicy.for_error_bounds(fast.noise, 0.02, 0.07)
        outcome = asymmetric_check_bit(fast, 0, 0.02, 0.07, policy=policy)
        d = steps = 0
        while True:
            steps += 1
            if slow.query(0):
                d += 1
            else:
                d -= 1
            if d == policy.up_threshold_b or d == -policy.down_threshold_a:
                break
        declared = 1 if d > 0 else 0
        assert outcome == WalkOutcome(declared, steps)
        assert fast.ledger.total_queries == slow.ledger.total_queries == steps


def test_check_bit_error_rate_and_cost():
    p = 0.3
    delta = 0.1
    trials = 20000
    errors = 0
    steps_total = 0
    policy = WalkPolicy.for_error_bounds(NoiseModel(p), delta, delta)
    for t in range(trials):
        oracle = BitOracle([1], p, seed_sequence(44, "cb", t))
        outcome = check_bit(oracle, 0, delta, policy=policy)
        errors += outcome.decided_bit == 0
        steps_total += outcome.steps_used
        assert outcome.steps_used >= 1
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    assert errors / trials <= delta + slack
    bound = policy.up_threshold_b / (1.0 - 2.0 * p)
    assert steps_total / trials <= bound * 1.05


def test_asymmetric_check_bit_error_rates_both_bits():
    p = 0.2
    delta0, delta1 = 0.05, 0.05
    trials = 20000
    for bit, bound in ((0, delta0), (1, delta1)):
        wrong = 0
        for t in range(trials):
            oracle = BitOracle([bit], p, seed_sequence(55, "acb", bit, t))
            wrong += asymmetric_check_bit(oracle, 0, delta0, delta1).decided_bit != bit
        assert wrong / trials <= bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)


def test_asymmetric_check_bit_cost_is_upper_bounded():
    # delta0=0.01, delta1=0.5 at p=0.2: b=4, mean steps on a one-bit
    # below the one-barrier bound 4/0.6
    p = 0.2
    trials = 20000
    policy = WalkPolicy.for_error_bounds(NoiseModel(p), 0.01, 0.5)
    assert policy.up_threshold_b == 4
    total = 0
    for t in range(trials):
        oracle = BitOracle([1], p, seed_sequence(66, "cost", t))
        total += asymmetric_check_bit(oracle, 0, 0.01, 0.5, policy=policy).steps_used
    assert total / trials <= (4 / 0.6) * 1.05


def test_symmetric_deltas_coincide_with_check_bit():
    a = BitOracle([1, 0, 1], 0.25, seed_sequence(7, "sym"))
    b = BitOracle([1, 0, 1], 0.25, seed_sequence(7, "sym"))
    for i in range(3):
        assert check_bit(a, i, 0.03) == asymmetric_check_bit(b, i, 0.03, 0.03)


def test_independent_streams_uncorrelated():
    trials = 4000
    p, delta = 0.3, 0.25
    first = []
    second = []
    for t in range(trials):
        first.append(check_bit(BitOracle([1], p, seed_sequence(9, "ind", 0, t)), 0, delta).decided_bit)
        second.append(check_bit(BitOracle([1], p, seed_sequence(9, "ind", 1, t)), 0, delta).decided_bit)
    mean_a = sum(first) / trials
    mean_b = sum(second) / trials
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(first, second)) / trials
    var_a = mean_a * (1 - mean_a)
    var_b = mean_b * (1 - mean_b)
    corr = cov / math.sqrt(var_a * var_b)
    assert abs(corr) < 0.05


@hypothesis.example(hidden=[0], p=0.25, delta=0.1, shrink=0.01, wrong=0, seed=0)
@hypothesis.given(
    hidden=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    p=st.floats(0.02, 0.45),
    delta=st.floats(0.001, 0.5),
    shrink=st.floats(1e-6, 1.0),
    wrong=st.integers(0, 1),
    seed=st.integers(0, 2**32),
)
def test_error_monotone_pathwise(hidden, p, delta, shrink, wrong, seed):
    # twin oracles give both walks of a bit the same answers, so moving
    # the wrong-side barrier of bits equal to `wrong` farther away
    # (delta0 guards 0-bits, delta1 1-bits) keeps every correct verdict
    # on those bits, at the same step: their errors can only fall
    noise = NoiseModel(p)
    deltas = [[delta, delta], [delta, delta]]
    deltas[1][wrong] = delta * shrink
    twins = [BitOracle(hidden, noise, seed_sequence(seed, "mono")) for _ in deltas]
    runs = []
    for oracle, (delta0, delta1) in zip(twins, deltas):
        policy = WalkPolicy.for_error_bounds(noise, delta0, delta1)
        runs.append(walks(oracle, np.arange(len(hidden)), policy.down_threshold_a, policy.up_threshold_b))
    (near, near_steps), (far, far_steps) = runs
    guarded = np.asarray(hidden) == wrong
    kept = guarded & (near == wrong)
    assert (far[kept] == wrong).all()
    assert (far_steps[kept] == near_steps[kept]).all()


def test_cost_depends_on_opposite_delta():
    # on a one-bit, delta1 barely moves the cost while each halving of
    # delta0 adds about log2/((1-2p) log((1-p)/p)) steps
    p = 0.25
    trials = 12000

    def mean_steps(delta0, delta1, tag):
        total = 0
        for t in range(trials):
            oracle = BitOracle([1], p, seed_sequence(17, tag, t))
            total += asymmetric_check_bit(oracle, 0, delta0, delta1).steps_used
        return total / trials

    base = mean_steps(0.05, 0.05, "cost-base")
    shrunk_delta1 = mean_steps(0.05, 0.05 / 8, "cost-base")
    assert abs(shrunk_delta1 - base) / base < 0.10

    shrunk_delta0 = mean_steps(0.05 / 8, 0.05, "cost-base")
    per_halving = (shrunk_delta0 - base) / 3
    predicted = math.log(2.0) / ((1.0 - 2.0 * p) * math.log(3.0))
    assert 0.5 * predicted <= per_halving <= 2.0 * predicted


def test_walk_outcome_invariants():
    for t in range(200):
        oracle = BitOracle([t % 2], 0.3, seed_sequence(19, "inv", t))
        policy = WalkPolicy.for_error_bounds(oracle.noise, 0.2, 0.01)
        outcome = asymmetric_check_bit(oracle, 0, 0.2, 0.01, policy=policy)
        assert outcome.decided_bit in (0, 1)
        assert outcome.steps_used >= min(policy.down_threshold_a, policy.up_threshold_b)


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_hitting(0.25, 2, 0, 1)
    with pytest.raises(ValueError):
        simulate_first_passage(0.6, 2, 10, 1)
    # a walk count follows the integer rule, at x = 0 too, where no walk runs
    for simulate in (simulate_hitting, simulate_first_passage):
        for x, count in ((2, 0), (2, 2.0), (0, 2.5), (0, True)):
            with pytest.raises(ValueError, match="integer count of at least one walk"):
                simulate(0.25, x, count, 1)
    assert simulate_hitting(0.25, 0, 10, 1).fraction == 1.0
    assert simulate_first_passage(0.25, 0, 10, 1).mean == 0.0
    # at p = 1/4 and precision 1e-6 the truncation barrier is 13: from x = 13
    # up, reaching +x is below the precision, so no walk runs and none hits
    assert barrier(NoiseModel(0.25), 1, 1e-6) == 13
    assert simulate_hitting(0.25, 13, 10, 1).hits == 0
    one = simulate_first_passage(0.25, 2, 1, 1)
    assert one.walks == 1 and one.mean >= 2 and math.isnan(one.stddev)


def _twin_bit_oracles(n, p, seed, complement, warmup):
    # two identically seeded oracles (or complement views of them) with the
    # same warm-up queries already answered
    bases = [
        BitOracle(derive_rng(seed, "bits").integers(0, 2, size=n), p, seed_sequence(seed, "noise")) for _ in range(2)
    ]
    views = [ComplementBitOracle(base) if complement else base for base in bases]
    for view in views:
        for i in warmup:
            view.query(i % n)
    return bases, views


@hypothesis.given(
    n=st.integers(1, 300),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 30),
    b=st.integers(1, 30),
    seed=st.integers(0, 2**32),
    complement=st.booleans(),
    warmup=st.lists(st.integers(0, 299), max_size=80),
    data=st.data(),
)
def test_kernel_matches_query_walks(n, p, a, b, seed, complement, warmup, data):
    # same decisions and steps as walking each key through query(), and
    # the same answer counts and ledger afterwards
    bases, views = _twin_bit_oracles(n, p, seed, complement, warmup)
    # every call runs the round loop: draw calls of one to four keys, the
    # smallest rounds, as often as calls of any size
    size = data.draw(st.one_of(st.integers(1, min(n, 4)), st.integers(1, n)))
    keys = data.draw(st.permutations(range(n)))[:size]
    decided, steps = walks(views[0], keys, a, b)
    assert list(zip(decided.tolist(), steps.tolist())) == [query_walk(views[1], k, a, b) for k in keys]
    assert bases[0].ledger == bases[1].ledger
    assert bases[0]._counters.tolist() == bases[1]._counters.tolist()


def test_kernel_matches_query_walks_over_many_blocks():
    # wide barriers make the widest rounds, so the fewest walks at once:
    # 4000 keys are more than three such sets, so most keys start in a
    # later round, as earlier walks end
    bases, views = _twin_bit_oracles(4000, 0.3, 5, False, range(0, 4000, 7))
    keys = derive_rng(5, "keys").permutation(4000)
    assert 4000 > 3 * (walks_module._ROUND_ANSWERS // block_width(0.3, 30, 30))
    decided, steps = walks(views[0], keys, 30, 30)
    assert list(zip(decided.tolist(), steps.tolist())) == [query_walk(views[1], k, 30, 30) for k in keys.tolist()]
    assert bases[0].ledger == bases[1].ledger
    assert bases[0]._counters.tolist() == bases[1]._counters.tolist()


@hypothesis.given(
    n=st.integers(5, 300),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 30),
    b=st.integers(1, 30),
    capacity=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    complement=st.booleans(),
    warmup=st.lists(st.integers(0, 299), max_size=80),
    data=st.data(),
)
def test_kernel_refills_match_query_walks(n, p, a, b, capacity, seed, complement, warmup, data):
    # a capacity of a few walks at a time, so keys far outnumber it and
    # walks start and end in different rounds, and the last walks' rounds
    # widen from block_width steps up to capacity times that
    bases, views = _twin_bit_oracles(n, p, seed, complement, warmup)
    keys = data.draw(st.permutations(range(n)))[: data.draw(st.integers(5, n))]
    with small_rounds(capacity * block_width(p, a, b)):
        decided, steps = walks(views[0], keys, a, b)
    assert list(zip(decided.tolist(), steps.tolist())) == [query_walk(views[1], k, a, b) for k in keys]
    assert bases[0].ledger == bases[1].ledger
    assert bases[0]._counters.tolist() == bases[1]._counters.tolist()


@hypothesis.given(
    n=st.integers(1, 200),
    p=st.floats(0.02, 0.45),
    capacity=st.one_of(st.none(), st.integers(1, 8)),
    seed=st.integers(0, 2**32),
    complement=st.booleans(),
    warmup=st.lists(st.integers(0, 199), max_size=60),
    data=st.data(),
)
def test_per_key_barriers_match_query_walks(n, p, capacity, seed, complement, warmup, data):
    # each key walks to its own (a, b), as it would alone; the smallest
    # barrier sets the round width, and a small capacity makes keys with
    # different barriers start and end in different rounds
    bases, views = _twin_bit_oracles(n, p, seed, complement, warmup)
    keys = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    # one barrier array, and one list, of a value per key
    a = np.array(data.draw(st.lists(st.integers(1, 30), min_size=len(keys), max_size=len(keys))))
    b = data.draw(st.lists(st.integers(1, 30), min_size=len(keys), max_size=len(keys)))
    if capacity is None:
        decided, steps = walks(views[0], keys, a, b)
    else:
        with small_rounds(capacity * block_width(p, int(a.min()), min(b))):
            decided, steps = walks(views[0], keys, a, b)
    reference = [query_walk(views[1], k, ka, kb) for k, ka, kb in zip(keys, a.tolist(), b)]
    assert list(zip(decided.tolist(), steps.tolist())) == reference
    assert bases[0].ledger == bases[1].ledger
    assert bases[0]._counters.tolist() == bases[1]._counters.tolist()


@pytest.mark.parametrize(
    "a",
    [True, 0, -2, 2.5, np.int64(0), [1.5, 2, 3, 4], [True, True, True, True], [2, 0, 3, 1], np.array([3, -1, 2, 2])],
    ids=["bool", "zero", "negative", "float", "numpy zero", "float array", "bool array", "array with 0", "negative in array"],
)
def test_walk_barriers_follow_the_policy_rule(a):
    # one rule for WalkPolicy and the kernel: an integer >= 1, never a
    # bool, or an integer array of one such value per key
    oracle = BitOracle([0, 1, 0, 1], 0.2, 3)
    for args in ((a, 3), (3, a)):
        with pytest.raises(ValueError, match="walk barriers must be integers >= 1"):
            walks(oracle, [0, 1, 2, 3], *args)
        if np.ndim(a) == 0:
            with pytest.raises(ValueError, match="walk barriers must be integers >= 1, got"):
                WalkPolicy(*args)
    assert oracle.ledger.total_queries == 0
    assert oracle._counters.tolist() == BitOracle([0, 1, 0, 1], 0.2, 3)._counters.tolist()


def test_per_key_barriers_need_one_value_per_key():
    oracle = BitOracle([0, 1, 1], 0.3, seed_sequence(4, "shape"))
    for a, b in (([2, 3], 3), (2, [[2, 3, 4]]), (np.array([2, 3, 4, 5]), 2)):
        with pytest.raises(ValueError, match="one value per key"):
            walks(oracle, [0, 1, 2], a, b)
    assert oracle.ledger.total_queries == 0


def test_walk_rounds_yield_the_ended_prefix():
    # after each round every key before the yielded count has its final
    # result, and the count only grows until it covers every key
    oracle = BitOracle(derive_rng(8, "bits").integers(0, 2, size=500), 0.25, seed_sequence(8, "noise"))
    keys = np.arange(500)
    decided, steps = walks(stack([oracle], BitOracle), keys, 6, 9)
    got_decided = np.full(500, -1, dtype=np.int8)
    got_steps = np.zeros(500, dtype=np.int64)
    ended = []
    with small_rounds(40 * block_width(0.25, 6, 9)):
        for count in walk_rounds(oracle, keys, 6, 9, got_decided, got_steps):
            assert np.array_equal(got_decided[:count], decided[:count])
            assert np.array_equal(got_steps[:count], steps[:count])
            ended.append(count)
    assert ended == sorted(ended) and ended[-1] == 500 and len(set(ended)) > 5
    assert oracle.ledger.total_queries == 0


def test_interleaved_walk_rounds_match_walks_alone():
    # two calls advanced round by round in turn each give what they give alone
    runs = []
    for p, a, b, size in ((0.25, 6, 9, 700), (0.1, 3, 4, 300)):
        oracle = BitOracle(derive_rng(9, "bits", size).integers(0, 2, size=size), p, seed_sequence(9, "noise", size))
        keys = np.arange(size)
        alone = walks(stack([oracle], BitOracle), keys, a, b)
        got = np.full(size, -1, dtype=np.int8), np.zeros(size, dtype=np.int64)
        runs.append((alone, got, walk_rounds(oracle, keys, a, b, *got)))
    with small_rounds(40 * block_width(0.25, 6, 9)):
        pending = [rounds for _, _, rounds in runs]
        while pending:
            pending = [rounds for rounds in pending if next(rounds, None) is not None]
    for (decided, steps), (got_decided, got_steps), _ in runs:
        assert np.array_equal(got_decided, decided) and np.array_equal(got_steps, steps)


@pytest.mark.skipif(not walks_module._keep_freed_memory(), reason="needs glibc's mallopt")
def test_kernel_rounds_do_not_fault_their_arrays_back_in():
    # with the allocator's thresholds fixed at import, the arrays a call
    # frees stay in the process for the next call to reuse
    import resource

    oracle = BitOracle(derive_rng(4, "faults").integers(0, 2, size=30_000), 0.25, seed_sequence(4, "faults"))
    keys = np.arange(30_000)
    for _ in range(5):
        walks(oracle, keys, 10, 14)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        walks(oracle, keys, 10, 14)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20 <= 4


@hypothesis.given(
    n=st.integers(2, 12),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 10),
    b=st.integers(1, 10),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_kernel_matches_query_walks_on_edges(n, p, a, b, seed, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    slots = data.draw(st.lists(st.integers(0, len(pairs) - 1), unique=True, min_size=1))
    oracles = [EdgeOracle(n, edges, p, seed_sequence(seed, "edges")) for _ in range(2)]
    decided, steps = walks(oracles[0], slots, a, b)
    # slots number the pairs u < v row by row; query() may name either order
    reference = [query_walk(oracles[1], pairs[s][::-1], a, b) for s in slots]
    assert list(zip(decided.tolist(), steps.tolist())) == reference
    assert oracles[0].ledger == oracles[1].ledger
    assert oracles[0]._counters.tolist() == oracles[1]._counters.tolist()


@hypothesis.given(
    n=st.integers(2, 15),
    count=st.integers(1, 6),
    on_edges=st.booleans(),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 12),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_walk_oracles_equals_walking_each_alone(n, count, on_edges, p, a, b, seed, data):
    # twin sets of oracles, identically seeded and with the same earlier
    # queries and walks on some of them: one set is stacked, walked as
    # one block and unstacked, the other walks one oracle at a time
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    slots = len(pairs) if on_edges else n
    hidden = [
        data.draw(st.lists(st.sampled_from(pairs), unique=True))
        if on_edges
        else data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        for _ in range(count)
    ]

    def build(i):
        stream = seed_sequence(seed, "together", i)
        return EdgeOracle(n, hidden[i], p, stream) if on_edges else BitOracle(hidden[i], p, stream)

    twins = [[build(i) for i in range(count)] for _ in range(2)]
    for i in range(count):
        queried = data.draw(st.lists(st.integers(0, slots - 1), max_size=20))
        earlier = data.draw(st.lists(st.integers(0, slots - 1), unique=True, max_size=slots))
        for oracles in twins:
            for s in queried:
                oracles[i].query(pairs[s] if on_edges else s)
            if earlier:
                walks(oracles[i], earlier, a, b)
    before = [oracle.ledger.total_queries for oracle in twins[0]]
    block = stack(twins[0], EdgeOracle if on_edges else BitOracle)
    decided, steps = walks(block, np.arange(count * slots), a, b)
    answered = unstack(block, twins[0])
    assert answered.tolist() == [o.ledger.total_queries - q for o, q in zip(twins[0], before)]
    assert answered.sum() == block.ledger.total_queries
    decided, steps = decided.reshape(count, slots), steps.reshape(count, slots)
    for i, (together, alone) in enumerate(zip(*twins)):
        own_decided, own_steps = walks(alone, np.arange(slots), a, b)
        assert decided[i].tolist() == own_decided.tolist()
        assert steps[i].tolist() == own_steps.tolist()
        assert together._counters.tolist() == alone._counters.tolist()
        assert together.ledger == alone.ledger


@hypothesis.given(
    n=st.integers(1, 12),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 12),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_blocks_of_fresh_used_and_viewed_oracles_match_each_alone(n, p, a, b, seed, data):
    # a block may mix oracles whose counters were never read, oracles
    # already queried or walked, and complement views of either; stacked,
    # walked and unstacked, each gets the answers, counters and ledger
    # that walking it alone gives
    states = data.draw(st.lists(st.sampled_from(["fresh", "used", "fresh view", "used view"]), min_size=1, max_size=5))
    hidden = [data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in states]

    def build(i, state):
        base = BitOracle(hidden[i], p, seed_sequence(seed, "mixed", i))
        return base, ComplementBitOracle(base) if state.endswith("view") else base

    twins = [[build(i, state) for i, state in enumerate(states)] for _ in range(2)]
    for i, state in enumerate(states):
        if state.startswith("used"):
            queried = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
            walked = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            for oracles in twins:
                base, view = oracles[i]
                for key in queried:
                    data.draw(st.sampled_from([base, view])).query(key)
                walks(view, walked, a, b)
    together = [view for _, view in twins[0]]
    # building a view forms its inner oracle's counters
    assert [("_counters" in vars(base)) for base, _ in twins[0]] == [s != "fresh" for s in states]
    before = [view.ledger.total_queries for view in together]
    block = stack(together, BitOracle)
    decided, steps = walks(block, np.arange(len(states) * n), a, b)
    answered = unstack(block, together)
    assert answered.tolist() == [view.ledger.total_queries - q for view, q in zip(together, before)]
    for i, ((base, _), (alone, view)) in enumerate(zip(*twins)):
        own_decided, own_steps = walks(view, np.arange(n), a, b)
        assert decided[i * n : (i + 1) * n].tolist() == own_decided.tolist()
        assert steps[i * n : (i + 1) * n].tolist() == own_steps.tolist()
        assert base._counters.tolist() == alone._counters.tolist()
        assert base.ledger == alone.ledger


def test_walks_of_no_keys_return_empty_arrays():
    # scalar barriers, and per-key barrier arrays with no values
    oracle = BitOracle([0, 1, 1], 0.3, seed_sequence(4, "none"))
    empty = np.array([], dtype=np.int64)
    for a, b in ((2, 3), (empty, empty), ([], 3), (2, [])):
        decided, steps = walks(oracle, [], a, b)
        assert decided.shape == steps.shape == (0,)
        assert list(walk_rounds(oracle, empty, a, b, decided, steps)) == []
    assert oracle.ledger.total_queries == 0


def _refused_stacks():
    base = BitOracle([0, 1, 1], 0.3, seed_sequence(4, "base"))
    return {
        "no oracles": ([], "at least one oracle"),
        "different p": ([base, BitOracle([0, 1, 1], 0.25, seed_sequence(4, "p"))], "share their flip probability"),
        "different slot counts": ([base, BitOracle([0, 1, 1, 0], 0.3, seed_sequence(4, "n"))], "same number of slots"),
        "an oracle listed twice": ([base, base], "must not share answer counters"),
        "a complement view beside its inner oracle": (
            [base, ComplementBitOracle(base)],
            "must not share answer counters",
        ),
    }


@pytest.mark.parametrize("case", list(_refused_stacks()))
def test_walk_oracles_refuses_what_it_cannot_stack(case):
    oracles, message = _refused_stacks()[case]
    before = [(oracle._counters.tolist(), oracle.ledger.total_queries) for oracle in oracles]
    with pytest.raises(ValueError, match=message):
        stack(oracles, BitOracle)
    assert [(oracle._counters.tolist(), oracle.ledger.total_queries) for oracle in oracles] == before


def test_stack_refuses_oracles_of_another_class():
    # three bits and the three pairs of three vertices have one slot count,
    # yet a bit oracle and an edge oracle are never one block: in either
    # order, under either class, stack raises TypeError before it forms
    # any counters, and no ledger moves
    for first, cls in ((0, BitOracle), (1, EdgeOracle)):
        pair = [BitOracle([1, 0, 1], 0.2, 1), EdgeOracle(3, [(0, 1)], 0.2, 2)]
        oracles = pair[first:] + pair[:first]
        with pytest.raises(TypeError, match=f"needs {cls.__name__}s, got {type(oracles[1]).__name__}"):
            stack(oracles, cls)
        assert ["_counters" in vars(o) for o in oracles] == [False, False]
        assert [o.ledger.total_queries for o in oracles] == [0, 0]
    with pytest.raises(TypeError, match="needs BitOracles, got str"):
        stack(["101"], BitOracle)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WalkPolicy(2.5, 3),
        lambda: WalkPolicy(True, 3),
        lambda: WalkPolicy(3, False),
        lambda: hitting_probability(0.2, True),
        lambda: expected_hitting_time(0.2, 1.5),
        lambda: BitOracle([0, 1], 0.2, 0).query(True),
        lambda: threshold_count(BitOracle([0, 1], 0.2, 0), True, 0.1),
    ],
    ids=["float a", "bool a", "bool b", "bool distance", "float distance", "bool index", "bool k"],
)
def test_integer_arguments_refuse_bools_and_floats(call):
    # one rule: any integer, numpy's too, and never a bool
    with pytest.raises((ValueError, IndexError), match="integer"):
        call()


def test_integer_arguments_accept_numpy_integers():
    two = np.int64(2)
    assert WalkPolicy(two, 3) == WalkPolicy(2, 3)
    assert hitting_probability(0.2, two) == hitting_probability(0.2, 2)
    oracles = [BitOracle([1, 0, 1, 1], 0.2, seed_sequence(7, "np-int")) for _ in range(2)]
    assert oracles[0].query(np.int64(1)) == oracles[1].query(1)
    assert threshold_count(oracles[0], two, 0.1) == threshold_count(oracles[1], 2, 0.1)
    assert oracles[0].ledger == oracles[1].ledger


@pytest.mark.parametrize(
    "call",
    [
        lambda oracle: hitting_probability(True, 2),
        lambda oracle: expected_hitting_time(True, 2),
        lambda oracle: counting_one_sided(oracle, True),
        lambda oracle: threshold_count(oracle, 1, True),
        lambda oracle: check_bit(oracle, 0, True),
        lambda oracle: WalkPolicy.for_error_bounds(oracle.noise, 0.1, True),
    ],
    ids=["bool p", "bool p of a passage", "bool delta", "bool threshold delta", "bool check delta", "bool delta1"],
)
def test_real_arguments_refuse_bools(call):
    # the real-number rule beside the integer rule: any real number, numpy's too, and never a bool
    oracle = BitOracle([0, 1, 0], 0.2, 1)
    with pytest.raises(ValueError, match="must lie in"):
        call(oracle)
    assert oracle.ledger.total_queries == 0
    assert oracle._counters.tolist() == BitOracle([0, 1, 0], 0.2, 1)._counters.tolist()


def test_real_arguments_accept_numpy_floats():
    # a numpy float is the float it holds: same results, answers and ledgers
    p, delta = np.float32(0.2), np.float32(0.1)
    assert NoiseModel(p) == NoiseModel(float(p))
    assert hitting_probability(np.float32(0.25), 2) == hitting_probability(0.25, 2) == 1 / 9
    assert expected_hitting_time(p, 3) == expected_hitting_time(float(p), 3)
    oracles = [BitOracle([0, 1, 0, 1, 1, 0], 0.2, seed_sequence(7, "np-float")) for _ in range(4)]
    assert counting_one_sided(oracles[0], delta) == counting_one_sided(oracles[1], float(delta))
    assert threshold_count(oracles[2], 2, delta) == threshold_count(oracles[3], 2, float(delta))
    assert oracles[0].ledger == oracles[1].ledger and oracles[2].ledger == oracles[3].ledger
    simulated = [simulate_first_passage(q, 2, 50, seed_sequence(7, "np-passage")) for q in (p, float(p))]
    assert simulated[0] == simulated[1]


def test_walks_reject_keys_outside_the_oracle():
    oracle = BitOracle([0, 1, 1], 0.3, 0)
    for keys in ([3], [-1], [0, 1, 5]):
        with pytest.raises(IndexError):
            walks(oracle, keys, 2, 2)
    assert oracle.ledger.total_queries == 0


@pytest.mark.parametrize(
    "keys, error, message",
    [
        ([2, 2, 0, 1, 3, 4], ValueError, "slot 2 more than once"),
        ([0, 5, 1, 5, 5], ValueError, "slot 5 more than once"),
        ([-1], IndexError, r"slots in \[0, 6\)"),
        ([0, 6], IndexError, r"slots in \[0, 6\)"),
        # slots follow query's integer rule: nothing is cast to one
        ([0.5, 1.7], IndexError, "integer slots, got float64"),
        ([True, False], IndexError, "integer slots, got bool"),
        (["1"], IndexError, "integer slots, got <U1"),
    ],
)
def test_walks_refuse_bad_keys(keys, error, message):
    # a repeated key would walk twice from one counter; a refused call
    # changes nothing
    oracle = BitOracle([0, 1, 1, 0, 1, 0], 0.3, seed_sequence(5, "refused"))
    walks(oracle, [1, 2, 4], 3, 3)
    before = (oracle._counters.tolist(), oracle.ledger.total_queries)
    with pytest.raises(error, match=message):
        walks(oracle, keys, 3, 3)
    assert (oracle._counters.tolist(), oracle.ledger.total_queries) == before


@hypothesis.given(
    kind=st.sampled_from(["bits", "complement", "edges"]),
    size=st.integers(1, 12),
    p=st.floats(0.02, 0.45),
    a=st.integers(1, 20),
    b=st.integers(1, 20),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_scalar_check_matches_the_kernel_on_one_key(kind, size, p, a, b, seed, data):
    # asymmetric_check_bit takes one answer per step and walks() runs the
    # round loop; after the same earlier queries and walks on identically
    # seeded twins, both give one key the same outcome, counters and ledger
    if kind == "edges":
        n = 2 + size % 6
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        bases = [EdgeOracle(n, edges, p, seed_sequence(seed, "scalar")) for _ in range(2)]
        views = bases
        slots = len(pairs)
    else:
        hidden = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        bases = [BitOracle(hidden, p, seed_sequence(seed, "scalar")) for _ in range(2)]
        views = [ComplementBitOracle(base) if kind == "complement" else base for base in bases]
        slots = size

    def key(slot, flip):
        # query() and the check take a vertex pair in either order
        return pairs[slot][:: -1 if flip else 1] if kind == "edges" else slot

    moves = data.draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, slots - 1), unique=True, min_size=1),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    for is_walk, keys, flip in moves:
        for view in views:
            if is_walk:
                walks(view, keys, a, b)
            else:
                view.query(key(keys[0], flip))
    slot = data.draw(st.integers(0, slots - 1))
    outcome = asymmetric_check_bit(views[0], key(slot, data.draw(st.booleans())), 0.1, 0.1, policy=WalkPolicy(a, b))
    decided, steps = walks(views[1], [slot], a, b)
    assert outcome == WalkOutcome(int(decided[0]), int(steps[0]))
    assert bases[0]._counters.tolist() == bases[1]._counters.tolist()
    assert bases[0].ledger == bases[1].ledger


def test_walks_reject_oracles_without_counter_answers():
    class QueryOnly:
        noise = NoiseModel(0.2)

        def query(self, key):
            return 0

    with pytest.raises(TypeError):
        check_bit(QueryOnly(), 0, 0.1)
