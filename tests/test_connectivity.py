import dataclasses
import hashlib
import math
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st
import pytest
from scipy.stats import chi2

from noisyquery import (
    EdgeOracle,
    ExperimentSpec,
    InfeasibleBalance,
    NoiseModel,
    RejectionCapExceeded,
    UnionFind,
    balanced_edges,
    check_balance_feasible,
    components_of,
    derive_rng,
    hard_instance_from_text,
    hard_instance_to_text,
    is_connected_graph,
    naive_connectivity,
    naive_st_connectivity,
    prufer_to_tree,
    reports_to_csv,
    run_experiment,
    sample_hard_instance,
    sample_st_instance,
    sample_ust,
    seed_sequence,
    theory_bound,
)
from noisyquery.connectivity import HardInstance, _reconstruct, pair_barriers


class NoiselessEdgeOracle(EdgeOracle):
    """Test double: an EdgeOracle whose channel never flips an answer.

    Its noise model (p = 1/4) is consulted only for walk barriers.
    """

    def __init__(self, n, edges):
        super().__init__(n, edges, NoiseModel(0.25), 0)
        self._flip_below = 0


def test_union_find_basics():
    uf = UnionFind(6)
    assert uf.component_count == 6
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)
    assert uf.connected(0, 2)
    assert not uf.connected(0, 3)
    assert uf.component_count == 4
    assert sorted(uf.component_sizes()) == [1, 1, 1, 3]
    with pytest.raises(ValueError):
        UnionFind(-1)


def test_hard_instance_label_matches_connectivity():
    n = 60
    for seed in range(200):
        instance = sample_hard_instance(n, derive_rng(67, "hard", seed))
        assert instance.connected == is_connected_graph(n, instance.graph)
        if instance.label == 1:
            assert instance.removed_edge is None
            assert instance.graph == frozenset(instance.base_tree.edges)
        else:
            assert instance.removed_edge is not None
            assert instance.graph | {instance.removed_edge} == frozenset(instance.base_tree.edges)
            # both live components clear the exact rational balance bar
            sizes = components_of(n, instance.graph).component_sizes()
            assert len(sizes) == 2
            for size in sizes:
                assert size * 21 >= n


def tree_route_instance(n, gen, beta):
    """The hard instance drawn through LabeledTree, as sample_hard_instance
    once drew it: the same rejection loop, edge pick and label coin.
    Returns (tree, graph, label, removed_edge, trees drawn)."""
    draws = 0
    candidates = ()
    while not candidates:
        tree = sample_ust(n, gen)
        candidates = balanced_edges(tree, beta).balanced_edges
        draws += 1
    chosen = candidates[int(gen.integers(0, len(candidates)))]
    label = int(gen.integers(0, 2))
    removed = None if label == 1 else chosen
    return tree, frozenset(e for e in tree.edges if e != removed), label, removed, draws


def assert_same_as_tree_route(n, beta, stream):
    new_gen, old_gen = derive_rng(*stream), derive_rng(*stream)
    instance = sample_hard_instance(n, new_gen, beta=beta)
    tree, graph, label, removed, draws = tree_route_instance(n, old_gen, beta)
    assert (instance.graph, instance.label, instance.removed_edge) == (graph, label, removed)
    assert instance.base_tree.edges == tree.edges
    assert new_gen.bit_generator.state == old_gen.bit_generator.state
    return draws


@hypothesis.given(
    st.one_of(st.integers(2, 12), st.integers(2, 300)),
    st.sampled_from([Fraction(1, 21), Fraction(1, 5), Fraction(1, 3)]),
    st.integers(0, 2**32),
)
def test_hard_instance_matches_tree_route(n, beta, seed):
    assert_same_as_tree_route(n, beta, (seed, "hard-route", n))


def test_hard_instance_matches_tree_route_through_redraws():
    # at beta = 1/3 a star on 4..8 vertices has no balanced edge, so some
    # of these streams redraw the tree, and must redraw it identically
    draws = [assert_same_as_tree_route(n, Fraction(1, 3), (91, "redraw", n, j)) for n in range(4, 9) for j in range(10)]
    assert max(draws) > 1


def test_hard_instance_coin_is_fair():
    n, samples = 60, 2000
    rng = derive_rng(69, "coin")
    connected = sum(sample_hard_instance(n, rng).label for _ in range(samples))
    assert abs(connected / samples - 0.5) <= 3.0 * math.sqrt(0.25 / samples)


def test_hard_instance_rejection_cap():
    with pytest.raises(RejectionCapExceeded):
        sample_hard_instance(1, derive_rng(71, "cap"), rejection_cap=5)
    # n=11 with beta just under 1/2 is unsatisfiable: sides would need >= 5.39
    with pytest.raises(RejectionCapExceeded):
        sample_hard_instance(11, derive_rng(71, "cap2"), beta=Fraction(49, 100), rejection_cap=20)


def test_infeasible_balance_fails_before_sampling():
    # a cap no run could exhaust: the check must fire before any tree
    for n, beta in ((1, Fraction(1, 21)), (3, Fraction(49, 100)), (11, Fraction(49, 100))):
        with pytest.raises(InfeasibleBalance) as raised:
            sample_hard_instance(n, derive_rng(71, "infeasible", n), beta=beta, rejection_cap=10**12)
        assert isinstance(raised.value, ValueError)


def test_balance_feasibility_matches_path_splits():
    # a path has every split, so it has a balanced edge iff any tree does
    for n in range(1, 40):
        for beta in (Fraction(1, 21), Fraction(1, 3), Fraction(2, 5), Fraction(49, 100)):
            if any(min(s, n - s) >= beta * n for s in range(1, n)):
                assert check_balance_feasible(n, beta) == beta
            else:
                with pytest.raises(InfeasibleBalance):
                    check_balance_feasible(n, beta)


def test_balance_feasibility_returns_the_checked_fraction():
    # the sampler uses what the check coerced, not a second coercion
    assert check_balance_feasible(20, 0.25) == Fraction(1, 4)
    assert isinstance(check_balance_feasible(20, "1/5"), Fraction)


def test_st_instance_terminals_uniform():
    n, samples = 20, 20000
    rng = derive_rng(73, "st")
    counts_s = [0] * n
    counts_t = [0] * n
    equal = 0
    for _ in range(samples):
        st = sample_st_instance(n, rng)
        counts_s[st.s] += 1
        counts_t[st.t] += 1
        equal += st.s == st.t
    expected = samples / n
    for counts in (counts_s, counts_t):
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert float(chi2.sf(stat, n - 1)) > 1e-3
    # i.i.d. terminals collide with probability 1/n
    assert abs(equal / samples - 1 / n) <= 3.0 * math.sqrt((1 / n) * (1 - 1 / n) / samples)


def test_st_split_crossing_probability():
    # conditioned on a disconnected instance with sides (A, B), the
    # terminals straddle the cut with probability 2|A||B|/n^2
    n, samples = 50, 4000
    rng = derive_rng(75, "cross")
    crossings = 0
    predicted = 0.0
    disconnected = 0
    for _ in range(samples):
        st = sample_st_instance(n, rng)
        if st.instance.label == 1:
            continue
        disconnected += 1
        comps = components_of(n, st.instance.graph)
        a, b = comps.component_sizes()
        predicted += 2 * a * b / n**2
        crossings += not comps.connected(st.s, st.t)
    rate = crossings / disconnected
    assert abs(rate - predicted / disconnected) <= 3.0 * math.sqrt(0.25 / disconnected)


def test_naive_connectivity_noiseless_decomposition():
    # with every per-edge verdict correct the output is exactly the truth
    for seed in range(20):
        instance = sample_hard_instance(30, derive_rng(77, "noiseless", seed))
        oracle = NoiselessEdgeOracle(30, instance.graph)
        assert naive_connectivity(oracle, 0.05) == instance.connected
    # and the query count is the deterministic straight-line cost
    n = 10
    edges = [(i, i + 1) for i in range(n - 1)]
    oracle = NoiselessEdgeOracle(n, edges)
    pairs = n * (n - 1) // 2
    a, b = pair_barriers(oracle.noise, n, 0.05)
    assert naive_connectivity(oracle, 0.05)
    expected = len(edges) * b + (pairs - len(edges)) * a
    assert oracle.ledger.total_queries == expected


def test_pair_barriers_hand_values():
    # C(50,2) = 1225 pairs at p = 0.2: log(1225/0.05)/log 4 = 7.29
    assert pair_barriers(NoiseModel(0.2), 50, 0.05) == (8, 8)


def test_naive_connectivity_error_rate_and_cost():
    n, p, delta, trials = 20, 0.2, 0.1, 200
    errors = 0
    queries = 0
    for t in range(trials):
        instance = sample_hard_instance(n, derive_rng(79, "mc-inst", t))
        oracle = EdgeOracle(n, instance.graph, p, seed_sequence(79, "mc-noise", t))
        answer = naive_connectivity(oracle, delta)
        errors += answer != instance.connected
        queries += oracle.ledger.total_queries
    assert errors / trials <= delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)
    reference = theory_bound("connectivity", n=n, delta=delta, p=p)
    assert 0.3 <= (queries / trials) / reference <= 1.5


def test_naive_connectivity_complete_graph_always_connected():
    n, p, delta, trials = 12, 0.2, 0.1, 100
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    errors = 0
    for t in range(trials):
        oracle = EdgeOracle(n, edges, p, seed_sequence(81, "complete", t))
        errors += not naive_connectivity(oracle, delta)
    assert errors / trials <= delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)


def test_naive_st_connectivity():
    for seed in range(30):
        st = sample_st_instance(25, derive_rng(83, "st-noiseless", seed))
        oracle = NoiselessEdgeOracle(25, st.instance.graph)
        truth = components_of(25, st.instance.graph).connected(st.s, st.t)
        assert naive_st_connectivity(oracle, st.s, st.t, 0.05) == truth
    with pytest.raises(ValueError):
        naive_st_connectivity(NoiselessEdgeOracle(5, []), 0, 5, 0.05)


def test_reconstruct_a_block_equals_each_oracle_alone():
    # one walk over five oracles' pairs: the same forests, counters and
    # ledgers as five reconstructions of one oracle each
    n, p, delta = 15, 0.25, 0.2
    graphs = [sample_hard_instance(n, derive_rng(85, "block", t)).graph for t in range(5)]
    twins = [[EdgeOracle(n, g, p, seed_sequence(85, "noise", t)) for t, g in enumerate(graphs)] for _ in range(2)]
    forests = _reconstruct(twins[0], delta)
    for forest, together, alone in zip(forests, *twins):
        (own,) = _reconstruct([alone], delta)
        assert [forest.find(v) for v in range(n)] == [own.find(v) for v in range(n)]
        assert together._counters.tolist() == alone._counters.tolist()
        assert together.ledger == alone.ledger
    singletons = _reconstruct([NoiselessEdgeOracle(1, []), NoiselessEdgeOracle(1, [])], delta)
    assert [forest.component_count for forest in singletons] == [1, 1]
    with pytest.raises(ValueError, match="must share n"):
        _reconstruct([NoiselessEdgeOracle(1, []), NoiselessEdgeOracle(2, [])], delta)


def test_naive_connectivity_validation():
    oracle = NoiselessEdgeOracle(4, [(0, 1)])
    with pytest.raises(ValueError):
        naive_connectivity(oracle, 0.0)
    with pytest.raises(ValueError):
        naive_connectivity(oracle, 1.0)


def test_hard_instance_serialization_round_trip():
    for seed in range(20):
        instance = sample_hard_instance(40, derive_rng(85, "ser", seed))
        text = hard_instance_to_text(instance)
        parsed = hard_instance_from_text(text)
        assert parsed.n == instance.n
        assert parsed.graph == instance.graph
        assert parsed.label == instance.label
        assert parsed.removed_edge == instance.removed_edge
        assert parsed.base_tree.edges == instance.base_tree.edges


def test_hard_instance_serialization_format():
    instance = sample_hard_instance(30, derive_rng(87, "fmt"))
    text = hard_instance_to_text(instance)
    header = text.splitlines()[0]
    assert header.startswith("n=30 label=")
    if instance.label == 1:
        assert header.endswith("removed=none")


def test_hard_instance_deserialization_errors():
    with pytest.raises(ValueError):
        hard_instance_from_text("")
    with pytest.raises(ValueError):
        hard_instance_from_text("n=4 label=2 removed=none\n1 2\n")
    with pytest.raises(ValueError):
        hard_instance_from_text("n=3 label=0 removed=none\n1 2\n2 3\n")
    with pytest.raises(ValueError):
        hard_instance_from_text("label=1 removed=none\n1 2\n")


@hypothesis.given(
    st.integers(2, 40).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2).map(
        lambda seq: prufer_to_tree(seq, n)
    )),
    st.data(),
)
def test_hard_instance_text_round_trip_property(tree, data):
    # any tree, kept whole (label 1) or less any one edge (label 0)
    removed = data.draw(st.one_of(st.none(), st.sampled_from(tree.edges)))
    graph = frozenset(e for e in tree.edges if e != removed)
    instance = HardInstance(tree.n, graph, 1 if removed is None else 0, removed)
    assert instance.base_tree == tree
    parsed = hard_instance_from_text(hard_instance_to_text(instance))
    assert parsed == instance
    assert parsed.base_tree == tree


# sha256 of reports_to_csv for the benchmark's connectivity spec and a
# small st-connectivity spec at seeds 0-2, recorded when answers became
# counter-based; a refactor that keeps every realisation keeps these
ROWS_GOLDEN = {
    (0, "connectivity"): "f94d3b8af17b2ffad623ef0b7da7482ff371d122b79aba032233597ceb6ead6a",
    (1, "connectivity"): "ebf6475fc07d77e2c5df4400a3b321dde321c8fafcce92c8d2b4e8ea0ee2f5a1",
    (2, "connectivity"): "4a98e0379e949ded7dc3afa2e58170d6244e05b420142e003e3cf3fdfee53c84",
    (0, "st-connectivity"): "5b620c544f06704756ac87bc2b08f96a541f2d714f8c41a69fa9228e1cbceab3",
    (1, "st-connectivity"): "6a3382c95f6f7761d272f29c183d4046c867875dd09655fa3047762ed3ef8731",
    (2, "st-connectivity"): "ee39acdd87cb750cffc12f14fcdfe28f2c3a1c2636f4d921b94c5d4dd97f2a0f",
}
GOLDEN_SPECS = {
    "connectivity": ExperimentSpec("connectivity", n=50, p=0.2, delta=0.05, trials=40),
    "st-connectivity": ExperimentSpec("st-connectivity", n=30, p=0.2, delta=0.1, trials=20),
}


@pytest.mark.parametrize("seed,kind", sorted(ROWS_GOLDEN))
def test_connectivity_rows_golden(seed, kind):
    csv = reports_to_csv([run_experiment(dataclasses.replace(GOLDEN_SPECS[kind], seed=seed))])
    assert hashlib.sha256(csv.encode()).hexdigest() == ROWS_GOLDEN[(seed, kind)]
