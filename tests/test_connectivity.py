import dataclasses
import hashlib
import math
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.stats import chi2

from noisyquery import (
    EdgeOracle,
    ExperimentSpec,
    HARD_BALANCE,
    InfeasibleBalance,
    LabeledTree,
    NoiseModel,
    RejectionCapExceeded,
    UnionFind,
    balanced_edges,
    check_balance_feasible,
    components_of,
    derive_rng,
    is_connected_graph,
    naive_connectivity,
    naive_st_connectivity,
    reports_to_csv,
    run_experiment,
    sample_hard_instance,
    sample_ust,
    seed_sequence,
    theory_bound,
)
from noisyquery import connectivity, harness
from noisyquery.connectivity import _component_labels, _reconstruct, pair_barriers
from noisyquery.walks import barrier

from conftest import exact_check


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
    numpy_sized = UnionFind(np.int64(3))
    assert type(numpy_sized.component_count) is int and numpy_sized.component_sizes() == [1, 1, 1]


@pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "3", None])
def test_union_find_rejects_non_integer_sizes(n):
    # the integer rule: no bool, float or other non-integer size, at every entry point
    with pytest.raises(ValueError, match="integer"):
        UnionFind(n)
    with pytest.raises(ValueError, match="integer"):
        components_of(n, [(0, 1)])
    with pytest.raises(ValueError, match="integer"):
        is_connected_graph(n, [])


def test_hard_instance_label_matches_connectivity():
    n = 60
    for seed in range(200):
        instance = sample_hard_instance(n, derive_rng(67, "hard", seed))
        assert instance.connected == is_connected_graph(n, instance.graph)
        cut = () if instance.removed_edge is None else (instance.removed_edge,)
        # the graph and its cut edge form a tree, as the tree's construction checks
        LabeledTree(n, (*instance.graph, *cut))
        if instance.label == 1:
            assert instance.removed_edge is None
        else:
            assert instance.removed_edge is not None
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
    cut = () if removed is None else (removed,)
    assert LabeledTree(n, (*instance.graph, *cut)) == tree
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


@pytest.mark.parametrize("kind", ["connectivity", "st-connectivity"])
@pytest.mark.parametrize("beta", [Fraction(1, 21), Fraction(1, 5), Fraction(1, 3)])
@pytest.mark.parametrize("n", [2, 3, 12, 50])
def test_parent_array_trials_match_the_public_samplers(n, beta, kind):
    # a harness trial draws from the parent array, never through the public
    # sampler; its graph and truth are the sampler's, draw for draw, and an
    # st trial's terminals are the next two draws of the sampler's stream
    noise = NoiseModel(0.2)
    for seed in (0, 57, 2**40 + 3):
        spec = ExperimentSpec(kind, n=n, p=0.2, delta=0.1, beta=beta, trials=10, seed=seed)
        for trial in range(spec.trials):
            oracle, truth, terminals = harness._connectivity_case(spec, trial, noise, beta)
            twin = derive_rng(seed, kind, "instance", trial)
            instance = sample_hard_instance(n, twin, beta=beta)
            if kind == "connectivity":
                assert terminals is None and truth == (instance.label == 1)
            else:
                s, t = int(twin.integers(0, n)), int(twin.integers(0, n))
                assert terminals == (s, t)
                assert truth == components_of(n, instance.graph).connected(s, t)
            assert np.array_equal(oracle._bits, EdgeOracle(n, instance.graph, noise, 0)._bits)
            assert oracle.noise is noise


# sha256 of repr((sorted graph edges, label, removed edge)) of
# sample_hard_instance(600, ...) at seeds 0-2: at n = 600 Wilson's early
# walks are long enough for its chunked phase to run, which n = 50 never
# reaches
HARD_600_GOLDEN = {
    0: "d7750ce985395a39561c53c49c391b696fc23d94d34e9ef2d8c1d248c4c12f2b",
    1: "9416d85462b2f0aed3ab200a05751e34d62884460654c9cbe82830ccf09b8552",
    2: "7e1e463284758e194db4fdeaa46e3132b83622fa6a2d7daabebd6fd53d718616",
}


@pytest.mark.parametrize("seed", sorted(HARD_600_GOLDEN))
def test_hard_instance_golden_n600(seed):
    instance = sample_hard_instance(600, derive_rng(seed, "hard", 600))
    key = repr((sorted(instance.graph), instance.label, instance.removed_edge))
    assert hashlib.sha256(key.encode()).hexdigest() == HARD_600_GOLDEN[seed]


def test_hard_instance_coin_is_fair():
    n, samples = 60, 2000
    rng = derive_rng(69, "coin")
    connected = sum(sample_hard_instance(n, rng).label for _ in range(samples))
    assert abs(connected / samples - 0.5) <= 3.0 * math.sqrt(0.25 / samples)


def test_hard_instance_rejection_cap(monkeypatch):
    # beta = 5/11 is feasible on 11 vertices (a 5/6 split), but the first
    # tree of this stream has no such edge: the cap itself gives up
    beta = Fraction(5, 11)
    monkeypatch.setattr(connectivity, "DEFAULT_REJECTION_CAP", 1)
    with pytest.raises(RejectionCapExceeded, match="in 1 sampled trees") as raised:
        sample_hard_instance(11, derive_rng(71, "cap", 3), beta=beta)
    assert not isinstance(raised.value, InfeasibleBalance)
    monkeypatch.undo()
    assert sample_hard_instance(11, derive_rng(71, "cap", 3), beta=beta)


def balance_check(n, gen):
    # check_balance_feasible in the sampler's signature; it draws nothing
    return check_balance_feasible(n, HARD_BALANCE)


@pytest.mark.parametrize("sampler", [sample_hard_instance, balance_check])
@pytest.mark.parametrize("n", [True, 5.0, 5.5])
def test_instance_samplers_reject_non_integer_sizes(sampler, n):
    gen = derive_rng(0, "size")
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="integer"):
        sampler(n, gen)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("sampler", [sample_hard_instance])
def test_instance_samplers_accept_numpy_integers(sampler):
    drawn = sampler(np.int64(50), derive_rng(0, "size"))
    assert drawn == sampler(50, derive_rng(0, "size"))
    assert type(drawn.n) is int


def test_infeasible_balance_fails_before_sampling(monkeypatch):
    # a cap no run could exhaust: the check must fire before any tree
    monkeypatch.setattr(connectivity, "DEFAULT_REJECTION_CAP", 10**12)
    for n, beta in ((1, Fraction(1, 21)), (3, Fraction(49, 100)), (11, Fraction(49, 100))):
        with pytest.raises(InfeasibleBalance) as raised:
            sample_hard_instance(n, derive_rng(71, "infeasible", n), beta=beta)
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
    # numpy integers are vertex counts too
    assert check_balance_feasible(np.int64(30), "1/21") == Fraction(1, 21)
    # a numpy scalar is the exact value .item() gives
    assert check_balance_feasible(50, np.float32(0.05)) == Fraction(np.float32(0.05).item())


@pytest.mark.parametrize(
    "beta", [None, float("inf"), float("-inf"), float("nan"), 1j, [0.1], np.float32(0.5), np.float64("inf")]
)
@pytest.mark.parametrize("call", [check_balance_feasible, sample_hard_instance])
def test_balance_thresholds_that_are_not_reals_in_range_raise_value_error(call, beta):
    # every refused threshold is a parameter error, whatever its type
    with pytest.raises(ValueError):
        call(50, beta) if call is check_balance_feasible else call(50, derive_rng(79, "beta"), beta=beta)


def st_trials(n, samples, seed):
    """``(oracle, truth, terminals)`` of each of an st-connectivity experiment's trials."""
    spec = ExperimentSpec("st-connectivity", n=n, p=0.2, delta=0.1, trials=samples, seed=seed)
    frac = check_balance_feasible(n, HARD_BALANCE)
    noise = NoiseModel(spec.p)
    return (harness._connectivity_case(spec, trial, noise, frac) for trial in range(samples))


def test_st_instance_terminals_uniform():
    n, samples = 20, 20000
    counts_s = [0] * n
    counts_t = [0] * n
    equal = 0
    for _, _, (s, t) in st_trials(n, samples, 73):
        counts_s[s] += 1
        counts_t[t] += 1
        equal += s == t
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
    crossings = 0
    predicted = 0.0
    disconnected = 0
    for oracle, truth, (s, t) in st_trials(n, samples, 75):
        us, vs = oracle._pairs(np.flatnonzero(oracle._bits))
        comps = components_of(n, zip(us.tolist(), vs.tolist()))
        assert truth == comps.connected(s, t)
        if comps.component_count == 1:
            continue
        disconnected += 1
        a, b = comps.component_sizes()
        predicted += 2 * a * b / n**2
        crossings += not truth
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
    # n - 1 = 49 tree edges and C(50,2) = 1225 pairs at p = 0.2:
    # log(49/0.05)/log 4 = 4.96 and log(1225/0.05)/log 4 = 7.29
    assert pair_barriers(NoiseModel(0.2), 50, 0.05) == (5, 8)


@pytest.mark.parametrize("n", [2, 3, 12, 50, 400])
@pytest.mark.parametrize("p", [1e-3, 0.2, 0.45])
@pytest.mark.parametrize("delta", [1e-12, 0.05, 0.3])
def test_pair_barriers_bound_the_exact_error(n, p, delta):
    # a connected graph is misread only through a missed edge of one
    # spanning tree (n - 1 one-bits), a disconnected one only through a
    # declared non-edge (at most C(n,2) zero-bits)
    noise = NoiseModel(p)
    pairs = n * (n - 1) // 2
    a, b = pair_barriers(noise, n, delta)
    assert (a, b) == (barrier(noise, n - 1, delta), barrier(noise, pairs, delta))
    assert (n - 1) * exact_check(p, a, b, 1)[0] <= delta
    assert pairs * exact_check(p, a, b, 0)[0] <= delta


@pytest.mark.parametrize("cut", [False, True])
def test_naive_connectivity_cost_is_the_exact_law(cut):
    # a fixed tree on 12 vertices, whole or less one edge: each of the m
    # edges costs E1 queries on average and each other pair E0
    n, p, delta, streams = 12, 0.2, 0.1, 300
    edges = sample_ust(n, derive_rng(87, "cost-tree")).edges[cut:]
    m, pairs = len(edges), n * (n - 1) // 2
    a, b = pair_barriers(NoiseModel(p), n, delta)
    expected = m * exact_check(p, a, b, 1)[1] + (pairs - m) * exact_check(p, a, b, 0)[1]
    queries = []
    for t in range(streams):
        oracle = EdgeOracle(n, edges, p, seed_sequence(87, "cost", int(cut), t))
        naive_connectivity(oracle, delta)
        queries.append(oracle.ledger.total_queries)
    standard_error = np.std(queries, ddof=1) / math.sqrt(streams)
    assert abs(np.mean(queries) - expected) <= 4.0 * standard_error


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
        gen = derive_rng(83, "st-noiseless", seed)
        instance = sample_hard_instance(25, gen)
        s, t = int(gen.integers(0, 25)), int(gen.integers(0, 25))
        oracle = NoiselessEdgeOracle(25, instance.graph)
        truth = components_of(25, instance.graph).connected(s, t)
        assert naive_st_connectivity(oracle, s, t, 0.05) == truth
    with pytest.raises(ValueError):
        naive_st_connectivity(NoiselessEdgeOracle(5, []), 0, 5, 0.05)


def test_reconstruct_a_block_equals_each_oracle_alone():
    # one walk over five oracles' pairs: the same component labels,
    # counters and ledgers as five reconstructions of one oracle each
    n, p, delta = 15, 0.25, 0.2
    graphs = [sample_hard_instance(n, derive_rng(85, "block", t)).graph for t in range(5)]
    twins = [[EdgeOracle(n, g, p, seed_sequence(85, "noise", t)) for t, g in enumerate(graphs)] for _ in range(2)]
    labels = _reconstruct(twins[0], delta)
    assert labels.shape == (5, n)
    for row, together, alone in zip(labels, *twins):
        (own,) = _reconstruct([alone], delta)
        assert row.tolist() == own.tolist()
        assert together._counters.tolist() == alone._counters.tolist()
        assert together.ledger == alone.ledger
    singletons = _reconstruct([NoiselessEdgeOracle(1, []), NoiselessEdgeOracle(1, [])], delta)
    assert singletons.tolist() == [[0], [0]]
    with pytest.raises(ValueError, match="same number of slots"):
        _reconstruct([NoiselessEdgeOracle(1, []), NoiselessEdgeOracle(2, [])], delta)


def least_vertices(n, edges):
    """Each vertex's least connected vertex, from a union-find forest."""
    forest = components_of(n, edges)
    return [min(x for x in range(n) if forest.connected(x, v)) for v in range(n)]


def graph_kinds(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return st.one_of(st.just([]), st.just(pairs), st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))


@hypothesis.given(n=st.integers(1, 12), data=st.data())
def test_block_labels_match_union_find_components(n, data):
    # a block of graphs on n vertices (none, all, or some of the pairs)
    # labels every vertex with its component's least vertex, as a
    # union-find forest per graph gives it; so does one label call over
    # the block's edges in any order, reversed, repeated or as self-loops
    graphs = data.draw(st.lists(graph_kinds(n), min_size=1, max_size=5))
    expected = [least_vertices(n, graph) for graph in graphs]
    oracles = [NoiselessEdgeOracle(n, graph) for graph in graphs]
    assert _reconstruct(oracles, 0.1).tolist() == expected
    for oracle, graph, labels in zip(oracles, graphs, expected):
        assert naive_connectivity(oracle, 0.1) == (components_of(n, graph).component_count == 1)
        s, t = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert naive_st_connectivity(oracle, s, t, 0.1) == (labels[s] == labels[t])
    edges = [(t * n + u, t * n + v) for t, graph in enumerate(graphs) for u, v in graph]
    edges += [(v, v) for v in data.draw(st.lists(st.integers(0, len(graphs) * n - 1), max_size=3))]
    edges = data.draw(st.permutations(edges + data.draw(st.lists(st.sampled_from(edges), max_size=5) if edges else st.just([]))))
    edges = [edge[:: data.draw(st.sampled_from([1, -1]))] for edge in edges]
    us, vs = (np.array([edge[i] for edge in edges], dtype=np.int64) for i in (0, 1))
    labels = _component_labels(len(graphs) * n, us, vs).reshape(len(graphs), n)
    assert (labels - np.arange(len(graphs))[:, None] * n).tolist() == expected


@pytest.mark.parametrize("s, t", [(0, 3.5), (3.0, 0), (True, 0), (0, False), ("1", 2), (None, 0)])
def test_naive_st_connectivity_refuses_terminals_that_are_not_integers(s, t):
    # 3.5 passed the range check and then failed as a list index; True read as vertex 1
    oracle = NoiselessEdgeOracle(5, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="must be an integer"):
        naive_st_connectivity(oracle, s, t, 0.05)
    assert oracle.ledger.total_queries == 0
    assert naive_st_connectivity(oracle, np.int64(0), np.int32(2), 0.05)


def test_naive_connectivity_validation():
    oracle = NoiselessEdgeOracle(4, [(0, 1)])
    with pytest.raises(ValueError):
        naive_connectivity(oracle, 0.0)
    with pytest.raises(ValueError):
        naive_connectivity(oracle, 1.0)


# sha256 of reports_to_csv for the benchmark's connectivity spec and a
# small st-connectivity spec at seeds 0-2, recorded when answers became
# counter-based and re-recorded when non-edges' walks stopped at
# barrier(n-1); a refactor that keeps every realisation keeps these
ROWS_GOLDEN = {
    (0, "connectivity"): "cdc4ed7ffb4a272fac5ee8e69ebc46bdf08152d6812c82a62ad94de568f984a6",
    (1, "connectivity"): "15206c998f7443e34be03438b06916efa4a47fb511377aab7b5cf9dcfc878101",
    (2, "connectivity"): "12e5efa1fd6303ffb8fb1a98745945feab73cf9ebe71c852e380e6ba2aa7797a",
    (0, "st-connectivity"): "943dc8f80c32c91f546a9ec843aaeabac245b424bcc239b514f0e59fee36a4fb",
    (1, "st-connectivity"): "62126d4189a46589b6961388a1d4af12c7d4de20b6dc80a87b4841d4b8172165",
    (2, "st-connectivity"): "a51a0ede3689f702ea6c28ac73964dd33629042167155ddbddbdbfa860d989c1",
}
GOLDEN_SPECS = {
    "connectivity": ExperimentSpec("connectivity", n=50, p=0.2, delta=0.05, trials=40),
    "st-connectivity": ExperimentSpec("st-connectivity", n=30, p=0.2, delta=0.1, trials=20),
}


@pytest.mark.parametrize("seed,kind", sorted(ROWS_GOLDEN))
def test_connectivity_rows_golden(seed, kind):
    csv = reports_to_csv([run_experiment(dataclasses.replace(GOLDEN_SPECS[kind], seed=seed))])
    assert hashlib.sha256(csv.encode()).hexdigest() == ROWS_GOLDEN[(seed, kind)]
