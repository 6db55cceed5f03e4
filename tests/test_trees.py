import hashlib
import heapq
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.stats import chi2

from noisyquery import (
    LabeledTree,
    balanced_edges,
    cayley_tree_count,
    derive_rng,
    edges_form_chain,
    enumerate_trees,
    prufer_to_tree,
    sample_ust,
    structure_scaling_report,
)
from noisyquery.trees import _CHUNK, _LONG_WALK, _balance, _wilson


def reference_wilson(n, gen):
    """Wilson's walk read one draw at a time: the reference ``_wilson``
    must match in its trees and in the draws it takes."""
    parent = [0] * n
    if n <= 2:
        return parent, list(range(1, n))
    order = []
    in_tree = bytearray(n)
    in_tree[0] = 1
    buf = []
    pos = 0
    top = n - 1
    for start in range(1, n):
        if in_tree[start]:
            continue
        cur = start
        while not in_tree[cur]:
            if pos == len(buf):
                buf = gen.integers(0, top, size=1024).tolist()
                pos = 0
            step = buf[pos]
            pos += 1
            if step >= cur:
                step += 1
            parent[cur] = step
            cur = step
        path = []
        cur = start
        while not in_tree[cur]:
            in_tree[cur] = 1
            path.append(cur)
            cur = parent[cur]
        path.reverse()
        order += path
    return parent, order


def reference_balance(n, parent, order, frac):
    """Subtree sizes in one pass and the balance rule in a second, as
    ``side * den >= num * n`` on both sides: the reference the one-pass
    ``_balance`` must match exactly on trees."""
    subtree = [1] * n
    for v in reversed(order):
        subtree[parent[v]] += subtree[v]
    bar = frac.numerator * n
    den = frac.denominator
    balanced = []
    s_sum = 0
    for v in order:
        side = subtree[v]
        other = n - side
        s_sum += min(side, other)
        if side * den >= bar and other * den >= bar:
            u = parent[v]
            balanced.append((min(u, v), max(u, v)))
    balanced.sort()
    return subtree, balanced, s_sum


def tree_to_prufer(tree):
    """Prufer sequence of a tree, the inverse of ``prufer_to_tree``: remove
    the smallest leaf n-2 times, recording its neighbour each time."""
    n = tree.n
    neighbors = [set() for _ in range(n)]
    for u, v in tree.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    leaves = [v for v in range(n) if len(neighbors[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (parent,) = neighbors[leaf]
        seq.append(parent)
        neighbors[parent].discard(leaf)
        if len(neighbors[parent]) == 1:
            heapq.heappush(leaves, parent)
    return tuple(seq)


def path_tree(n):
    return LabeledTree(n, tuple((i, i + 1) for i in range(n - 1)))


def star_tree(n):
    return LabeledTree(n, tuple((0, i) for i in range(1, n)))


def chi_square_pvalue(observed, expected_count, support):
    stat = 0.0
    for key in support:
        obs = observed.get(key, 0)
        stat += (obs - expected_count) ** 2 / expected_count
    return float(chi2.sf(stat, len(support) - 1))


def test_sample_ust_valid_trees():
    for n in (1, 2, 3, 7, 40, 200):
        for seed in range(5):
            tree = sample_ust(n, derive_rng(51, "valid", n, seed))
            tree.validate()
            assert tree.n == n
            assert len(tree.edges) == n - 1


def test_sample_ust_trivial_sizes():
    assert sample_ust(1, derive_rng(0, "t")).edges == ()
    assert sample_ust(2, derive_rng(0, "t")).edges == ((0, 1),)


@pytest.mark.parametrize("n", [True, 5.0, 5.5])
def test_sample_ust_rejects_non_integer_sizes(n):
    gen = derive_rng(0, "size")
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="integer"):
        sample_ust(n, gen)
    assert gen.bit_generator.state == state


def test_sample_ust_accepts_numpy_integers():
    tree = sample_ust(np.int64(5), derive_rng(0, "size"))
    assert type(tree.n) is int
    assert tree == sample_ust(5, derive_rng(0, "size"))


def test_prufer_bijection_round_trip():
    for n in (2, 3, 5, 8, 12):
        for seed in range(20):
            tree = sample_ust(n, derive_rng(53, "bij", n, seed))
            assert prufer_to_tree(tree_to_prufer(tree), n) == tree
    # and on the sequence side
    for seed in range(50):
        rng = derive_rng(53, "seqside", seed)
        n = int(rng.integers(3, 9))
        seq = tuple(int(v) for v in rng.integers(0, n, size=n - 2))
        assert tree_to_prufer(prufer_to_tree(seq, n)) == seq


def test_enumeration_matches_cayley():
    for n in range(1, 7):
        trees = set(t.edges for t in enumerate_trees(n))
        assert len(trees) == cayley_tree_count(n)
    assert cayley_tree_count(7) == 16807
    with pytest.raises(ValueError):
        list(enumerate_trees(8))


def test_prufer_validation():
    with pytest.raises(ValueError):
        prufer_to_tree([0, 1], 3)
    with pytest.raises(ValueError):
        prufer_to_tree([5], 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: LabeledTree(2.5, ((0, 1),)),
        lambda: LabeledTree(True, ()),
        lambda: LabeledTree(3, ((0, 1.5), (1, 2))),  # int() would read the edge as (0, 1)
        lambda: LabeledTree(3, ((0, "1"), (1, 2))),
        lambda: LabeledTree(3, ((0, True), (1, 2))),
        lambda: LabeledTree(3, ((0, 1), (1, np.float64(2.0)))),
        lambda: prufer_to_tree([0.5], 3),
        lambda: prufer_to_tree(["1"], 3),
        lambda: prufer_to_tree([True], 3),
        lambda: prufer_to_tree([0], 3.0),
        lambda: prufer_to_tree([], True),
        lambda: list(enumerate_trees(3.0)),
        lambda: list(enumerate_trees(True)),
        lambda: cayley_tree_count(2.5),
        lambda: cayley_tree_count(True),
    ],
)
def test_trees_refuse_non_integer_counts_and_vertices(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_trees_accept_numpy_integer_counts_and_vertices():
    tree = LabeledTree(np.int64(3), ((np.int64(1), np.int32(0)), (np.uint8(2), 1)))
    assert tree == LabeledTree(3, ((0, 1), (1, 2)))
    assert type(tree.n) is int
    assert all(type(v) is int for edge in tree.edges for v in edge)
    assert prufer_to_tree(np.array([0, 1]), np.int64(4)) == prufer_to_tree([0, 1], 4)
    assert len(list(enumerate_trees(np.int64(4)))) == cayley_tree_count(np.int64(4)) == 16


def test_wilson_uniformity_n4():
    samples = 20000
    support = set(t.edges for t in enumerate_trees(4))
    assert len(support) == 16
    observed = {}
    rng = derive_rng(55, "uniform4")
    for _ in range(samples):
        key = sample_ust(4, rng).edges
        observed[key] = observed.get(key, 0) + 1
    assert set(observed) <= support
    assert chi_square_pvalue(observed, samples / 16, support) > 1e-3


def test_tree_validation_rejects_malformed():
    with pytest.raises(ValueError):
        LabeledTree(3, ((0, 1), (1, 2), (0, 2))).validate()  # cycle
    with pytest.raises(ValueError):
        LabeledTree(4, ((0, 1), (2, 3))).validate()  # too few edges
    with pytest.raises(ValueError):
        LabeledTree(4, ((0, 1), (1, 2), (0, 2))).validate()  # cycle + isolated vertex
    with pytest.raises(ValueError):
        LabeledTree(3, ((0, 1), (0, 1), (1, 2)))  # duplicate edge
    with pytest.raises(ValueError):
        LabeledTree(3, ((0, 0), (1, 2)))  # self loop
    with pytest.raises(ValueError, match="out of vertex range"):
        LabeledTree(3, ((0, 1), (1, 3)))  # vertex 3 of 3
    with pytest.raises(ValueError):
        balanced_edges(LabeledTree(4, ((0, 1), (2, 3))), Fraction(1, 3))


def test_balanced_edges_path6():
    report = balanced_edges(path_tree(6), Fraction(1, 3))
    assert report.balanced_edges == ((1, 2), (2, 3), (3, 4))


def test_balanced_edges_star5():
    report = balanced_edges(star_tree(5), Fraction(1, 3))
    assert report.balanced_edges == ()


def test_balanced_edges_path4_s_values():
    report = balanced_edges(path_tree(4), Fraction(1, 3))
    assert report.s_values == {(0, 1): 1, (1, 2): 2, (2, 3): 1}
    assert report.s_sum == 4


def test_balanced_edges_n2_boundary():
    report = balanced_edges(LabeledTree(2, ((0, 1),)), Fraction(1, 3))
    assert report.balanced_edges == ((0, 1),)
    assert report.s_values == {(0, 1): 1}


def test_balance_threshold_validation():
    tree = path_tree(5)
    with pytest.raises(ValueError):
        balanced_edges(tree, Fraction(1, 2))
    with pytest.raises(ValueError):
        balanced_edges(tree, 0)
    # strings and floats are accepted and made exact
    assert balanced_edges(tree, "1/3").beta == Fraction(1, 3)


def test_balanced_monotone_in_beta():
    for seed in range(30):
        tree = sample_ust(60, derive_rng(57, "mono", seed))
        loose = set(balanced_edges(tree, Fraction(1, 21)).balanced_edges)
        mid = set(balanced_edges(tree, Fraction(1, 7)).balanced_edges)
        tight = set(balanced_edges(tree, Fraction(1, 3)).balanced_edges)
        assert tight <= mid <= loose


def test_split_size_conservation():
    for seed in range(20):
        n = 50
        tree = sample_ust(n, derive_rng(59, "cons", seed))
        report = balanced_edges(tree, Fraction(1, 3))
        assert set(report.s_values) == set(tree.edges)
        for edge, smaller in report.s_values.items():
            assert 1 <= smaller <= n // 2
        assert report.s_sum == sum(report.s_values.values())


def test_chain_property_sampled():
    for n in (10, 50, 200):
        for seed in range(100):
            tree = sample_ust(n, derive_rng(61, "chain", n, seed))
            report = balanced_edges(tree, Fraction(1, 3))
            assert edges_form_chain(report.balanced_edges)


def test_edges_form_chain_cases():
    assert edges_form_chain(())
    assert edges_form_chain(((2, 5),))
    assert edges_form_chain(((0, 1), (1, 2), (2, 3)))
    assert not edges_form_chain(((0, 1), (0, 2), (0, 3)))  # star
    assert not edges_form_chain(((0, 1), (2, 3)))  # disconnected
    assert not edges_form_chain(((0, 1), (1, 2), (0, 2)))  # cycle


def test_scaling_report_small_grid():
    report = structure_scaling_report([16, 32, 64, 128], 40, Fraction(1, 3), seed=63)
    assert [row.n for row in report.rows] == [16, 32, 64, 128]
    assert all(row.samples == 40 for row in report.rows)
    assert 0.2 <= report.balanced_median_slope <= 0.8
    assert 1.2 <= report.s_sum_median_slope <= 1.8
    # medians of integer statistics are halves at worst
    for row in report.rows:
        assert row.s_sum_median > 0
    # deterministic for a fixed seed
    again = structure_scaling_report([16, 32, 64, 128], 40, Fraction(1, 3), seed=63)
    assert again == report


# sha256 of repr(structure_scaling_report(...)) on the benchmark grid at
# seeds 0-2; the ust-stats CLI golden covers only n <= 64
SCALING_GRID = (100, 200, 400, 800, 1600, 3200, 6400)
SCALING_GOLDEN = {
    0: "1f86c8549b9513090a2cf5a7bf686cd30c21d3476d71f76cfc48082d083d03f8",
    1: "cc8a25aed9b1d73923d100b00e86567971e489e382d1e6bbb9e7e84e02026772",
    2: "215f099066bade5503d177a0ed536f8cb501df215e06b9e00c2338a627c512e4",
}


@pytest.mark.parametrize("seed", sorted(SCALING_GOLDEN))
def test_scaling_report_golden(seed):
    report = structure_scaling_report(SCALING_GRID, 4, Fraction(1, 3), seed)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == SCALING_GOLDEN[seed]


def test_scaling_report_validation():
    with pytest.raises(ValueError):
        structure_scaling_report([], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([5, 20], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([20, 20], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([20, 40], 0, Fraction(1, 3), 0)


@pytest.mark.parametrize(
    "grid,samples",
    [
        ([100.7, 200], 2),
        ([100, 200.0], 2),
        ([True, 200], 2),
        ([100, 200], True),
        ([100, 200], 2.5),
        ([100, 200], "2"),
    ],
)
def test_scaling_report_rejects_non_integer_counts(grid, samples):
    with pytest.raises(ValueError, match="integers"):
        structure_scaling_report(grid, samples, Fraction(1, 3), 0)


def test_scaling_report_accepts_numpy_integers():
    report = structure_scaling_report(np.array([16, 32]), np.int64(2), Fraction(1, 3), 0)
    assert report == structure_scaling_report([16, 32], 2, Fraction(1, 3), 0)
    assert all(type(row.n) is int and type(row.samples) is int for row in report.rows)


def test_scaling_report_needs_two_sizes():
    # one size leaves the log-log slope undefined
    with pytest.raises(ValueError, match="two sizes"):
        structure_scaling_report([16], 10, Fraction(1, 3), 0)


@hypothesis.given(st.integers(1, 300), st.integers(0, 2**32))
def test_sample_ust_is_wilson_parents(n, seed):
    parent, order = _wilson(n, derive_rng(seed, "wilson", n))
    edges = tuple(sorted((min(v, parent[v]), max(v, parent[v])) for v in order))
    assert sample_ust(n, derive_rng(seed, "wilson", n)).edges == edges


@hypothesis.given(st.integers(10, 300), st.integers(0, 2**32))
def test_scaling_path_matches_balanced_edges(n, seed):
    # one tree per size, so each row's mean is that tree's count and sum
    beta = Fraction(1, 3)
    report = structure_scaling_report([n, n + 1], 1, beta, seed)
    for size, row in zip((n, n + 1), report.rows):
        reference = balanced_edges(sample_ust(size, derive_rng(seed, "ust-scaling", size, 0)), beta)
        assert (row.balanced_mean, row.s_sum_mean) == (len(reference.balanced_edges), reference.s_sum)


def test_balance_sizes_on_a_path():
    # 0 - 1 - 2 - 3, rooted at 0: at beta 1/3 both sides need 2 vertices
    assert _balance(4, [0, 0, 1, 2], [1, 2, 3], Fraction(1, 3)) == ([4, 3, 2, 1], [(1, 2)], 4)
    assert _balance(1, [0], [], Fraction(1, 3)) == ([1], [], 0)


@pytest.mark.parametrize(
    "parent,order",
    [
        ([0, 2, 1], [1, 2]),  # 2-cycle 1 <-> 2, cut off from the root
        ([0, 0, 1], [1]),  # vertex 2 missing from order
        ([0, 0, 1], [1, 1]),  # vertex 1 twice, 2 missing: the pass alone would reach 3
        ([0, 0, 1], [1, 2, 2]),  # a duplicate on top of a full order
        ([0, 0, 1], [0, 1]),  # the root listed
        ([0, 0, 1], [2, 1]),  # child 2 before its parent 1
        ([0, 0, 3], [1, 2]),  # parent outside the vertex range
        ([0, 0, -1], [1, 2]),  # negative parent, which list indexing would wrap
        ([0, 0, 1.0], [1, 2]),  # a parent that is not an integer
        ([0, 0, 1], [1, 2.0]),  # an order entry that is not an integer
        ([0, 0, 0], [-1, 1]),  # -1 would index vertex 2, so the pass alone would reach 3
        ([0, 0, 1], [1, 3]),  # an order entry past the last vertex
        ([0, 0], [1, 2]),  # too few parents
        ([0, 0, 1, 1], [1, 2]),  # too many parents
    ],
)
def test_balance_rejects_non_trees(parent, order):
    with pytest.raises(ValueError):
        _balance(3, parent, order, Fraction(1, 3))


@hypothesis.given(
    st.integers(1, 300),
    st.integers(0, 2**32),
    st.sampled_from(["wilson", "prufer", "path"]),
    st.sampled_from([Fraction(1, 21), Fraction(1, 3), 0.3, "exact"]),
    st.integers(1, 149),
)
def test_balance_matches_two_pass_reference(n, seed, source, beta, m):
    if source == "wilson":
        parent, order = _wilson(n, derive_rng(seed, "balance-ref", n))
    elif source == "prufer":
        seq = derive_rng(seed, "balance-ref", n).integers(0, n, size=max(n - 2, 0)).tolist()
        parent, order = prufer_to_tree(seq, n)._rooted()
    else:
        parent, order = path_tree(n)._rooted()
    if beta == "exact":
        # m/n with m < n/2 puts the balance bound on an integer side, m
        if n < 3:
            return
        beta = Fraction(min(m, (n - 1) // 2), n)
    frac = Fraction(beta)
    assert _balance(n, parent, order, frac) == reference_balance(n, parent, order, frac)


class ScriptedGen:
    """Generator stand-in for ``_wilson``: serves the scripted draws in
    chunks of ``_CHUNK``, then random chunks, and counts its calls."""

    def __init__(self, n, script, seed):
        self.top = n - 1
        self.script = list(script)
        self.fill = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, low, high, size):
        assert (low, high, size) == (0, self.top, _CHUNK)
        chunk = self.script[self.calls * _CHUNK : (self.calls + 1) * _CHUNK]
        self.calls += 1
        rest = self.fill.integers(0, self.top, size=_CHUNK - len(chunk))
        return np.concatenate([np.array(chunk, np.int64), rest])


class WalkScript:
    """Draws that steer Wilson's walks on K_n along chosen vertices.

    Follows the walks as ``reference_wilson`` takes them: each starts at
    the lowest vertex off the tree and ends on entering it, when its
    loop-erased path joins the tree.
    """

    def __init__(self, n, seed):
        self.n = n
        self.draws = []
        self.tree = {0}
        self.walk = None
        self.sizes = []  # the tree's size as each walk starts
        self.rng = np.random.default_rng(seed)

    def begin(self):
        assert self.walk is None
        self.sizes.append(len(self.tree))
        self.walk = [min(set(range(self.n)) - self.tree)]
        return self.walk[0]

    def draw(self, d):
        v = d + (d >= self.walk[-1])
        self.draws.append(d)
        self.walk.append(v)
        if v in self.tree:
            exits = dict(zip(self.walk, self.walk[1:]))  # last exits
            u = self.walk[0]
            while u not in self.tree:
                self.tree.add(u)
                u = exits[u]
            self.walk = None

    def move(self, v):
        cur = self.walk[-1]
        assert v != cur
        self.draw(v if v < cur else v - 1)

    def repeat(self):
        # the last draw again: it lands on draw + 1 if the walk stands at
        # the draw, else on the draw
        self.draw(self.draws[-1])

    def wander(self, until, pool):
        # random steps among pool until the script holds `until` draws
        assert not self.tree & set(pool)
        while len(self.draws) < until:
            v = int(self.rng.choice(pool))
            if v != self.walk[-1]:
                self.move(v)


def scripted_walks(n):
    """A script whose first walks, all in the chunked phase, read equal
    draws in a row mid-chunk, across a chunk boundary and on a walk's
    first draw, cross three chunks in one walk, and enter the tree on a
    chunk's last draw. Each case changes the tree if misread."""
    script = WalkScript(n, 7)
    # 1 -> 1000 -> 1001 in the first chunk, then over three chunks, so
    # parents from the first chunk survive loop erasure
    assert script.begin() == 1
    script.move(1000)
    script.move(1001)
    script.wander(2100, range(20, 30))
    script.move(1500)
    script.move(0)
    # enters the tree on the fourth chunk's last draw, 1499
    assert script.begin() == 2
    script.wander(4 * _CHUNK - 2, range(30, 40))
    script.move(2)
    script.move(1500)
    assert len(script.draws) == 4 * _CHUNK
    # first draws equal to the last one, at a chunk's start and then
    # mid-chunk: 1499 lands on 1500 past the start, in the tree
    for start in (3, 4):
        assert script.begin() == start
        script.draw(1499)
    # a first draw equal to the start lands one past it
    assert script.begin() == 5
    script.draw(5)
    script.move(1500)
    # mid-chunk: 1499 from 1600, then 1499 from 1499 lands on 1500
    assert script.begin() == 7
    script.move(1600)
    script.move(1499)
    script.repeat()
    # mid-chunk: 1600 from 8 lands on 1601, then 1600 from 1601 on 1600
    assert script.begin() == 8
    script.move(1601)
    script.repeat()
    # across the fifth chunk's end: 1599 from 1650, then 1599 from 1599
    # lands on 1600
    assert script.begin() == 9
    script.wander(5 * _CHUNK - 2, range(40, 50))
    script.move(1650)
    script.move(1599)
    script.repeat()
    assert script.walk is None and len(script.draws) == 5 * _CHUNK + 1
    return script


def test_wilson_scripted_chunks_match_reference():
    n = 4000
    script = scripted_walks(n)
    assert max(script.sizes) * _LONG_WALK < n - 1  # every scripted walk runs chunked
    for seed in range(5):
        new, old = ScriptedGen(n, script.draws, seed), ScriptedGen(n, script.draws, seed)
        parent, order = _wilson(n, new)
        assert (parent, order) == reference_wilson(n, old)
        assert new.calls == old.calls
        assert parent[1] == 1000 and parent[1000] == 1001
        assert parent[2] == parent[3] == parent[4] == parent[6] == 1500
        assert parent[5] == 6
        assert parent[1499] == 1500
        assert parent[1601] == parent[1599] == 1600


@hypothesis.given(st.integers(1, 2000), st.integers(0, 2**32))
def test_wilson_matches_one_draw_reference(n, seed):
    new_gen, old_gen = derive_rng(seed, "wilson-ref", n), derive_rng(seed, "wilson-ref", n)
    assert _wilson(n, new_gen) == reference_wilson(n, old_gen)
    assert new_gen.integers(0, 2**63) == old_gen.integers(0, 2**63)
