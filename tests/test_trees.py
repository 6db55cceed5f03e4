from fractions import Fraction

import hypothesis
from hypothesis import strategies as st
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
    sample_ust_prufer,
    structure_scaling_report,
    tree_from_text,
    tree_to_prufer,
    tree_to_text,
)


def prufer_trees(max_n=40):
    """Labeled trees on 1..max_n vertices, from their Prufer sequences."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)).map(
            lambda seq: prufer_to_tree(seq, n)
        )
    )


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


def test_prufer_sampler_uniformity_n4():
    samples = 20000
    support = set(t.edges for t in enumerate_trees(4))
    observed = {}
    rng = derive_rng(55, "uniform4-prufer")
    for _ in range(samples):
        key = sample_ust_prufer(4, rng).edges
        observed[key] = observed.get(key, 0) + 1
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


def test_scaling_report_validation():
    with pytest.raises(ValueError):
        structure_scaling_report([], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([5, 20], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([20, 20], 10, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        structure_scaling_report([20, 40], 0, Fraction(1, 3), 0)


def test_tree_text_round_trip():
    tree = path_tree(4)
    text = tree_to_text(tree)
    assert text == "1 2\n2 3\n3 4\n"
    assert tree_from_text(text) == tree
    assert tree_from_text("", n=1) == LabeledTree(1, ())
    for seed in range(10):
        tree = sample_ust(30, derive_rng(65, "ser", seed))
        assert tree_from_text(tree_to_text(tree)) == tree
    with pytest.raises(ValueError):
        tree_from_text("1 2 3\n")


@hypothesis.given(prufer_trees())
def test_tree_text_round_trip_property(tree):
    assert tree_from_text(tree_to_text(tree)) == tree
    assert tree_from_text(tree_to_text(tree), tree.n) == tree
