import numpy as np
import pytest

from noisyquery import TruthTable, boolfn, derive_rng, restriction_identity_residual


def brute_force_average_sensitivity(table):
    """Independent oracle: average over inputs of the number of
    sensitive coordinates, by direct enumeration."""
    n = table.arity
    total = 0
    for x in range(1 << n):
        for j in range(n):
            if table.evaluate(x) != table.evaluate(x ^ (1 << j)):
                total += 1
    return total / (1 << n)


def test_parity_influence():
    table = TruthTable.parity(5)
    for label in range(5):
        assert table.influence(label) == 1.0
    assert TruthTable.parity(7).total_influence() == 7.0


def test_or_influence():
    table = TruthTable.or_function(3)
    for label in range(3):
        assert table.influence(label) == 0.25
    assert table.total_influence() == 0.75


def test_dictator_influence():
    table = TruthTable.dictator(4, 0)
    assert table.influence(0) == 1.0
    assert table.influence(1) == 0.0
    assert table.total_influence() == 1.0


def test_constant_influence():
    for bit in (0, 1):
        assert TruthTable(np.full(2**6, bit, dtype=np.uint8)).total_influence() == 0.0


def test_influence_unknown_label():
    table = TruthTable.parity(3)
    with pytest.raises(ValueError):
        table.influence(3)
    with pytest.raises(ValueError):
        table.q_biased_influence(7, 0.2)


def test_q_biased_specializes_to_uniform_exactly():
    for seed in range(20):
        table = TruthTable.random(6, derive_rng(31, "spec", seed))
        for label in range(6):
            assert table.q_biased_influence(label, 0.5) == table.influence(label)


def test_q_biased_or2():
    table = TruthTable.or_function(2)
    # flipping one input changes OR iff the other input is 0
    assert table.q_biased_influence(0, 0.1) == pytest.approx(0.9, rel=1e-12)
    assert table.q_biased_influence(1, 0.1) == pytest.approx(0.9, rel=1e-12)


def test_q_biased_degenerate_biases():
    for seed in range(10):
        table = TruthTable.random(5, derive_rng(33, "deg", seed))
        for label in range(5):
            at_zero = table.q_biased_influence(label, 0.0)
            expected = float(table.evaluate(0) != table.evaluate(1 << label))
            assert at_zero == expected
            full = (1 << 5) - 1
            at_one = table.q_biased_influence(label, 1.0)
            assert at_one == float(table.evaluate(full) != table.evaluate(full ^ (1 << label)))


def test_q_biased_bounds():
    for seed in range(20):
        table = TruthTable.random(7, derive_rng(35, "bounds", seed))
        q = float(derive_rng(35, "bounds-q", seed).random())
        total = 0.0
        for label in range(7):
            value = table.q_biased_influence(label, q)
            assert 0.0 <= value <= 1.0
            total += value
        assert 0.0 <= total <= 7.0


def test_total_influence_equals_average_sensitivity():
    for seed in range(10):
        table = TruthTable.random(6, derive_rng(37, "avg-sens", seed))
        assert table.total_influence() == pytest.approx(brute_force_average_sensitivity(table), abs=1e-12)


def test_restrict_empty_assignment():
    table = TruthTable.random(5, derive_rng(39, "restrict"))
    assert table.restrict({}) == table


def test_restrict_parity_complement():
    table = TruthTable.parity(4)
    restricted = table.restrict({0: 1})
    assert restricted.arity == 3
    assert restricted.labels == (1, 2, 3)
    complement = TruthTable((1 - TruthTable.parity(3).values), labels=(1, 2, 3))
    assert restricted == complement


def test_restrict_or_to_constant():
    restricted = TruthTable.or_function(3).restrict({0: 1})
    assert restricted.values.tolist() == [1, 1, 1, 1]
    assert restricted.labels == (1, 2)


def test_restrict_multiple_and_labels():
    table = TruthTable.random(6, derive_rng(41, "multi"))
    restricted = table.restrict({1: 0, 4: 1})
    assert restricted.arity == 4
    assert restricted.labels == (0, 2, 3, 5)
    # agree with sequential restriction in the other order
    assert restricted == table.restrict({4: 1}).restrict({1: 0})
    with pytest.raises(ValueError):
        table.restrict({1: 2})
    with pytest.raises(ValueError):
        table.restrict({9: 0})


def test_restrict_accepts_only_integer_bits():
    table = TruthTable.or_function(3)
    assert table.restrict({0: True}) == table.restrict({0: 1})
    assert table.restrict({0: np.int64(1)}) == table.restrict({0: 1})
    assert table.restrict({0: False}) == TruthTable([0, 1, 1, 1], labels=(1, 2))
    for bit in (1.0, 2, -1, "1", None):
        with pytest.raises(ValueError, match="integer 0 or 1"):
            table.restrict({0: bit})


def test_restriction_identity_random_functions():
    for seed in range(40):
        rng = derive_rng(43, "identity", seed)
        arity = int(rng.integers(2, 9))
        table = TruthTable.random(arity, rng)
        label = int(rng.integers(0, arity))
        q = float(rng.uniform(0.01, 0.99))
        assert restriction_identity_residual(table, label, q) <= 1e-10


def test_restriction_identity_parity_and_constant():
    parity = TruthTable.parity(6)
    for q in (0.1, 0.3, 0.7):
        assert restriction_identity_residual(parity, 2, q) <= 1e-12
    # at q = 1/2 the arithmetic is dyadic and the identity is exact
    assert restriction_identity_residual(parity, 0, 0.5) == 0.0
    assert restriction_identity_residual(TruthTable(np.full(2**5, 1, dtype=np.uint8)), 3, 0.4) == 0.0


def test_one_query_martingale_bound():
    # fixing any single variable loses at most 1 of biased total influence
    for seed in range(15):
        rng = derive_rng(45, "martingale", seed)
        table = TruthTable.random(7, rng)
        label = int(rng.integers(0, 7))
        q = float(rng.uniform(0.05, 0.95))
        total = table.q_biased_total_influence(q)
        up = table.restrict({label: 1}).q_biased_total_influence(q)
        down = table.restrict({label: 0}).q_biased_total_influence(q)
        assert q * up + (1 - q) * down >= total - 1.0 - 1e-10


def test_arity_cap_and_value_validation():
    with pytest.raises(ValueError):
        TruthTable(np.zeros(1 << 21, dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable([0, 1, 2, 1])
    with pytest.raises(ValueError):
        TruthTable([0, 1, 1])
    with pytest.raises(ValueError):
        TruthTable([0, 1, 1, 0], labels=(0, 0))
    with pytest.raises(ValueError, match="non-empty"):
        TruthTable([])
    # values are checked as given, as BitOracle checks its bits, not after a cast
    for values in ([0.5, 1.7], [256, 0], [0, 1, -1, 1]):
        with pytest.raises(ValueError, match="0/1 bits"):
            TruthTable(values)
    assert TruthTable([0.0, 1.0]) == TruthTable([0, 1])
    with pytest.raises(ValueError, match="out of range"):
        TruthTable.dictator(3, 5)
    for q in (-0.1, 1.1):
        with pytest.raises(ValueError, match="bias q"):
            TruthTable.parity(2).q_biased_influence(0, q)


def test_named_tables_match_direct():
    # value at input index x, with bit j of x the j-th variable
    assert TruthTable.parity(4) == TruthTable([bin(x).count("1") % 2 for x in range(16)])
    assert TruthTable.or_function(3) == TruthTable([int(x != 0) for x in range(8)])
    assert TruthTable.dictator(3, 1) == TruthTable([(x >> 1) & 1 for x in range(8)])


def test_random_tables_deterministic():
    a = TruthTable.random(8, derive_rng(49, "det"))
    b = TruthTable.random(8, derive_rng(49, "det"))
    assert a == b


def test_popcount_without_bitwise_count(monkeypatch):
    # numpy before 2.0 has no bitwise_count; the 16-bit table stands in
    monkeypatch.delattr(np, "bitwise_count")
    monkeypatch.setattr(boolfn, "_PC_TABLE", None)
    indices = np.arange(1 << 20, dtype=np.int64)
    assert boolfn._popcount(indices).tolist() == [bin(i).count("1") for i in range(1 << 20)]
