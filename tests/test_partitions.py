import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from phaseshift import (
    MAX_ORDER,
    OrderOutOfRange,
    PartitionTuple,
    enumerate_partitions,
)
from phaseshift.partitions import partition_columns

# partition numbers p(1) .. p(12)
COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_counts_match_partition_numbers():
    for n in range(1, 13):
        assert len(enumerate_partitions(n)) == COUNTS[n - 1]


def test_low_order_tuples_verbatim():
    assert [t.multiplicities for t in enumerate_partitions(1)] == [(1,)]
    assert [t.multiplicities for t in enumerate_partitions(2)] == [(0, 1), (2, 0)]
    assert [t.multiplicities for t in enumerate_partitions(3)] == [
        (0, 0, 1), (1, 1, 0), (3, 0, 0)]
    assert [t.multiplicities for t in enumerate_partitions(4)] == [
        (0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 0, 0), (2, 1, 0, 0), (4, 0, 0, 0)]


def test_named_coefficients():
    coeff = {}
    for n in (1, 2, 3):
        coeff.update({t.multiplicities: t.coefficient
                      for t in enumerate_partitions(n)})
    assert coeff[(1,)] == 1.0
    assert coeff[(0, 1)] == 1.0
    assert coeff[(2, 0)] == -0.5
    assert coeff[(0, 0, 1)] == 1.0
    assert coeff[(1, 1, 0)] == -1.0
    assert coeff[(3, 0, 0)] == 1.0 / 3.0


def test_coefficients_are_the_rounded_exact_ratios():
    # the builder carries j and prod(i_p!) down the descent; every stored
    # coefficient must still be the exact ratio rounded once
    for n in range(1, MAX_ORDER + 1):
        for t in enumerate_partitions(n):
            denom = math.prod(math.factorial(i) for i in t.multiplicities)
            exact = Fraction((-1) ** (t.j - 1) * math.factorial(t.j - 1), denom)
            assert t.coefficient == float(exact)


def test_first_and_last_tuple_shape():
    for n in (2, 5, 9):
        tuples = [t.multiplicities for t in enumerate_partitions(n)]
        single_part = tuple(0 for _ in range(n - 1)) + (1,)
        all_ones = (n,) + tuple(0 for _ in range(n - 1))
        assert tuples[0] == single_part
        assert tuples[-1] == all_ones


def test_matches_brute_force_enumeration():
    # independent n-fold product loop; also proves there are no duplicates
    for n in range(1, 9):
        got = [t.multiplicities for t in enumerate_partitions(n)]
        ranges = [range(n // p + 1) for p in range(1, n + 1)]
        expected = {m for m in itertools.product(*ranges)
                    if sum(p * i for p, i in enumerate(m, 1)) == n}
        assert set(got) == expected
        assert len(got) == len(expected)


def test_every_tuple_satisfies_the_constraint():
    for n in (1, 5, 9, 12):
        for t in enumerate_partitions(n):
            assert sum(p * i for p, i in enumerate(t.multiplicities, 1)) == n
            assert t.j == sum(t.multiplicities)
            assert t.j >= 1


def test_coefficient_sum_identity():
    # with every f_p = 1 the weighted sum telescopes to the n-th Taylor
    # coefficient of log(1/(1-x)), which is exactly 1/n
    for n in range(1, 13):
        total = Fraction(0)
        for t in enumerate_partitions(n):
            denom = 1
            for i in t.multiplicities:
                denom *= math.factorial(i)
            term = Fraction(math.factorial(t.j - 1), denom)
            total += -term if t.j % 2 == 0 else term
        assert total == Fraction(1, n)


def test_geometric_values_reproduce_log_series():
    # f_p = c^p turns the sum into the n-th coefficient of log(1/(1-c x)),
    # which is c^n / n
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = complex(*rng.uniform(-0.7, 0.7, size=2))
        for n in range(1, 9):
            total = 0j
            for t in enumerate_partitions(n):
                term = complex(t.coefficient)
                for p, i in enumerate(t.multiplicities, 1):
                    if i:
                        term *= (c ** p) ** i
                total += term
            assert abs(total - c ** n / n) < 1e-12


def test_order_cap():
    assert MAX_ORDER == 20
    assert len(enumerate_partitions(20)) == 627
    with pytest.raises(OrderOutOfRange):
        enumerate_partitions(0)
    with pytest.raises(OrderOutOfRange):
        enumerate_partitions(21)


def test_tables_are_memoised_tuples():
    for n in range(1, MAX_ORDER + 1):
        table = enumerate_partitions(n)
        assert isinstance(table, tuple)
        assert enumerate_partitions(n) is table


def test_factors_are_the_nonzero_multiplicities():
    for n in range(1, MAX_ORDER + 1):
        for t in enumerate_partitions(n):
            assert t.factors == tuple(
                (index, i) for index, i in enumerate(t.multiplicities) if i)
            assert all(i > 0 for _, i in t.factors)
    # derived, not compared: a rebuilt tuple equals the memoised one
    t = enumerate_partitions(4)[1]
    assert PartitionTuple(t.multiplicities, t.j, t.coefficient) == t


def test_tuple_validation():
    with pytest.raises(ValueError):
        PartitionTuple((1, 1), 2, 1.0)  # 1*1 + 2*1 = 3, not a partition of 2
    with pytest.raises(ValueError):
        PartitionTuple((0, 1), 2, 1.0)  # j disagrees with the multiplicities


def test_columns_are_memoised_read_only_views_of_the_tables():
    for max_order in range(1, MAX_ORDER + 1):
        cols = partition_columns(max_order)
        assert partition_columns(max_order) is cols
        arrays = (cols.coefficients, cols.positions, *cols.factor_slots)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            cols.coefficients[0] = 0.0

        # decode every row back into its order, rank and factors
        tables = [enumerate_partitions(n) for n in range(1, max_order + 1)]
        assert cols.width == 1 + len(tables[-1])
        rows = {}
        for r, pos in enumerate(cols.positions):
            n, column = divmod(int(pos), cols.width)
            factors = tuple(cols.powers[slots[r]] for slots in cols.factor_slots
                            if r < len(slots))
            rows[n, column - 1] = (cols.coefficients[r], factors)
        assert rows == {(n, j): (t.coefficient, t.factors)
                        for n, table in enumerate(tables)
                        for j, t in enumerate(table)}
        # the rows that have a k-th factor are a prefix
        lengths = [len(slots) for slots in cols.factor_slots]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == len(cols.positions)
    with pytest.raises(OrderOutOfRange):
        partition_columns(0)
    with pytest.raises(OrderOutOfRange):
        partition_columns(MAX_ORDER + 1)
