"""Integer-partition multiplicity tuples and their series coefficients.

Order n of the phase-shift series sums over all ways to write n as a sum of
positive parts; each way is encoded by how many parts of each size appear,
a multiplicity tuple (i_1, ..., i_n) with sum(p * i_p) = n.  The weight each
tuple carries is the corresponding coefficient of the formal logarithm,

    (-1)^(j-1) * (j-1)! / (i_1! i_2! ... i_n!),   j = sum(i_p).

Enumeration is by recursive descent over the largest part, which is both the
standard partition algorithm and a stable deterministic order for golden
tests; the descent carries j and prod(i_p!) along, so each coefficient is
one correctly rounded integer division.  Counts stay tiny at the supported
orders (627 tuples at n = 20), so no generating-function machinery is
warranted.

The tuples of an order depend on nothing but n, so each order is built once,
the first time it is asked for, and kept as an immutable tuple.  Each tuple
also carries its nonzero factors.  :func:`partition_columns` lays the tuples
of orders 1..N out as read-only arrays, so the series assembly can evaluate
every order of the sum in a few numpy passes; they too are built once per N.
Beside them, the package keeps at module level only the CLI's parser
(``cli._PARSER``) and each thread's solver workspace (``refwave._kept``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter, mul

import numpy as np

from .errors import OrderOutOfRange
from .potential import _as_readonly

#: factorials stay exactly representable in a double through this order
MAX_ORDER = 20


@dataclass(frozen=True)
class PartitionTuple:
    """Multiplicity encoding of one partition of n.

    Attributes
    ----------
    multiplicities : tuple of int
        (i_1, ..., i_n); entry p-1 counts the parts of size p.
    coefficient : float
        (-1)^(j-1) (j-1)! / prod(i_p!), exact in double precision for
        n <= MAX_ORDER.
    factors : tuple of (int, int)
        The nonzero entries as (index, i_p) pairs with index = p - 1, in
        increasing p; derived from `multiplicities`, not a constructor
        argument, and left out of comparisons.
    """

    multiplicities: tuple
    coefficient: float
    factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.multiplicities)
        weighted = sum(map(mul, range(1, n + 1), self.multiplicities))
        if weighted != n:
            raise ValueError(
                f"multiplicities {self.multiplicities} do not partition {n}"
            )
        object.__setattr__(self, "factors", tuple(
            filter(itemgetter(1), enumerate(self.multiplicities))))

    @property
    def j(self) -> int:
        """Total number of parts, sum(i_p)."""
        return sum(self.multiplicities)


def _signed_ratio(j: int, denom: int) -> float:
    # int / int is correctly rounded, as float(Fraction(a, b)) is: same bits
    value = math.factorial(j - 1) / denom
    return -value if j % 2 == 0 else value


def enumerate_partitions(n: int) -> tuple:
    """All multiplicity tuples for order `n`, largest part descending.

    The first tuple is always the single part (0, ..., 0, 1) and the last is
    all ones (n, 0, ..., 0).  Every tuple appears exactly once; the length is
    the partition number p(n).  The result is an immutable tuple, built on
    the first call for `n` and returned as the same object afterwards.

    Raises
    ------
    OrderOutOfRange
        If n is outside 1 .. MAX_ORDER.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in 1..{MAX_ORDER}, got {n}")
    return _partition_table(n)


# typed: a float order keeps raising TypeError instead of sharing the entry
# of the equal int
@lru_cache(maxsize=None, typed=True)
def _partition_table(n: int) -> tuple:
    out = []
    mult = [0] * n

    # j and denom = prod(i_p!) are carried down with the parts
    def descend(remaining: int, largest: int, j: int, denom: int) -> None:
        if remaining == 0:
            out.append(PartitionTuple(tuple(mult), _signed_ratio(j, denom)))
            return
        for part in range(min(remaining, largest), 0, -1):
            mult[part - 1] += 1
            descend(remaining - part, part, j + 1, denom * mult[part - 1])
            mult[part - 1] -= 1

    descend(n, n, 0, 1)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PartitionColumns:
    """The tuples of orders 1..max_order as read-only arrays.

    A row is one tuple.  Rows are sorted by their number of factors, most
    first (ties keep the enumeration order), so the rows that have a k-th
    factor are a prefix of all rows.

    Attributes
    ----------
    width : int
        1 + p(max_order): the length of one order's line in the summation
        layout (see `positions`).
    powers : tuple of (int, int)
        The power table: entry s stands for f[index] ** i with
        (index, i) = powers[s], for every part size p = index + 1 and every
        i from 1 to max_order // p.
    coefficients : ndarray of float
        Each row's coefficient.
    factor_slots : tuple of ndarray of int
        ``factor_slots[k][r]`` is the power-table entry of row r's (k+1)-th
        factor, factors taken in increasing p, as in
        :attr:`PartitionTuple.factors`; its length is the number of rows
        with more than k factors.
    positions : ndarray of int
        Each row's flat index in a (max_order, width) array: the j-th tuple
        of order n sits at (n - 1, j + 1), so column 0 and the padding after
        each order's last tuple are free.
    """

    width: int
    powers: tuple
    coefficients: np.ndarray
    factor_slots: tuple
    positions: np.ndarray


def _columns_of(tables: tuple) -> PartitionColumns:
    max_order = len(tables)
    width = 1 + len(tables[-1])
    powers = tuple((p - 1, i) for p in range(1, max_order + 1)
                   for i in range(1, max_order // p + 1))
    slot = {pair: s for s, pair in enumerate(powers)}
    rows = [(n * width + j + 1, t)
            for n, table in enumerate(tables) for j, t in enumerate(table)]
    rows.sort(key=lambda row: len(row[1].factors), reverse=True)  # stable
    factor_slots = tuple(
        _as_readonly([slot[t.factors[k]] for _, t in rows
                      if len(t.factors) > k], np.intp)
        for k in range(len(rows[0][1].factors)))
    return PartitionColumns(
        width=width,
        powers=powers,
        coefficients=_as_readonly([t.coefficient for _, t in rows], float),
        factor_slots=factor_slots,
        positions=_as_readonly([pos for pos, _ in rows], np.intp),
    )


_COLUMNS: dict = {}


def partition_columns(max_order: int) -> PartitionColumns:
    """Every tuple of orders 1..max_order as read-only arrays.

    Each call reads every order's table through :func:`enumerate_partitions`,
    the one way into the tables; the arrays are built from those tables on
    the first call for `max_order` and returned as the same object
    afterwards.

    Raises
    ------
    OrderOutOfRange
        If max_order is outside 1 .. MAX_ORDER.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise OrderOutOfRange(
            f"order must be in 1..{MAX_ORDER}, got {max_order}")
    tables = tuple(map(enumerate_partitions, range(1, max_order + 1)))
    columns = _COLUMNS.get(max_order)
    if columns is None:
        columns = _COLUMNS[max_order] = _columns_of(tables)
    return columns
