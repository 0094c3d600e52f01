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
the first time it is asked for, and kept as an immutable tuple.  The layout
that sums them in a few numpy passes belongs to :mod:`phaseshift.series`.
Beside these tables, the package keeps at module level only that layout
(``series._partition_plan``), the CLI's parser (``cli._PARSER``) and each
thread's solver workspace (``refwave._kept``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import OrderOutOfRange

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
    """

    multiplicities: tuple
    coefficient: float

    def __post_init__(self) -> None:
        n = len(self.multiplicities)
        weighted = sum(map(mul, range(1, n + 1), self.multiplicities))
        if weighted != n:
            raise ValueError(
                f"multiplicities {self.multiplicities} do not partition {n}"
            )

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
