"""Assembly and evaluation of the phase-shift perturbation series.

The corrections delta_n are imaginary parts of polynomial combinations of
the hierarchy values f_n(0).  Two independent assembly routes are shipped:

* :func:`assemble_corrections` — the partition sum, summing over
  multiplicity tuples with log-derivative coefficients, for every order up
  to N in one vectorised pass; :func:`assemble_delta_n` returns one order
  of it;
* :func:`log_expansion_reference` — the standard recurrence for the Taylor
  coefficients of log(1 + sum f_n lambda^n).

The two are algebraically identical order by order; their agreement to
machine precision on random inputs is one of the package's core checks.

The layout of the vectorised partition sum is this module's alone:
:func:`_partition_plan` lays the tuples of orders 1..N out as read-only
arrays, built once per N from the tables of :mod:`phaseshift.partitions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (InsufficientFValues, NonFiniteResult, OrderOutOfRange,
                     TruncationTooHigh)
from .hierarchy import compute_hierarchy
from .partitions import MAX_ORDER, enumerate_partitions
from .potential import Grid, _as_readonly
from .refwave import ReferenceWave


@dataclass(frozen=True)
class PhaseSeries:
    """Background phase plus perturbative corrections.

    ``corrections[n-1]`` multiplies coupling**n.  Every correction is
    finite: an inf or NaN raises :class:`NonFiniteResult`.
    """

    k: float
    grid: Grid
    delta0: float
    corrections: tuple

    def __post_init__(self) -> None:
        if not all(np.isfinite(self.corrections)):
            raise NonFiniteResult("non-finite correction")

    @property
    def max_order(self) -> int:
        """The assembled order, ``len(corrections)``."""
        return len(self.corrections)


def _check_order(values_at_zero, n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in 1..{MAX_ORDER}, got {n}")
    if len(values_at_zero) < n:
        raise InsufficientFValues(
            f"order {n} needs {n} hierarchy values, got {len(values_at_zero)}"
        )


@dataclass(frozen=True, eq=False)
class _PartitionPlan:
    """The tuples of orders 1..max_order as read-only arrays.

    A row is one tuple.  Its factors are its nonzero multiplicities, as
    (index, i_p) pairs with index = p - 1, taken in increasing p.  Rows are
    sorted by their number of factors, most first (ties keep the
    enumeration order), so the rows that have a k-th factor are a prefix of
    all rows.

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
        factor; its length is the number of rows with more than k factors.
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


@lru_cache(maxsize=None)
def _partition_plan(max_order: int) -> _PartitionPlan:
    """The plan of orders 1..max_order, built on the first call for
    `max_order` and returned as the same object afterwards."""
    tables = [enumerate_partitions(n) for n in range(1, max_order + 1)]
    width = 1 + len(tables[-1])
    powers = tuple((p - 1, i) for p in range(1, max_order + 1)
                   for i in range(1, max_order // p + 1))
    slot = {pair: s for s, pair in enumerate(powers)}
    # (position, coefficient, power-table entries of the factors) per row
    rows = [(n * width + j + 1, t.coefficient,
             [slot[index, i] for index, i in enumerate(t.multiplicities) if i])
            for n, table in enumerate(tables) for j, t in enumerate(table)]
    rows.sort(key=lambda row: len(row[2]), reverse=True)  # stable
    factor_slots = tuple(
        _as_readonly([slots[k] for _, _, slots in rows if len(slots) > k],
                     np.intp)
        for k in range(len(rows[0][2])))
    return _PartitionPlan(
        width=width,
        powers=powers,
        coefficients=_as_readonly([c for _, c, _ in rows], float),
        factor_slots=factor_slots,
        positions=_as_readonly([pos for pos, _, _ in rows], np.intp),
    )


def assemble_corrections(values_at_zero, max_order: int) -> tuple:
    """Corrections delta_1 .. delta_max_order via the partition sum.

    Evaluates every order at once over :func:`_partition_plan`, with the
    arithmetic of summing the tuples one at a time, so each delta_n is
    bit-identical to that loop.  Each term starts as its coefficient and is
    multiplied by f_p ** i_p (Python's ``**``) in increasing p, with Python's
    complex product written out in real numpy operations,
    re = ar br - ai bi and im = ar bi + ai br (numpy's complex multiply can
    round differently).  Each order's imaginary parts are then added in
    enumeration order, starting from +0.0, by a cumulative sum (``np.sum``
    would add them pairwise).

    Parameters
    ----------
    values_at_zero : sequence of complex
        f_1(0), f_2(0), ... — at least max_order entries.
    max_order : int
        Highest order to assemble, 1 .. 20.

    Returns
    -------
    tuple of float
        (delta_1, ..., delta_max_order); an order whose products overflow is
        inf or NaN, which :class:`PhaseSeries` refuses.

    Raises
    ------
    OrderOutOfRange, InsufficientFValues
    NonFiniteResult
        If a power f_p ** i_p overflows.
    """
    _check_order(values_at_zero, max_order)
    # every call reads each order's table through enumerate_partitions, the
    # one way into the tables, also once the plan is built: a trace of the
    # assembly sees the tables it sums
    for n in range(1, max_order + 1):
        enumerate_partitions(n)
    plan = _partition_plan(max_order)
    f = [complex(v) for v in values_at_zero[:max_order]]
    try:
        table = np.array([f[index] ** i for index, i in plan.powers])
    except OverflowError as exc:
        raise NonFiniteResult(
            f"delta_1..delta_{max_order}: {exc}") from exc
    table_re, table_im = table.real, table.imag
    re = plan.coefficients.copy()
    im = np.zeros_like(re)
    with np.errstate(over="ignore", invalid="ignore"):
        # pass k multiplies every row that has a k-th factor: a prefix
        for slots in plan.factor_slots:
            rows = len(slots)
            ar, ai = re[:rows], im[:rows]
            br, bi = table_re[slots], table_im[slots]
            re[:rows], im[:rows] = ar * br - ai * bi, ar * bi + ai * br
        terms = np.zeros(max_order * plan.width)
        terms[plan.positions] = im
        sums = np.cumsum(terms.reshape(max_order, plan.width), axis=1)
    return tuple(sums[:, -1].tolist())


def assemble_delta_n(values_at_zero, n: int) -> float:
    """Correction delta_n from hierarchy values via the partition sum.

    The last entry of :func:`assemble_corrections` for orders 1..n.

    Parameters
    ----------
    values_at_zero : sequence of complex
        f_1(0), f_2(0), ... — at least n entries.
    n : int
        Order to assemble, 1 .. 20.

    Raises
    ------
    OrderOutOfRange, InsufficientFValues, NonFiniteResult
    """
    return assemble_corrections(values_at_zero, n)[-1]


def log_expansion_reference(values_at_zero, n: int) -> float:
    """delta_n via the power-series-logarithm recurrence.

    Computes the Taylor coefficients c_m of log(1 + sum f_p lambda^p) from
    c_m = f_m - (1/m) * sum_{j<m} j c_j f_{m-j} and returns Im c_n.  Same
    validation as :func:`assemble_delta_n`; an independent algorithm for the
    same number.
    """
    _check_order(values_at_zero, n)
    c = [0j] * (n + 1)
    for m in range(1, n + 1):
        acc = complex(values_at_zero[m - 1])
        for j in range(1, m):
            acc -= (j / m) * c[j] * complex(values_at_zero[m - j - 1])
        c[m] = acc
    return c[n].imag


def assemble_series(ref: ReferenceWave, u, max_order: int) -> PhaseSeries:
    """Run the hierarchy to `max_order` and assemble all corrections."""
    if not 1 <= max_order <= MAX_ORDER:
        raise OrderOutOfRange(
            f"max_order must be in 1..{MAX_ORDER}, got {max_order}"
        )
    result = compute_hierarchy(ref, u, max_order)
    return PhaseSeries(
        k=ref.k,
        grid=ref.grid,
        delta0=ref.delta0,
        corrections=assemble_corrections(result.values_at_zero, max_order),
    )


def evaluate_truncated(series: PhaseSeries, coupling: float,
                       truncation: int) -> float:
    """Partial sum delta0 + sum_{n<=truncation} coupling^n * delta_n.

    Raises
    ------
    TruncationTooHigh
        If `truncation` exceeds the assembled order.
    OrderOutOfRange
        If `truncation` is negative.
    NonFiniteResult
        If the sum overflows.  A delta_n of exactly 0.0 adds nothing, also
        where coupling^n overflows.
    """
    if truncation < 0:
        raise OrderOutOfRange(f"truncation must be >= 0, got {truncation}")
    if truncation > series.max_order:
        raise TruncationTooHigh(
            f"truncation {truncation} > assembled order {series.max_order}"
        )
    total = series.delta0
    power = 1.0
    for n in range(1, truncation + 1):
        power *= coupling
        correction = series.corrections[n - 1]
        if correction != 0.0 or math.isfinite(power):
            total += power * correction
    if not math.isfinite(total):
        raise NonFiniteResult(f"truncation {truncation} overflows")
    return total


def divergence_flag(series: PhaseSeries, coupling: float) -> bool:
    """Heuristic warning that relies on the term sizes |coupling^n delta_n|.

    Flags when the magnitudes of the last three assembled terms are
    non-decreasing and the last is nonzero — the signature of a series that
    has stopped converging at the evaluated coupling.  A False is *not* a
    convergence proof; with fewer than three orders there is no evidence
    either way and the flag stays False.
    """
    if series.max_order < 3:
        return False
    # the three terms divided by |coupling|^(N-2): the same comparisons, and
    # a huge coupling gives inf instead of an OverflowError from a power
    scale = abs(coupling)
    low, mid, high = (abs(d) for d in series.corrections[-3:])
    terms = (low, scale * mid, scale * (scale * high))
    return terms[-1] > 0.0 and terms[0] <= terms[1] <= terms[2]
