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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientFValues, NonFiniteResult, OrderOutOfRange,
                     TruncationTooHigh)
from .hierarchy import compute_hierarchy
from .partitions import MAX_ORDER, partition_columns
from .potential import Grid
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


def assemble_corrections(values_at_zero, max_order: int) -> tuple:
    """Corrections delta_1 .. delta_max_order via the partition sum.

    Evaluates every order at once over :func:`partition_columns`, with the
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
    columns = partition_columns(max_order)
    f = [complex(v) for v in values_at_zero[:max_order]]
    try:
        table = np.array([f[index] ** i for index, i in columns.powers])
    except OverflowError as exc:
        raise NonFiniteResult(
            f"delta_1..delta_{max_order}: {exc}") from exc
    table_re, table_im = table.real, table.imag
    re = columns.coefficients.copy()
    im = np.zeros_like(re)
    with np.errstate(over="ignore", invalid="ignore"):
        # pass k multiplies every row that has a k-th factor: a prefix
        for slots in columns.factor_slots:
            rows = len(slots)
            ar, ai = re[:rows], im[:rows]
            br, bi = table_re[slots], table_im[slots]
            re[:rows], im[:rows] = ar * br - ai * bi, ar * bi + ai * br
        terms = np.zeros(max_order * columns.width)
        terms[columns.positions] = im
        sums = np.cumsum(terms.reshape(max_order, columns.width), axis=1)
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
