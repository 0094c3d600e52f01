"""Assembly and evaluation of the phase-shift perturbation series.

The corrections delta_n are imaginary parts of polynomial combinations of
the hierarchy values f_n(0).  Two independent assembly routes are shipped:

* :func:`assemble_delta_n` — the partition sum, summing over multiplicity
  tuples with log-derivative coefficients;
* :func:`log_expansion_reference` — the standard recurrence for the Taylor
  coefficients of log(1 + sum f_n lambda^n).

The two are algebraically identical order by order; their agreement to
machine precision on random inputs is one of the package's core checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientFValues, NonFiniteResult, OrderOutOfRange,
                     TruncationTooHigh)
from .hierarchy import compute_hierarchy
from .partitions import MAX_ORDER, enumerate_partitions
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
    max_order: int

    def __post_init__(self) -> None:
        if len(self.corrections) != self.max_order:
            raise ValueError("corrections length disagrees with max_order")
        if not all(np.isfinite(self.corrections)):
            raise NonFiniteResult("non-finite correction")


def _check_order(values_at_zero, n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in 1..{MAX_ORDER}, got {n}")
    if len(values_at_zero) < n:
        raise InsufficientFValues(
            f"order {n} needs {n} hierarchy values, got {len(values_at_zero)}"
        )


def assemble_delta_n(values_at_zero, n: int) -> float:
    """Correction delta_n from hierarchy values via the partition sum.

    Walks the memoised tuples of :func:`enumerate_partitions` and multiplies
    only the factors each one has.

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
    _check_order(values_at_zero, n)
    f = [complex(v) for v in values_at_zero[:n]]
    total = 0j
    try:
        for t in enumerate_partitions(n):
            term = complex(t.coefficient)
            for index, i in t.factors:
                term *= f[index] ** i
            total += term
    except OverflowError as exc:
        raise NonFiniteResult(f"delta_{n}: {exc}") from exc
    return total.imag


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
    corrections = tuple(
        assemble_delta_n(result.values_at_zero, n)
        for n in range(1, max_order + 1)
    )
    return PhaseSeries(
        k=ref.k,
        grid=ref.grid,
        delta0=ref.delta0,
        corrections=corrections,
        max_order=max_order,
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
        total += power * series.corrections[n - 1]
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
    terms = [abs(coupling ** n * series.corrections[n - 1])
             for n in range(series.max_order - 2, series.max_order + 1)]
    return terms[-1] > 0.0 and terms[0] <= terms[1] <= terms[2]
