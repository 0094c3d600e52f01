"""Closed-form cross-checks of the first three corrections.

The low orders of the phase series have compact nested-integral expressions
in the reference-wave auxiliaries (density d, ratio shift r):

    delta_1 = -(1/k)   Re I[U d r]
    delta_2 = +(1/k^2) Im I[U d r^2, U d]
    delta_3 = +(2/k^3) Re I[U d r^2, U d r, U d]

where I[F_1, ..., F_m] is the ordered simplex integral: x_1 runs over the
whole domain, each subsequent variable from the previous one upward.  These
routes share nothing with the partition assembly beyond the reference wave
itself, so agreement between the two pipelines is a strong end-to-end check.

Evaluation is by right-to-left cumulative integration (innermost factor
first), giving O(m * n_points) cost instead of an m-dimensional sum.  Each
factor is held at both ends of every cell, as the rows lower and upper of
:func:`~phaseshift.potential.sample_cells` hold U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFiniteResult
from .potential import Grid, cumulative_from_right, sample_potential
from .refwave import ReferenceWave


@dataclass(frozen=True)
class NestedIntegrandSet:
    """Ordered factors F_1 ... F_m of a simplex integral, on one grid.

    Each factor is a (lower, upper) pair of complex arrays with one entry
    per cell of `grid`, its values at the cell's two ends read from inside
    the cell.  Raises ValueError unless there are 1 to 3 factors,
    GridMismatch for an array of another length, NonFiniteResult for a NaN
    or infinite entry.
    """

    grid: Grid
    factors: tuple

    def __post_init__(self) -> None:
        if not 1 <= len(self.factors) <= 3:
            raise ValueError("factor list must have 1 to 3 entries")
        cells = self.grid.n_points - 1
        pairs = tuple((np.array(lower, dtype=complex), np.array(upper, dtype=complex))
                      for lower, upper in self.factors)
        for end in (end for pair in pairs for end in pair):
            if end.shape != (cells,):
                raise GridMismatch(f"expected {cells} values, got {end.shape}")
            if not np.all(np.isfinite(end)):
                raise NonFiniteResult("factor contains non-finite values")
            end.flags.writeable = False
        object.__setattr__(self, "factors", pairs)


def nested_integral(factors: NestedIntegrandSet) -> complex:
    """Evaluate the ordered simplex integral I[F_1, ..., F_m].

    Innermost accumulation first: G_m(x) = integral_x^xmax F_m, then each
    outer level integrates F_j * G_{j+1}; the returned value is G_1(0).
    Raises NonFiniteResult when it overflows.
    """
    step = factors.grid.step
    acc = None
    # an overflow is reported as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lower, upper in reversed(factors.factors):
            if acc is not None:
                lower = lower * acc[:-1]
                upper = upper * acc[1:]
            acc = cumulative_from_right(lower, upper, step)
    if not np.isfinite(acc[0]):
        raise NonFiniteResult("nested integral overflows")
    return complex(acc[0])


def integrand_factors(ref: ReferenceWave, u, powers) -> NestedIntegrandSet:
    """Build the factor set (U * d * r**p for p in powers), cell by cell."""
    grid = ref.grid
    samples = sample_potential(u, grid)
    base = ref.density
    r = ref.ratio_shift
    factors = []
    # an overflowing factor is refused by NestedIntegrandSet, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for p in powers:
            core = base * r ** p if p else base
            factors.append((samples[0] * core[:-1], samples[2] * core[1:]))
    return NestedIntegrandSet(grid, tuple(factors))


def delta1_direct(ref: ReferenceWave, u) -> float:
    """First correction from its single-integral closed form."""
    value = nested_integral(integrand_factors(ref, u, (1,)))
    return -value.real / ref.k


def delta2_direct(ref: ReferenceWave, u) -> float:
    """Second correction from its two-factor simplex form."""
    value = nested_integral(integrand_factors(ref, u, (2, 0)))
    return value.imag / ref.k ** 2


def delta3_direct(ref: ReferenceWave, u) -> float:
    """Third correction from its three-factor simplex form."""
    value = nested_integral(integrand_factors(ref, u, (2, 1, 0)))
    return 2.0 * value.real / ref.k ** 3
