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
first), giving O(m * n_points) cost instead of an m-dimensional sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GridMismatch
from .potential import (
    ComplexGridFunction,
    Grid,
    cumulative_from_right,
    require_same_grid,
    sample_potential,
)
from .refwave import ReferenceWave


@dataclass(frozen=True)
class NestedIntegrandSet:
    """Ordered factors F_1 ... F_m of a simplex integral, on one grid.

    `factors_left` optionally carries left-limit node values for factors
    with jump discontinuities (same layout); when present, cumulative
    integration uses the side-correct limits in each grid cell.
    """

    factors: tuple
    factors_left: tuple | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.factors) <= 3:
            raise ValueError("factor list must have 1 to 3 entries")
        require_same_grid(*self.factors)
        if self.factors_left is not None:
            if len(self.factors_left) != len(self.factors):
                raise GridMismatch("left-limit channel length mismatch")
            require_same_grid(*self.factors, *self.factors_left)

    @property
    def grid(self) -> Grid:
        return self.factors[0].grid


def nested_integral(factors: NestedIntegrandSet) -> complex:
    """Evaluate the ordered simplex integral I[F_1, ..., F_m].

    Innermost accumulation first: G_m(x) = integral_x^xmax F_m, then each
    outer level integrates F_j * G_{j+1}; the returned value is G_1(0).
    """
    grid = factors.grid
    step = grid.step
    n = len(factors.factors)
    lefts = factors.factors_left
    acc = None
    for j in range(n - 1, -1, -1):
        plus = factors.factors[j].values
        minus = lefts[j].values if lefts is not None else plus
        if acc is not None:
            plus = plus * acc
            minus = minus * acc
        acc = cumulative_from_right(plus, step, minus)
    return complex(acc[0])


def integrand_factors(ref: ReferenceWave, u, powers) -> NestedIntegrandSet:
    """Build the factor set (U * d * r**p for p in powers), both channels."""
    grid = ref.grid
    samples = sample_potential(u, grid)
    base = ref.density.values
    r = ref.ratio_shift.values
    factors = []
    factors_left = []
    for p in powers:
        core = base * r ** p if p else base
        factors.append(ComplexGridFunction(grid, samples.at_nodes * core))
        factors_left.append(ComplexGridFunction(grid, samples.at_nodes_left * core))
    return NestedIntegrandSet(tuple(factors), tuple(factors_left))


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
