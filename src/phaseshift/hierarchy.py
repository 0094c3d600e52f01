"""Iterated-integral hierarchy of perturbative correction functions.

The n-th correction function is produced from the (n-1)-th by one linear
integral operator built from the reference wave:

    step[g](x) = (1/ik) * integral_x^xmax U(z) d(z) (r(z) - r(x)) g(z) dz

with d the squared reference wave and r its shifted conjugate ratio
(``ReferenceWave.density`` / ``ReferenceWave.ratio_shift``).  Iterating from
g = 1 gives the sequence whose values at x = 0 feed the phase-shift series.

The overall constant is calibrated against the closed-form first-order
barrier value (free wave, unit barrier on [0, 1], k = 1), for which the
first correction satisfies Im f1(0) = -(1 - sin 2 / 2); an extra factor of 2
here would double that and is wrong.

Expanding (r(z) - r(x)) splits the operator into two right-to-left
cumulative integrals, so each order costs O(n_points).  The mathematically
equivalent double-integral form (inner integral of 2 U d g, outer integral
against 1/d) is kept as an independent, differently-discretized path for
cross-validation; there the factor 2 is genuine, because collapsing the
double integral to the single-integral form absorbs it into the identity
integral_x^z dy / d(y) = (r(z) - r(x)) / (2ik).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderOutOfRange
from .potential import (
    ComplexGridFunction,
    as_samples,
    cumulative_from_right,
    require_same_grid,
)
from .refwave import ReferenceWave


@dataclass(frozen=True)
class HierarchyResult:
    """Values f_1(0) ... f_order(0) of the correction functions."""

    values_at_zero: tuple


def apply_recursion_step(ref: ReferenceWave, u,
                         g: ComplexGridFunction) -> ComplexGridFunction:
    """One application of the hierarchy operator to grid function `g`.

    Parameters
    ----------
    ref : ReferenceWave
        Reference wave bundle; supplies k, density and ratio_shift.
    u : PotentialSamples or PotentialSpec
        Perturbing potential.  Its samples carry one-sided limits, so jump
        discontinuities at grid nodes cost no accuracy.
    g : ComplexGridFunction
        Function to advance one order.

    Returns
    -------
    ComplexGridFunction
        The next correction; identically zero beyond the support of `u`.
    """
    grid = require_same_grid(ref.psi, g)
    samples = as_samples(u, grid)

    base = ref.density.values * g.values  # continuous across nodes
    r = ref.ratio_shift.values
    plus = samples.at_nodes * base
    minus = samples.at_nodes_left * base
    weighted = cumulative_from_right(plus * r, grid.step, minus * r)
    plain = cumulative_from_right(plus, grid.step, minus)
    out = (weighted - r * plain) / (1j * ref.k)
    return ComplexGridFunction(grid, out)


def compute_hierarchy(ref: ReferenceWave, u, order: int) -> HierarchyResult:
    """Iterate the recursion operator from the constant function 1.

    Raises
    ------
    OrderOutOfRange
        If `order` < 1.
    NonFiniteResult
        If a correction function overflows to inf or NaN.
    """
    if order < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {order}")
    grid = ref.grid
    samples = as_samples(u, grid)
    g = ComplexGridFunction(grid, np.ones(grid.n_points, dtype=complex))
    values = []
    # an overflow is reported once, as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            g = apply_recursion_step(ref, samples, g)
            values.append(g.at_zero)
    return HierarchyResult(values_at_zero=tuple(values))


def step_by_double_integral(ref: ReferenceWave, u,
                            f_prev: ComplexGridFunction) -> ComplexGridFunction:
    """Advance one order through the explicit double integral.

    inner(y) = integral_y^xmax 2 U d f_prev dz, then the result is
    integral_x^xmax inner(y) / d(y) dy.  Numerically independent of
    :func:`apply_recursion_step` (different discretization of a different
    formula), which is exactly what makes the agreement of the two a
    meaningful check.
    """
    grid = require_same_grid(ref.psi, f_prev)
    samples = as_samples(u, grid)

    base = 2.0 * ref.density.values * f_prev.values
    inner = cumulative_from_right(samples.at_nodes * base, grid.step,
                                  samples.at_nodes_left * base)
    outer = cumulative_from_right(inner / ref.density.values, grid.step)
    return ComplexGridFunction(grid, outer)
