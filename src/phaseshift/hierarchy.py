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

Expanding (r(z) - r(x)) splits the operator into two cumulative integrals
taken from x_max inwards, so each order costs O(n_points).  Only g changes
from one order to the next, so the weights are folded once per series: the
trapezoid half-step, 1/(ik), U and d at the lower node of each cell (its
right limit) and at its upper node (its left limit).  Node arrays are stored
from x_max down to x = 0, which makes both integrals forward cumulative sums
whose entry at x_max stays 0.  One order is then four products, two sums,
the two cumulative sums (W of the weights times r g, P of the weights times
g) and g = W - r P; the two complex cumulative sums are most of its cost.

The mathematically equivalent double-integral form (inner integral of
2 U d g, outer integral against 1/d) is kept as an independent,
differently-discretized path for cross-validation; there the factor 2 is
genuine, because collapsing the double integral to the single-integral form
absorbs it into the identity
integral_x^z dy / d(y) = (r(z) - r(x)) / (2ik).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, OrderOutOfRange
from .potential import (
    ComplexGridFunction,
    cumulative_from_right,
    require_same_grid,
    sample_potential,
)
from .refwave import ReferenceWave


@dataclass(frozen=True)
class HierarchyResult:
    """Values f_1(0) ... f_order(0) of the correction functions."""

    values_at_zero: tuple


def _recursion(ref: ReferenceWave, u):
    """The hierarchy operator for `ref` and `u`, built once.

    Returns ``step``, which maps the node values of g, stored from x_max
    down to x = 0 in a contiguous complex array, to those of the next
    correction in a new array of the same layout.  Cell c of that layout
    spans stored nodes c (its upper node) and c + 1 (its lower node).
    """
    grid = ref.grid
    samples = sample_potential(u, grid)
    n = grid.n_points
    scale = 0.5 * grid.step / (1j * ref.k)
    d = ref.density.values[::-1]
    # an overflowing weight ends in the callers' NonFiniteResult, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lower = samples.at_nodes[::-1][1:] * d[1:] * scale
        upper = samples.at_nodes_left[::-1][:-1] * d[:-1] * scale
    r = np.ascontiguousarray(ref.ratio_shift.values[::-1])
    r_lo, r_hi = r[1:], r[:-1]
    lo, hi, lo_r, hi_r = (np.empty(n - 1, dtype=complex) for _ in range(4))
    weighted = np.zeros(n, dtype=complex)
    plain = np.zeros(n, dtype=complex)

    def step(g: np.ndarray) -> np.ndarray:
        np.multiply(lower, g[1:], out=lo)
        np.multiply(upper, g[:-1], out=hi)
        np.multiply(lo, r_lo, out=lo_r)
        np.multiply(hi, r_hi, out=hi_r)
        np.add(lo_r, hi_r, out=lo_r)
        np.add(lo, hi, out=lo)
        np.cumsum(lo_r, out=weighted[1:])
        np.cumsum(lo, out=plain[1:])
        out = r * plain
        np.subtract(weighted, out, out=out)
        return out

    return step


def apply_recursion_step(ref: ReferenceWave, u,
                         g: ComplexGridFunction) -> ComplexGridFunction:
    """One application of the hierarchy operator to grid function `g`.

    Folds the weights (U, d, the half-step and 1/(ik) at both nodes of each
    cell) for this one call, applies the step to `g` stored from x_max
    down, and returns the result in the usual order.  The step is the one
    :func:`compute_hierarchy` applies at every order after folding the
    weights once; its two complex cumulative sums are most of its cost.

    Parameters
    ----------
    ref : ReferenceWave
        Reference wave bundle; supplies k, density and ratio_shift.
    u : PotentialSpec
        Perturbing potential.  Its samples carry one-sided limits, so jump
        discontinuities at grid nodes cost no accuracy.
    g : ComplexGridFunction
        Function to advance one order.

    Returns
    -------
    ComplexGridFunction
        The next correction; identically zero beyond the support of `u`.

    Raises
    ------
    NonFiniteResult
        If the next correction overflows to inf or NaN.
    """
    grid = require_same_grid(ref.psi, g)
    step = _recursion(ref, u)
    # an overflow is reported as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = step(np.ascontiguousarray(g.values[::-1]))
    return ComplexGridFunction(grid, out[::-1])


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
    step = _recursion(ref, u)
    g = np.ones(ref.grid.n_points, dtype=complex)
    values = []
    # an overflow is reported once, as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            g = step(g)
            values.append(complex(g[-1]))
    # Any weight times NaN or inf is NaN or inf, and the sums carry it to
    # x = 0: a non-finite node of one order leaves every later order
    # non-finite at x = 0, so checking the last function finds any overflow.
    if not np.all(np.isfinite(g)):
        raise NonFiniteResult("grid function contains non-finite values")
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
    samples = sample_potential(u, grid)

    base = 2.0 * ref.density.values * f_prev.values
    inner = cumulative_from_right(samples.at_nodes * base, grid.step,
                                  samples.at_nodes_left * base)
    outer = cumulative_from_right(inner / ref.density.values, grid.step)
    return ComplexGridFunction(grid, outer)
