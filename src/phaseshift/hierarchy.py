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
taken from x_max inwards, W of U d r g / (ik) and P of U d g / (ik), and
the next correction is W - r P.  Every integrand carries U, so each order
costs O(cells of U's support): the operator runs on the window of cells
from the first to the last one whose ``lower`` or ``upper`` sample of U is
nonzero.  Above the window every correction is exactly zero; below it, W
and P no longer change, so the correction is W - r(x) P with the two
integrals over the whole window, and at x = 0, where r is exactly 0, it is
W.  The series reads only f_n(0), so :func:`compute_hierarchy`, the one
runner of the operator, keeps g on the window and builds the correction
below it only to check it for an overflow.  Only g changes from one order
to the next, so it folds the weights once per series, over the window only:
the trapezoid half-step, 1/(ik), and U and d at the lower and the upper end
of each cell.  Both integrals are cumulative sums from the window's top
down, through reversed views, whose entry at the top stays 0.  One order is
then four products, two sums, the two cumulative sums and g = W - r P on
the window; the two complex cumulative sums are most of its cost.  They add
the same terms in the same order as over the whole grid, so every nonzero
value is the same to the bit; an exact zero can carry the other sign, since
the whole grid also adds the signed zeros of the cells the window skips.

The mathematically equivalent double-integral form (inner integral of
2 U d g, outer integral against 1/d) is kept as
:func:`step_by_double_integral`, an independent, differently-discretized
path for cross-validation; there the factor 2 is genuine, because
collapsing the double integral to the single-integral form absorbs it into
the identity integral_x^z dy / d(y) = (r(z) - r(x)) / (2ik).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFiniteResult, OrderOutOfRange
from .potential import cumulative_from_right, sample_potential
from .refwave import ReferenceWave


@dataclass(frozen=True)
class HierarchyResult:
    """Values f_1(0) ... f_order(0) of the correction functions."""

    values_at_zero: tuple


def _window(samples) -> slice | None:
    """The cells from the first to the last one with U's ``lower`` or
    ``upper`` sample (row 0 or 2 of `samples`) nonzero, or None."""
    cells = np.flatnonzero((samples[0] != 0.0) | (samples[2] != 0.0))
    if not cells.size:
        return None
    return slice(int(cells[0]), int(cells[-1]) + 1)


def compute_hierarchy(ref: ReferenceWave, u, order: int) -> HierarchyResult:
    """Iterate the recursion operator from the constant function 1.

    Folds the weights once over the window of cells where U is nonzero,
    then runs every order there; f_n(0) is W - r(0) P from that order's
    two window integrals.

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
    samples = sample_potential(u, grid)
    window = _window(samples)
    if window is None:
        return HierarchyResult(values_at_zero=(0j,) * order)
    nodes = slice(window.start, window.stop + 1)
    scale = 0.5 * grid.step / (1j * ref.k)
    d = ref.density[nodes]
    r = ref.ratio_shift[nodes]
    r_lo, r_hi = r[:-1], r[1:]
    r_below = ref.ratio_shift[:nodes.start]
    m = len(r)
    lo, hi, lo_r, hi_r = (np.empty(m - 1, dtype=complex) for _ in range(4))
    # one row each for the integrals W (of the weights times r g) and P;
    # the first column holds their totals over the window
    sums = np.zeros((2, m), dtype=complex)
    weighted, plain = sums
    totals = np.empty((2, order), dtype=complex)
    g = np.ones(m, dtype=complex)
    # an overflow is reported once, as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lower = samples[0, window] * d[:-1] * scale
        upper = samples[2, window] * d[1:] * scale
        for n in range(order):
            np.multiply(lower, g[:-1], out=lo)
            np.multiply(upper, g[1:], out=hi)
            np.multiply(lo, r_lo, out=lo_r)
            np.multiply(hi, r_hi, out=hi_r)
            np.add(lo_r, hi_r, out=lo_r)
            np.add(lo, hi, out=lo)
            np.cumsum(lo_r[::-1], out=weighted[-2::-1])
            np.cumsum(lo[::-1], out=plain[-2::-1])
            np.multiply(r, plain, out=g)
            np.subtract(weighted, g, out=g)
            totals[:, n] = sums[:, 0]
        values = totals[0] - ref.ratio_shift[0] * totals[1]
        if r_below.size:
            # Below the window f_n = W_n - r P_n, which no later order reads:
            # build it for every order whose bound |W_n| + max|r| |P_n|
            # leaves room for an overflow.
            bound = (np.abs(totals[0])
                     + np.abs(r_below).max() * np.abs(totals[1]))
            for w, p in totals[:, ~(bound < 2.0 ** 1023)].T:
                if not np.all(np.isfinite(w - r_below * p)):
                    raise NonFiniteResult(
                        "grid function contains non-finite values")
    # Any weight times NaN or inf is NaN or inf, and the sums carry it down
    # the window: a non-finite node in the window of one order leaves the
    # window's last node non-finite at every later order, so checking the
    # last order's window finds any overflow there.
    if not np.all(np.isfinite(g)):
        raise NonFiniteResult("grid function contains non-finite values")
    return HierarchyResult(values_at_zero=tuple(values.tolist()))


def step_by_double_integral(ref: ReferenceWave, u,
                            f_prev: np.ndarray) -> np.ndarray:
    """Advance one order through the explicit double integral.

    inner(y) = integral_y^xmax 2 U d f_prev dz, then the result is
    integral_x^xmax inner(y) / d(y) dy, a read-only node array on
    ``ref.grid`` like `f_prev`.  Numerically independent of
    :func:`compute_hierarchy` (different discretization of a different
    formula), which is exactly what makes the agreement of the two a
    meaningful check.  Raises GridMismatch if `f_prev` has another length,
    NonFiniteResult if the result overflows.
    """
    grid = ref.grid
    if np.shape(f_prev) != (grid.n_points,):
        raise GridMismatch(
            f"expected {grid.n_points} values, got {np.shape(f_prev)}")
    samples = sample_potential(u, grid)
    # an overflow is reported as NonFiniteResult, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        base = 2.0 * ref.density * f_prev
        inner = cumulative_from_right(samples[0] * base[:-1],
                                      samples[2] * base[1:], grid.step)
        outer = inner / ref.density
        outer = cumulative_from_right(outer[:-1], outer[1:], grid.step)
    if not np.all(np.isfinite(outer)):
        raise NonFiniteResult("grid function contains non-finite values")
    outer.flags.writeable = False
    return outer
