"""Reference (unperturbed) scattering wave on the half-line.

Solves  psi'' = (2 V(x) - k^2) psi  inward from x_max, where the solution is
pinned to the free outgoing form exp(-i k x), and extracts the background
phase shift from the ratio psi*(0)/psi(0).  The solver also builds the two
auxiliary grid functions the perturbation hierarchy consumes:

* ``density``     -- the squared wave psi^2,
* ``ratio_shift`` -- conj(psi)/psi minus its value at x = 0 (zero at 0 by
  construction).

The Wronskian  psi * conj(psi)' - conj(psi) * psi' = 2ik  is an exact
invariant of the continuum equation; its maximum grid residual is the
certificate that the integration can be trusted, and it also guarantees the
wave has no nodes (so dividing by psi is safe).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveK, WronskianViolation
from .potential import (
    ComplexGridFunction,
    Grid,
    PotentialSamples,
    PotentialSpec,
    sample_potential,
)

#: default Wronskian tolerance, as a coefficient multiplying k
DEFAULT_WRONSKIAN_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceWave:
    """Solved reference wave plus the derived auxiliary functions.

    Attributes
    ----------
    k : float
        Wavenumber (> 0).
    psi, dpsi : ComplexGridFunction
        Wave and its derivative on the grid.
    density : ComplexGridFunction
        psi^2.
    ratio_shift : ComplexGridFunction
        conj(psi)/psi - conj(psi(0))/psi(0); exactly zero at x = 0.
    delta0 : float
        Background phase shift, reduced to (-pi/2, pi/2].
    wronskian_residual : float
        max over the grid of |psi conj(psi)' - conj(psi) psi' - 2ik|.
    """

    k: float
    psi: ComplexGridFunction
    dpsi: ComplexGridFunction
    density: ComplexGridFunction
    ratio_shift: ComplexGridFunction
    delta0: float
    wronskian_residual: float

    @property
    def grid(self) -> Grid:
        return self.psi.grid


def reduce_phase(angle: float) -> float:
    """Reduce a phase defined mod pi to the branch (-pi/2, pi/2]."""
    while angle <= -0.5 * math.pi:
        angle += math.pi
    while angle > 0.5 * math.pi:
        angle -= math.pi
    return angle


def phase_from_wave(value: complex) -> float:
    """Phase shift from the wave value at the origin, principal branch."""
    d = -0.5 * cmath.phase(value.conjugate() / value)
    return reduce_phase(d)


def _rk4_increment(s, ch, cm, cl, y0, y1):
    """Increment y_new - y of one RK4 step of psi'' = c psi with step `s`.

    The stages read c from the three channels of the cell being crossed:
    `ch` at the start of the step, `cm` at the half step, `cl` at its end.
    Linear in (y0, y1), so applying it to the unit states gives the columns
    of the step's deviation from the identity.
    """
    a0, a1 = y1, ch * y0
    b0 = y1 + 0.5 * s * a1
    b1 = cm * (y0 + 0.5 * s * a0)
    d0 = y1 + 0.5 * s * b1
    d1 = cm * (y0 + 0.5 * s * b0)
    e0 = y1 + s * d1
    e1 = cl * (y0 + s * d0)
    return ((s / 6.0) * (a0 + 2.0 * (b0 + d0) + e0),
            (s / 6.0) * (a1 + 2.0 * (b1 + d1) + e1))


def integrate_wave_inward(k: float, grid: Grid,
                          samples: PotentialSamples) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the wave from x_max down to 0.

    One RK4 step per grid cell.  The potential enters each stage through the
    value valid *inside* the cell being crossed: the left limit at the upper
    node, the midpoint value at the half step, the right limit at the lower
    node.  That choice keeps the integrator at full fourth order when the
    potential jumps exactly at grid nodes.

    On the linear system the step of cell i is a real 2x2 matrix M_i, and
    the state at node i is M_i M_(i+1) ... M_(n-2) applied to the state at
    x_max.  Those suffix products come from a two-level scan over blocks of
    about sqrt(cells) cells: sequential inside a block but vectorized across
    blocks, then a carry of the block-top states from x_max down, then one
    vectorized pass to every node.  Steps and partial products are held as
    their deviation from the identity, N = M - I and
    Q_j = N_j + Q_(j+1) + N_j Q_(j+1), so no stored entry is 1 + O(h^2)
    and the small part keeps its relative precision.

    Returns the (psi, psi') node arrays.
    """
    cells = grid.n_points - 1
    s = -grid.step  # stepping toward smaller x

    # coefficient c(x) = 2 V(x) - k^2 in psi'' = c psi, one channel per side
    ksq = k * k
    c_hi = 2.0 * samples.at_nodes_left[1:] - ksq  # upper cell edge
    c_mid = 2.0 * samples.at_midpoints - ksq      # cell center
    c_lo = 2.0 * samples.at_nodes[:-1] - ksq      # lower cell edge

    # entry (row, col) of N for cell j*width + t sits at [t, row, col, j];
    # padding cells past x_max are identity steps (N = 0)
    width = math.isqrt(cells)
    blocks = -(-cells // width)
    steps = np.zeros((2, 2, blocks * width))
    steps[0, 0, :cells], steps[1, 0, :cells] = _rk4_increment(
        s, c_hi, c_mid, c_lo, 1.0, 0.0)
    steps[0, 1, :cells], steps[1, 1, :cells] = _rk4_increment(
        s, c_hi, c_mid, c_lo, 0.0, 1.0)
    steps = np.ascontiguousarray(
        steps.reshape(2, 2, blocks, width).transpose(3, 0, 1, 2))

    # suffix[t]: deviation of the product of cells j*width + t .. block top
    suffix = np.empty_like(steps)
    dev = np.zeros((2, 2, blocks))
    for t in range(width - 1, -1, -1):
        n = steps[t]
        dev = n + dev + (n[:, 0, None] * dev[None, 0] + n[:, 1, None] * dev[None, 1])
        suffix[t] = dev

    # state at the top node of every block, carried down from x_max
    top_psi = cmath.exp(-1j * k * grid.nodes[-1])
    top_dpsi = -1j * k * top_psi
    z0, z1 = [0j] * blocks, [0j] * blocks
    f00, f01, f10, f11 = (suffix[0, r, c].tolist() for r in (0, 1) for c in (0, 1))
    y0, y1 = top_psi, top_dpsi
    for j in range(blocks - 1, -1, -1):
        z0[j], z1[j] = y0, y1
        y0, y1 = (y0 + (f00[j] * y0 + f01[j] * y1),
                  y1 + (f10[j] * y0 + f11[j] * y1))
    z0, z1 = np.array(z0), np.array(z1)

    # every node from the top state of its block
    psi = np.empty(cells + 1, dtype=complex)
    dpsi = np.empty(cells + 1, dtype=complex)
    psi[:cells] = (z0 + (suffix[:, 0, 0] * z0 + suffix[:, 0, 1] * z1)).T.ravel()[:cells]
    dpsi[:cells] = (z1 + (suffix[:, 1, 0] * z0 + suffix[:, 1, 1] * z1)).T.ravel()[:cells]
    psi[cells], dpsi[cells] = top_psi, top_dpsi
    return psi, dpsi


def wronskian_residual(k: float, psi: np.ndarray, dpsi: np.ndarray) -> float:
    """Max grid residual of the invariant psi conj(psi)' - conj(psi) psi' = 2ik."""
    w = psi * np.conj(dpsi) - np.conj(psi) * dpsi
    return float(np.max(np.abs(w - 2j * k)))


def certified_wave(k: float, grid: Grid, samples: PotentialSamples,
                   tol_wronskian: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Integrate the wave inward and certify it; returns (psi, dpsi, residual).

    The one certificate every solve goes through: the Wronskian residual
    must be finite and at most ``tol_wronskian * k``, and the wave must have
    no node.  A NaN or inf residual fails the comparison.

    Raises
    ------
    NonpositiveK
        If k <= 0.
    WronskianViolation
        If the residual is non-finite or over the bound, or psi has a node.
    """
    if k <= 0.0:
        raise NonpositiveK(f"k must be positive, got {k}")
    # an overflowed wave gives a NaN residual, which fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        psi, dpsi = integrate_wave_inward(k, grid, samples)
        residual = wronskian_residual(k, psi, dpsi)
    bound = tol_wronskian * k
    if not residual <= bound:
        raise WronskianViolation(
            f"residual {residual:.3e} is not within {tol_wronskian:.1e} * k = "
            f"{bound:.3e}; refine the grid or check the potential"
        )
    if not np.min(np.abs(psi)) > 0.0:
        raise WronskianViolation("wave has a node; solution untrustworthy")
    return psi, dpsi, residual


def solve_reference(V: PotentialSpec, k: float, grid: Grid,
                    tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> ReferenceWave:
    """Solve the background problem for potential `V` at wavenumber `k`.

    Parameters
    ----------
    V : PotentialSpec
        Background potential, compactly supported inside the grid.
    k : float
        Wavenumber, > 0.
    grid : Grid
        Shared computational grid.
    tol_wronskian : float, optional
        Residual bound as a coefficient on k.

    Raises
    ------
    NonpositiveK
        If k <= 0.
    WronskianViolation
        If the integration cannot be certified at the requested tolerance.
    """
    psi, dpsi, residual = certified_wave(k, grid, sample_potential(V, grid),
                                         tol_wronskian)
    ratio = np.conj(psi) / psi
    return ReferenceWave(
        k=k,
        psi=ComplexGridFunction(grid, psi),
        dpsi=ComplexGridFunction(grid, dpsi),
        density=ComplexGridFunction(grid, psi * psi),
        ratio_shift=ComplexGridFunction(grid, ratio - ratio[0]),  # zero at x = 0
        delta0=phase_from_wave(complex(psi[0])),
        wronskian_residual=residual,
    )


def analytic_free_reference(k: float, grid: Grid) -> ReferenceWave:
    """Exact reference wave for V = 0: the sampled free wave exp(-ikx).

    All auxiliary functions are evaluated from their closed forms, so this
    carries no integrator error at all; it is the natural reference when the
    background potential vanishes.
    """
    if k <= 0.0:
        raise NonpositiveK(f"k must be positive, got {k}")
    x = grid.nodes
    psi = np.exp(-1j * k * x)
    dpsi = -1j * k * psi
    return ReferenceWave(
        k=k,
        psi=ComplexGridFunction(grid, psi),
        dpsi=ComplexGridFunction(grid, dpsi),
        density=ComplexGridFunction(grid, np.exp(-2j * k * x)),
        ratio_shift=ComplexGridFunction(grid, np.exp(2j * k * x) - 1.0),
        delta0=0.0,
        wronskian_residual=wronskian_residual(k, psi, dpsi),
    )
