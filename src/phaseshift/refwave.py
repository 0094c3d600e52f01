"""Reference (unperturbed) scattering wave on the half-line.

Solves  psi'' = (2 V(x) - k^2) psi  inward from x_max, where the solution is
pinned to the free outgoing form exp(-i k x), and extracts the background
phase shift from the ratio psi*(0)/psi(0); for V = 0 the exact free wave
serves (:func:`analytic_free_reference`).  One builder derives, from either
wave, the two auxiliary grid functions the perturbation hierarchy consumes:

* ``density``     -- the squared wave psi^2,
* ``ratio_shift`` -- conj(psi)/psi minus its value at x = 0 (zero at 0 by
  construction).

The solved wave comes from one fixed-step RK4 propagator: each cell's step is a
real 2x2 matrix built from its closed form, and the node states are the
suffix products of those matrices, formed by one recursive scan over blocks
of SCAN_WIDTH cells (:func:`_scan`).  Blocks are aligned from x = 0, so each
block product and block-top state depends only on the cells at or above its
block, and a scan can be kept and resumed: a first scan is the resumption
of every block.  :func:`integrate_wave_inward` is that first scan,
uncertified.  :class:`SharedTopScan` is the certified solve: of one
potential for :func:`solve_reference`, and of a family of potentials that
agree above some cell, such as V + c U over the couplings c of a sweep, for
which it keeps the scan of the first and scans only the bottom blocks again
for each other one, with the bits of a full solve.

The Wronskian  psi * conj(psi)' - conj(psi) * psi' = 2ik  is an exact
invariant of the continuum equation; its maximum grid residual is the
certificate that the integration can be trusted, and it also guarantees the
wave has no nodes (so dividing by psi is safe).  :class:`SharedTopScan` is
the one place that certificate is checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, NonpositiveK, WronskianViolation
from .potential import (
    ComplexGridFunction,
    Grid,
    PotentialSamples,
    PotentialSpec,
    sample_potential,
)

#: default Wronskian tolerance, as a coefficient multiplying k
DEFAULT_WRONSKIAN_TOL = 1e-8

#: cells per block of the propagator's suffix scan
SCAN_WIDTH = 16
#: a chain of at most this many cells is scanned by a scalar loop
_LEAF_CELLS = 64


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


def _scan_layout(dev: np.ndarray) -> np.ndarray:
    """Copy of the cell deviations `dev` (2, 2, n) in scan layout.

    Cell j*SCAN_WIDTH + t sits at [t, :, :, j]; the last block is padded with
    identity steps (N = 0).
    """
    n = dev.shape[-1]
    blocks = -(-n // SCAN_WIDTH)
    padded = np.zeros((2, 2, blocks * SCAN_WIDTH))
    padded[:, :, :n] = dev
    return np.ascontiguousarray(
        padded.reshape(2, 2, blocks, SCAN_WIDTH).transpose(3, 0, 1, 2))


def _cell_steps(k: float, h: float, lower: np.ndarray, mid: np.ndarray,
                upper: np.ndarray, cells: int) -> np.ndarray:
    """Deviation N = M - I of the RK4 step of each of the first `cells`
    cells, in scan layout.

    With s = -h (stepping toward smaller x), q = s^2 and hi, mid, lo the
    coefficient c = 2 V - k^2 from the cell's ``upper``, ``mid`` and
    ``lower`` samples (only the first `cells` entries of each are read), the
    RK4 stages give

        N00 = (q/6)(hi + 2 mid) + (q^2/24) hi mid
        N01 = s + (s q/6) mid
        N10 = (s/6)(hi + 4 mid + lo) + (s q/12) mid (hi + lo)
        N11 = (q/6)(2 mid + lo) + (q^2/24) lo mid
    """
    blocks = -(-cells // SCAN_WIDTH)
    full, rest = divmod(cells, SCAN_WIDTH)
    s = -h
    q = s * s

    # [t, j] of each entry is cell j*SCAN_WIDTH + t.  The slots of N00, N01
    # and N11 first hold hi, mid and lo.  Padding cells of a partial last
    # block start at zero, so every entry stays finite, and end as the
    # identity step N = 0
    steps = np.empty((SCAN_WIDTH, 2, 2, blocks))
    steps[rest:, :, :, full:] = 0.0
    n00, n01, n10, n11 = steps[:, 0, 0], steps[:, 0, 1], steps[:, 1, 0], steps[:, 1, 1]
    for slot, values in ((n00, upper), (n01, mid), (n11, lower)):
        np.multiply(values[:full * SCAN_WIDTH].reshape(full, SCAN_WIDTH).T, 2.0,
                    out=slot[:, :full])
        np.multiply(values[full * SCAN_WIDTH:cells, None], 2.0,
                    out=slot[:rest, full:])
        slot -= k * k
    hi, mid, lo = n00, n01, n11

    # N00 = hi (q/6 + (q^2/24) mid) + (q/3) mid, N11 likewise with lo,
    # N10 = (hi + lo)(s/6 + (s q/12) mid) + (2 s/3) mid, N01 = (s q/6) mid + s;
    # `factor` is the one array allocated besides `steps`
    np.add(hi, lo, out=n10)
    factor = np.multiply(mid, q * q / 24.0)
    factor += q / 6.0
    hi *= factor
    lo *= factor
    np.multiply(mid, q / 3.0, out=factor)
    hi += factor
    lo += factor
    np.multiply(mid, s * q / 12.0, out=factor)
    factor += s / 6.0
    n10 *= factor
    np.multiply(mid, 2.0 * s / 3.0, out=factor)
    n10 += factor
    mid *= s * q / 6.0
    mid += s
    steps[rest:, :, :, full:] = 0.0
    return steps


def _block_products(steps: np.ndarray) -> None:
    """Turn the cell deviations of every block into its suffix products.

    In place, as deviations Q_t = N_t + Q_(t+1) + N_t Q_(t+1), so no stored
    entry is 1 + O(h^2) and the small part keeps its relative precision.
    steps[t, :, :, j] ends as block j's product from its cell t to its top,
    so steps[0] holds the whole-block products.
    """
    for t in range(SCAN_WIDTH - 2, -1, -1):
        n, suffix = steps[t], steps[t + 1]
        prod = n[:, 0, None] * suffix[None, 0]
        prod += n[:, 1, None] * suffix[None, 1]
        n += suffix
        n += prod


def _leaf_states(tops: np.ndarray, a0: complex, a1: complex) -> tuple[list, list]:
    """State at the top node of every block of a chain.

    A scalar loop: (a0, a1) is the state at the chain's top, and each block's
    whole-block deviation in `tops` carries it one block down.
    """
    f00, f01, f10, f11 = (tops[r, c].tolist() for r in (0, 1) for c in (0, 1))
    count = len(f00)
    z0, z1 = [0j] * count, [0j] * count
    for j in range(count - 1, -1, -1):
        z0[j], z1[j] = a0, a1
        a0, a1 = (a0 + (f00[j] * a0 + f01[j] * a1),
                  a1 + (f10[j] * a0 + f11[j] * a1))
    return z0, z1


def _node_states(steps: np.ndarray, z0: np.ndarray, z1: np.ndarray,
                 psi: np.ndarray, dpsi: np.ndarray) -> None:
    """Write every node of the blocks of `steps` from the state (z0, z1) at
    the top of its block; [t, j] is node j*SCAN_WIDTH + t.

    psi is scratch while dpsi is formed, then the spent dpsi rows of `steps`
    (a contiguous (W, 2*blocks) real slab) while psi is.
    """
    blocks = steps.shape[-1]
    nodes = blocks * SCAN_WIDTH
    p = psi[:nodes].reshape(blocks, SCAN_WIDTH).T
    d = dpsi[:nodes].reshape(blocks, SCAN_WIDTH).T
    scratch = steps[:, 1].reshape(SCAN_WIDTH, 2 * blocks).view(complex)
    for out, part, row, z in ((d, p, 1, z1), (p, scratch, 0, z0)):
        np.multiply(steps[:, row, 1], z1, out=part)
        np.multiply(steps[:, row, 0], z0, out=out)
        out += part
        out += z


def _scan(levels: list, depth: int, steps: np.ndarray, y0: complex,
          y1: complex, cells: int) -> None:
    """Scan the bottom blocks of level `depth` of the scan kept in `levels`.

    A level is a chain of `cells` cells: cell i carries the state at node
    i + 1 to node i, and (y0, y1) is the state at the top node `cells`.
    Level 0 is the chain of grid cells, each level above the chain of the
    whole-block products of the one below.  ``levels[depth]`` is (tops, psi,
    dpsi): the level's whole-block products (2, 2, blocks) and its states at
    the blocks*SCAN_WIDTH + 1 nodes of the padded chain.  A first scan finds
    no level `depth` yet and appends it, with every block new.

    `steps` holds, in scan layout (see :func:`_scan_layout`), the new cell
    deviations N = M - I of the level's bottom `steps.shape[-1]` blocks and
    is overwritten; every block above them must be the kept scan's.  Inside
    a block the suffix products are formed in place
    (:func:`_block_products`) and kept.  The states at the block tops are
    the node states of the level above, whose blocks that hold a new block
    product this function scans again; once the level has at most
    _LEAF_CELLS blocks they come instead from a scalar loop down all its
    block products, kept and new, from (y0, y1).  The new blocks' node
    states are written over the kept ones.

    Blocks are aligned from node 0 and padded with identity steps at the
    top, so every block product and block-top state is formed from the
    cells at or above its own block alone: the kept ones are bit for bit
    those a scan of the whole chain would form.
    """
    fresh = steps.shape[-1]
    _block_products(steps)
    if depth == len(levels):
        nodes = fresh * SCAN_WIDTH + 1
        levels.append((np.empty((2, 2, fresh)), np.empty(nodes, dtype=complex),
                       np.empty(nodes, dtype=complex)))
    tops, psi, dpsi = levels[depth]
    tops[..., :fresh] = steps[0]
    blocks = tops.shape[-1]

    # state at the top node of every new block, z[j] at node (j + 1)*SCAN_WIDTH
    if blocks <= _LEAF_CELLS:
        z0, z1 = _leaf_states(tops, y0, y1)
        z0, z1 = np.array(z0[:fresh]), np.array(z1[:fresh])
    else:
        stop = min(-(-fresh // SCAN_WIDTH) * SCAN_WIDTH, blocks)
        _scan(levels, depth + 1, _scan_layout(tops[..., :stop]), y0, y1, blocks)
        _, above, dabove = levels[depth + 1]
        z0, z1 = above[1:fresh + 1], dabove[1:fresh + 1]

    _node_states(steps, z0, z1, psi, dpsi)
    psi[cells], dpsi[cells] = y0, y1


def _top_state(k: float, x_max: float) -> tuple[complex, complex]:
    """(psi, psi') at x_max: the free outgoing wave exp(-i k x).

    Raises :class:`NonFiniteResult` when k x_max leaves the double range.
    """
    if not math.isfinite(k * x_max):
        raise NonFiniteResult(
            f"k * x_max = {k!r} * {x_max!r} is beyond the double range")
    psi = cmath.exp(-1j * k * x_max)
    return psi, -1j * k * psi


def integrate_wave_inward(k: float, grid: Grid,
                          samples: PotentialSamples) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the wave from x_max down to 0.

    One RK4 step per grid cell.  The potential enters each stage through the
    cell's samples, each read from inside the cell being crossed: ``upper``
    at the upper node, ``mid`` at the half step, ``lower`` at the lower node.
    That keeps the integrator at full fourth order when the potential jumps
    exactly at grid nodes.

    On the linear system the step of cell i is a real 2x2 matrix M_i, and
    the state at node i is M_i M_(i+1) ... M_(n-2) applied to the state at
    x_max.  Each step is built from the closed form of its deviation
    N = M - I (the RK4 stages, `tests/_oracles.py::rk4_wave_loop`, applied to
    the unit states), written straight into the layout of a recursive suffix
    scan over blocks of SCAN_WIDTH cells (see :func:`_scan`), here a first
    scan.  Uncertified: :class:`SharedTopScan` certifies the same scan.

    Returns the (psi, psi') node arrays; psi[-1] is exactly exp(-i k x_max).

    Raises
    ------
    NonFiniteResult
        If k x_max is beyond the double range, so the state at x_max is not
        finite.
    """
    cells = grid.n_points - 1
    levels = []
    _scan(levels, 0, _cell_steps(k, grid.step, samples.lower, samples.mid,
                                 samples.upper, cells),
          *_top_state(k, grid.x_max), cells)
    _, psi, dpsi = levels[0]
    return psi[:cells + 1], dpsi[:cells + 1]


def wronskian_residual(k: float, psi: np.ndarray, dpsi: np.ndarray) -> float:
    """Max grid residual of the invariant psi conj(psi)' - conj(psi) psi' = 2ik.

    The left side is 2i Im(psi conj(psi)'), so the residual is
    2 max |Im(psi conj(psi)') - k|, formed from real parts only.
    """
    w = psi.imag * dpsi.real
    w -= psi.real * dpsi.imag
    w -= k
    return 2.0 * float(np.max(np.abs(w, out=w)))


def _require_positive_k(k: float) -> None:
    if k <= 0.0:
        raise NonpositiveK(f"k must be positive, got {k}")


class SharedTopScan:
    """Certified RK4 waves of potentials that agree on every cell above the
    first `fresh_cells`.

    The constructor solves the first potential, given by its cell samples,
    in full (:func:`integrate_wave_inward`'s scan) and keeps every level of
    its scan.  :meth:`rescan` solves another one from the samples of its
    first :attr:`fresh_cells` cells only: `fresh_cells` rounded up to whole
    blocks.  Only the blocks of each level that hold one of those cells are
    scanned again (:func:`_scan`); every other block product and block-top
    state is formed from the cells at or above its own block alone, so the
    kept ones are bit for bit those a full scan would form.  With
    `fresh_cells` 0 it is the plain certified solve of one potential.

    :attr:`psi` and :attr:`dpsi` are the node arrays of the wave last
    solved, :attr:`residual` its Wronskian residual; the arrays are views
    that the next :meth:`rescan` overwrites.

    The certificate is one pass over every node of the wave last solved:
    the residual must be at most ``tol_wronskian * k``, and psi must be
    nonzero at every node.  A NaN in psi or psi' makes the residual NaN,
    which fails the bound, so the node test reads a psi without NaN, for
    which psi != 0 is |psi| > 0.

    Raises
    ------
    NonpositiveK
        If k <= 0.
    NonFiniteResult
        If k x_max is beyond the double range.
    WronskianViolation
        If the residual is non-finite or over the bound, or psi has a node;
        from the constructor and :meth:`rescan`.
    """

    def __init__(self, k: float, grid: Grid, lower: np.ndarray, mid: np.ndarray,
                 upper: np.ndarray, fresh_cells: int, tol_wronskian: float) -> None:
        _require_positive_k(k)
        self._k, self._step, self._tol = k, grid.step, tol_wronskian
        self._top = _top_state(k, grid.x_max)
        self._cells = cells = grid.n_points - 1
        self.fresh_cells = min(-(-fresh_cells // SCAN_WIDTH) * SCAN_WIDTH, cells)
        self._levels = []
        # an overflowed wave gives a NaN residual, which fails the certificate
        with np.errstate(over="ignore", invalid="ignore"):
            _scan(self._levels, 0, _cell_steps(k, self._step, lower, mid, upper, cells),
                  *self._top, cells)
        _, psi, dpsi = self._levels[0]
        self.psi, self.dpsi = psi[:cells + 1], dpsi[:cells + 1]
        self._certify()

    def rescan(self, lower: np.ndarray, mid: np.ndarray, upper: np.ndarray) -> None:
        """Solve and certify the potential whose first `fresh_cells` cells
        have these samples."""
        if self.fresh_cells:
            with np.errstate(over="ignore", invalid="ignore"):
                steps = _cell_steps(self._k, self._step, lower, mid, upper,
                                    self.fresh_cells)
                _scan(self._levels, 0, steps, *self._top, self._cells)
            self._certify()

    def _certify(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            residual = wronskian_residual(self._k, self.psi, self.dpsi)
        bound = self._tol * self._k
        if not residual <= bound:
            raise WronskianViolation(
                f"residual {residual:.3e} is not within {self._tol:.1e} * k = "
                f"{bound:.3e}; refine the grid or check the potential"
            )
        if not np.all(self.psi):
            raise WronskianViolation("wave has a node; solution untrustworthy")
        self.residual = residual


def _reference_wave(k: float, grid: Grid, psi: np.ndarray, dpsi: np.ndarray,
                    residual: float) -> ReferenceWave:
    """The :class:`ReferenceWave` of node arrays psi and psi'.

    Both constructors derive density, ratio_shift (exactly zero at x = 0)
    and delta0 here.
    """
    ratio = np.conj(psi) / psi
    return ReferenceWave(
        k=k,
        psi=ComplexGridFunction(grid, psi),
        dpsi=ComplexGridFunction(grid, dpsi),
        density=ComplexGridFunction(grid, psi * psi),
        ratio_shift=ComplexGridFunction(grid, ratio - ratio[0]),
        delta0=phase_from_wave(complex(psi[0])),
        wronskian_residual=residual,
    )


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
    v = sample_potential(V, grid)
    wave = SharedTopScan(k, grid, v.lower, v.mid, v.upper, 0, tol_wronskian)
    return _reference_wave(k, grid, wave.psi, wave.dpsi, wave.residual)


def analytic_free_reference(k: float, grid: Grid) -> ReferenceWave:
    """Exact reference wave for V = 0: the sampled free wave exp(-ikx).

    psi and psi' = -ik psi carry no integrator error; the auxiliaries come
    from psi as in :func:`solve_reference`, exp(-2ikx) and exp(2ikx) - 1 up
    to rounding.
    """
    _require_positive_k(k)
    # k x beyond the double range gives a NaN wave: NonFiniteResult, no warning
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.exp(-1j * k * grid.nodes)
        dpsi = -1j * k * psi
        return _reference_wave(k, grid, psi, dpsi, wronskian_residual(k, psi, dpsi))
