"""Reference (unperturbed) scattering wave on the half-line.

Solves  psi'' = (2 V(x) - k^2) psi  inward from x_max, where the solution is
pinned to the free outgoing form exp(-i k x), and extracts the background
phase shift from the ratio psi*(0)/psi(0); for V = 0 the exact free wave
serves (:func:`analytic_free_reference`).  One builder derives, from either
wave, the two auxiliary node arrays the perturbation hierarchy consumes:

* ``density``     -- the squared wave psi^2,
* ``ratio_shift`` -- conj(psi)/psi minus its value at x = 0 (zero at 0 by
  construction).

The solved wave comes from one fixed-step RK4 propagator: each cell's step is a
real 2x2 matrix built from its closed form, and the node states are the
suffix products of those matrices, formed by one recursive scan over blocks
of SCAN_WIDTH cells (:func:`_scan`).  One scan solves a family of chains,
the potentials V + c U of a coupling sweep, that agree on every cell above
some block (:class:`ChainLayout`): each chain's own blocks and the shared
blocks above them, taken once, go through every level of the scan
together.  Blocks are aligned from x = 0, so each block product and
block-top state depends only on the cells at or above its block, and every
chain's wave is bit for bit that of a scan of its potential alone.  Each
distinct block of the grid's cells is built once: a block whose samples
repeat those of the block below it, as they do on every constant stretch
of a potential, takes that block's steps and products by a copy
(:func:`_block_steps`).  One chain is the plain solve of one potential,
:func:`integrate_wave_inward`, which :func:`solve_reference` certifies.
:func:`solve_sweep`, the oracle's one way in, solves the couplings of a
sweep of two specs, and this module alone decides how their chains are
laid out.
Every entry checks k once, before any work, in :func:`_top_state`, and a
certified one runs each scan, its certificate and the wave built from it
in one ``np.errstate``, so overflow ends in a typed error, not a warning.
The arrays of a scan (its samples, the steps and node states of every
level, the kernels' temporaries) are kept per thread from one solve to the
next, and only for scans of at most _SCAN_SLOTS cell slots, so the memory
a thread keeps is bounded (:func:`_workspace`); so are the samples of the
specs a certified solve takes, on a grid of at most _SCAN_SLOTS cells
(:func:`_sampled`).  The entries return arrays their caller owns, or
values.

The Wronskian  psi * conj(psi)' - conj(psi) * psi' = 2ik  is an exact
invariant of the continuum equation; its maximum grid residual is the
certificate that the integration can be trusted, and it also guarantees the
wave has no nodes (so dividing by psi is safe).  Both certified solves
check it for each chain with :func:`_certify`, the one place it is
checked.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFiniteResult, NonpositiveK, WronskianViolation
from .potential import Grid, PotentialSpec, _as_readonly, combine_cells, sample_cells

#: default Wronskian tolerance, as a coefficient multiplying k
DEFAULT_WRONSKIAN_TOL = 1e-8

#: cells per block of the propagator's suffix scan
SCAN_WIDTH = 16
#: a chain of at most this many cells is scanned by a scalar loop
_LEAF_CELLS = 64


@dataclass(frozen=True)
class ReferenceWave:
    """Solved reference wave plus the derived auxiliary functions.

    The three node arrays are complex, one entry per node of `grid`,
    finite and read-only, and own their memory: each is copied on
    construction, so none aliases an array the caller keeps, such as the
    thread's workspace.  A wrong length raises :class:`GridMismatch`, a NaN
    or inf :class:`NonFiniteResult`.

    Attributes
    ----------
    k : float
        Wavenumber (> 0).
    grid : Grid
        The grid whose nodes the arrays sample.
    psi : ndarray
        The wave.
    density : ndarray
        psi^2.
    ratio_shift : ndarray
        conj(psi)/psi - conj(psi(0))/psi(0); exactly zero at x = 0.
    delta0 : float
        Background phase shift, reduced to (-pi/2, pi/2].
    wronskian_residual : float
        max over the grid of |psi conj(psi)' - conj(psi) psi' - 2ik|.
    """

    k: float
    grid: Grid
    psi: np.ndarray
    density: np.ndarray
    ratio_shift: np.ndarray
    delta0: float
    wronskian_residual: float

    def __post_init__(self) -> None:
        n = self.grid.n_points
        for name in ("psi", "density", "ratio_shift"):
            values = _as_readonly(getattr(self, name), complex)
            if values.shape != (n,):
                raise GridMismatch(f"expected {n} values, got {values.shape}")
            if not np.all(np.isfinite(values)):
                raise NonFiniteResult("grid function contains non-finite values")
            object.__setattr__(self, name, values)


def reduce_phase(angle: float) -> float:
    """Reduce a phase defined mod pi to the branch (-pi/2, pi/2]; NaN for
    a NaN or infinite angle.

    One exact IEEE remainder, so any finite angle returns at once and one
    in [-pi/2, pi/2] keeps its bits, except -pi/2, which maps to pi/2.
    """
    if not math.isfinite(angle):
        return math.nan
    reduced = math.remainder(angle, math.pi)
    return 0.5 * math.pi if reduced == -0.5 * math.pi else reduced


def phase_from_wave(value: complex) -> float:
    """Phase shift from the wave value at the origin, principal branch."""
    d = -0.5 * cmath.phase(value.conjugate() / value)
    return reduce_phase(d)


@dataclass(frozen=True)
class ChainLayout:
    """Where the cells and nodes of a family of chains sit in one array.

    There are `chains` chains of `cells` cells each, and they agree on every
    cell from `own` up.  Entry `index` of a chain (a cell, or a node from 0
    up to the chain's top node `cells`) sits at slot ``chain * own + index``
    below `own`; the shared entries sit once, after every chain's own ones,
    at ``(chains - 1) * own + index``.  With `own` above `cells` nothing is
    shared and each chain is padded up to `own` cells; with `own` 0 the
    chains are one chain.  A single chain is laid out as itself for any
    `own`.
    """

    chains: int
    own: int
    cells: int

    @classmethod
    def above(cls, chains: int, cells: int, support: int) -> "ChainLayout":
        """Chains that agree on every cell from `support` up: `own` is
        `support` rounded up to whole blocks of SCAN_WIDTH cells, so each
        block of the scan holds one chain's own cells or shared ones, and
        0 for a single chain."""
        own = -(-support // SCAN_WIDTH) * SCAN_WIDTH if chains > 1 else 0
        return cls(chains, own, cells)

    @property
    def size(self) -> int:
        """Cell slots: every chain's own cells, then the shared ones."""
        return self.chains * self.own + max(self.cells - self.own, 0)

    def slot(self, chain: int, index: int) -> int:
        """Slot of entry `index` of chain `chain`."""
        if index < self.own:
            return chain * self.own + index
        return (self.chains - 1) * self.own + index

    def nodes(self, chain: int) -> tuple[slice, slice]:
        """Slots of the nodes of chain `chain`: its own ones and the shared
        ones, in order from node 0; either may be empty."""
        own = min(self.own, self.cells + 1)
        start = self.chains * self.own
        return (slice(chain * self.own, chain * self.own + own),
                slice(start, start + self.cells + 1 - own))


#: a scan of a sweep's couplings holds about this many cell slots at most,
#: or two couplings on a larger grid, since its arrays grow with the number
#: of its couplings (:func:`_scan_groups`); a thread keeps the arrays of a
#: scan this large at most (:func:`_workspace`)
_SCAN_SLOTS = 1 << 18


class _Workspace:
    """The arrays of a scan, each asked for by a key and a shape.

    The array is the leading part of the buffer kept under its key, and
    holds whatever its last use left there.  A scan asks for each key once
    at each of its levels (the level is part of the key), or for a key whose
    earlier array it has finished with, so no two live arrays share memory.
    A buffer too small for what is asked grows by the factor `room` beyond
    it, so that the later scans it was sized for fit (:func:`_workspace`).
    """

    def __init__(self) -> None:
        self._buffers: dict = {}
        self.room = 1.0

    def take(self, key, shape: tuple, dtype=float) -> np.ndarray:
        count = math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < count:
            buffer = np.empty(max(count, int(count * self.room)), dtype)
            self._buffers[key] = buffer
        return buffer[:count].reshape(shape)


_kept = threading.local()


def _workspace(layout: ChainLayout) -> _Workspace:
    """The workspace of a scan of `layout`.

    That is the calling thread's kept one, which then holds its arrays for
    the next scan.  A buffer it grows is sized for the widest scan of the
    same chains, the one that shares no cell, capped at _SCAN_SLOTS cell
    slots: the couplings of later sweeps on the grid then fit whatever U's
    support.  A scan over more than _SCAN_SLOTS slots gets a new workspace
    instead, freed with the scan, so a thread keeps a bounded amount of
    memory.
    """
    if layout.size > _SCAN_SLOTS:
        return _Workspace()
    if not hasattr(_kept, "workspace"):
        _kept.workspace = _Workspace()
    widest = ChainLayout.above(layout.chains, layout.cells, layout.cells)
    _kept.workspace.room = min(widest.size, _SCAN_SLOTS) / layout.size
    return _kept.workspace


def _cell_steps(k: float, h: float, lower: np.ndarray, mid: np.ndarray,
                upper: np.ndarray, steps: np.ndarray, work: _Workspace) -> None:
    """Write the deviation N = M - I of the RK4 step of each cell into
    `steps`, in scan layout: a (SCAN_WIDTH, 2, 2, blocks) array.

    With s = -h (stepping toward smaller x), q = s^2 and hi, mid, lo the
    coefficient c = 2 V - k^2 from the cell's ``upper``, ``mid`` and
    ``lower`` samples, the RK4 stages give

        N00 = (q/6)(hi + 2 mid) + (q^2/24) hi mid
        N01 = s + (s q/6) mid
        N10 = (s/6)(hi + 4 mid + lo) + (s q/12) mid (hi + lo)
        N11 = (q/6)(2 mid + lo) + (q^2/24) lo mid
    """
    cells = len(lower)
    blocks = steps.shape[-1]
    full, rest = divmod(cells, SCAN_WIDTH)
    s = -h
    q = s * s

    # [t, j] of each entry is cell j*SCAN_WIDTH + t.  The slots of N00, N01
    # and N11 first hold hi, mid and lo.  Padding cells of a partial last
    # block start at zero, so every entry stays finite, and end as the
    # identity step N = 0
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
    # N10 = (hi + lo)(s/6 + (s q/12) mid) + (2 s/3) mid, N01 = (s q/6) mid + s
    np.add(hi, lo, out=n10)
    factor = np.multiply(mid, q * q / 24.0,
                         out=work.take("factor", (SCAN_WIDTH, blocks)))
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


def _block_products(steps: np.ndarray, work: _Workspace) -> None:
    """Turn the cell deviations of every block into its suffix products.

    In place, as deviations Q_t = N_t + Q_(t+1) + N_t Q_(t+1), so no stored
    entry is 1 + O(h^2) and the small part keeps its relative precision.
    steps[t, :, :, j] ends as block j's product from its cell t to its top,
    so steps[0] holds the whole-block products.  The two halves of
    N_t Q_(t+1) are formed in two arrays of `work`.
    """
    prod, part = work.take("products", (2,) + steps.shape[1:])
    for t in range(SCAN_WIDTH - 2, -1, -1):
        n, suffix = steps[t], steps[t + 1]
        np.multiply(n[:, 0, None], suffix[None, 0], out=prod)
        np.multiply(n[:, 1, None], suffix[None, 1], out=part)
        prod += part
        n += suffix
        n += prod


def _leaf_states(tops: np.ndarray, chains: int, own: int, a0: complex,
                 a1: complex) -> tuple[np.ndarray, np.ndarray]:
    """State at the top node of every block of a level's chains.

    `tops` holds the level's whole-block deviations, each chain's `own`
    blocks and then the shared ones.  A scalar loop, in which each block
    carries a state one block down: once down the shared blocks from the
    state (a0, a1) at the chains' top, then down each chain's own blocks
    from the state below the shared ones.
    """
    f00, f01, f10, f11 = (tops[r, c].tolist() for r in (0, 1) for c in (0, 1))
    count = len(f00)
    z0, z1 = [0j] * count, [0j] * count

    def down(start, stop, a0, a1):
        for j in range(stop - 1, start - 1, -1):
            z0[j], z1[j] = a0, a1
            a0, a1 = (a0 + (f00[j] * a0 + f01[j] * a1),
                      a1 + (f10[j] * a0 + f11[j] * a1))
        return a0, a1

    below = down(chains * own, count, a0, a1)
    for chain in range(chains):
        down(chain * own, (chain + 1) * own, *below)
    return np.array([z0, z1])


def _node_states(steps: np.ndarray, z: np.ndarray, states: np.ndarray,
                 work: _Workspace) -> None:
    """Write psi and psi' (the rows of `states`) at every node of the blocks
    of `steps` from the state z[:, j] at the top of block j; [t, j] is node
    j*SCAN_WIDTH + t.

    Node row r is (N_r0 z_0 + N_r1 z_1) + z_r.  N is real, so the real and
    the imaginary part of each node are formed apart, in that order, on
    contiguous real rows of `work`, and each is written into `states` once:
    no real step entry is cast to complex.
    """
    blocks = steps.shape[-1]
    nodes = blocks * SCAN_WIDTH
    # tops[part, r, j]: the real (part 0) or imaginary part of z[r, j]
    tops = work.take("tops", (2, 2, blocks))
    np.copyto(tops, z.view(float).reshape(2, blocks, 2).transpose(2, 0, 1))
    total, part = work.take("rows", (2, SCAN_WIDTH, blocks))
    for row in (0, 1):
        node = states[row, :nodes].reshape(blocks, SCAN_WIDTH).T
        for out, (z0, z1) in zip((node.real, node.imag), tops):
            np.multiply(steps[:, row, 0], z0, out=total)
            np.multiply(steps[:, row, 1], z1, out=part)
            total += part
            total += (z0, z1)[row]
            out[...] = total


def _copy_entries(dst: np.ndarray, into: ChainLayout, src: np.ndarray,
                  source: ChainLayout, count: int, shift: int = 0) -> None:
    """Set entries 0 to count - 1 of every chain of `into`, along the last
    axis of `dst`, to the entries `shift` further up the same chain of
    `source`, in `src`.

    Each chain's own entries and the shared ones are one run of slots in
    either layout, split at most once where `source`'s own entries end: a
    few slice copies, and one for a single chain.
    """
    parts = [(chain, 0, min(into.own, count)) for chain in range(into.chains)
             if into.own]
    parts.append((into.chains - 1, into.own, count))
    split = source.own - shift
    for chain, start, stop in parts:
        for lo, hi in ((start, min(stop, split)), (max(start, split), stop)):
            if lo < hi:
                at, origin = into.slot(chain, lo), source.slot(chain, lo + shift)
                dst[..., at:at + hi - lo] = src[..., origin:origin + hi - lo]


def _level_steps(tops: np.ndarray, level: ChainLayout, up: ChainLayout,
                 work: _Workspace, depth: int) -> np.ndarray:
    """The cells of the level above, in scan layout (see :func:`_cell_steps`),
    in the steps of scan level `depth` of `work`.

    `tops` holds the whole-block deviations of a level, laid out as `level`:
    each chain's own blocks, then the shared ones.  The level above has the
    same chains, laid out as `up`; its padding cells get the identity step
    N = 0.
    """
    blocks = -(-up.size // SCAN_WIDTH)
    cells = work.take(("cells", depth), (2, 2, blocks * SCAN_WIDTH))
    cells.fill(0.0)
    _copy_entries(cells, up, tops, level, up.cells)
    steps = work.take(("steps", depth), (SCAN_WIDTH, 2, 2, blocks))
    np.copyto(steps, cells.reshape(2, 2, blocks, SCAN_WIDTH).transpose(3, 0, 1, 2))
    return steps


def _scan(layout: ChainLayout, steps: np.ndarray, y0: complex, y1: complex,
          work: _Workspace, depth: int = 0) -> np.ndarray:
    """Node states of every chain of one level of the scan.

    Each chain of the level has `layout.cells` cells: cell i carries the
    state at node i + 1 to node i, and (y0, y1) is the state at every
    chain's top node.  Level 0 is the chains of grid cells; each level above
    holds, per chain, the whole-block products of the level below.  `steps`
    holds the in-block suffix products of the level's cell deviations
    N = M - I (:func:`_block_products`) in scan layout, each chain's own
    cells and then the shared ones (see :class:`ChainLayout`); at level 0
    :func:`_block_steps` forms them, once per distinct block.

    The states at the block tops are the node states of the level above,
    whose cell products this function forms, all chains' blocks at once,
    and scans; once a chain has at most _LEAF_CELLS blocks they come instead
    from a scalar loop (:func:`_leaf_states`).  Returns psi and psi' over
    the node slots of `layout`, as the rows of a (2, slots) array of `work`
    that the next scan of scan level `depth` (0 for the grid) overwrites;
    the slots past each chain's top node are padding.

    Blocks are aligned from node 0 and padded with identity steps at the
    top, so every block product and block-top state is formed from the
    cells at or above its own block alone, in the same operations as a scan
    of one chain: the node states of every chain are bit for bit those of a
    scan of that chain alone.
    """
    tops = steps[0]
    blocks = -(-layout.cells // SCAN_WIDTH)  # per chain

    # state at the top node of every block, z[:, j] at block j's top node
    if blocks <= _LEAF_CELLS:
        z = _leaf_states(tops, layout.chains, layout.own // SCAN_WIDTH, y0, y1)
    else:
        level = ChainLayout(layout.chains, layout.own // SCAN_WIDTH, blocks)
        up = ChainLayout.above(layout.chains, blocks, level.own)
        cells = _level_steps(tops, level, up, work, depth + 1)
        _block_products(cells, work)
        above = _scan(up, cells, y0, y1, work, depth + 1)
        # block j's top is node j + 1 of its chain at the level above; the
        # padding blocks of a chain padded up to `own` cells get zero
        z = work.take("z", (2, tops.shape[-1]), complex)
        z.fill(0.0)
        _copy_entries(z, level, above, up, blocks, shift=1)

    states = work.take(("nodes", depth),
                       (2, tops.shape[-1] * SCAN_WIDTH + 1), complex)
    _node_states(steps, z, states, work)
    for chain in range(layout.chains):
        top = layout.slot(chain, layout.cells)
        states[0, top], states[1, top] = y0, y1
    return states


def _run_starts(layout: ChainLayout, lower: np.ndarray, mid: np.ndarray,
                upper: np.ndarray, work: _Workspace) -> np.ndarray:
    """The first level-0 block of each run of repeated blocks, in slot order.

    Block j repeats block j - 1 when the samples of its cells are, cell for
    cell, the bits of those of block j - 1 (bits, so that 0.0 and -0.0
    differ); its step deviations and in-block suffix products are then the
    same bits as well.  Where nothing repeats the check is a pass over
    blocks, not cells: it compares the ``lower`` sample of the first cell
    of neighbouring blocks, and compares all their samples only over the
    blocks from the first whose first cell matches to the last.  A partial
    last block, each chain's padded last block (see :func:`_block_steps`)
    and the block after it start runs of their own.
    """
    size = layout.size
    full, blocks = size // SCAN_WIDTH, -(-size // SCAN_WIDTH)
    heads = lower.view(np.int64)[:full * SCAN_WIDTH:SCAN_WIDTH]
    same = heads[1:] == heads[:-1]
    if not same.any():
        return np.arange(blocks)
    repeats = np.zeros(blocks, bool)
    repeats[1:full] = same
    if layout.own > layout.cells:
        per = layout.own // SCAN_WIDTH
        repeats[per - 1::per] = False
        repeats[per::per] = False
    candidates = np.flatnonzero(repeats)
    if not candidates.size:
        return np.arange(blocks)
    rows = [x.view(np.int64) for x in (lower, mid, upper)]
    first, last = int(candidates[0]), int(candidates[-1]) + 1
    span = slice(first * SCAN_WIDTH, last * SCAN_WIDTH)
    below = slice((first - 1) * SCAN_WIDTH, (last - 1) * SCAN_WIDTH)
    # differ[c]: cell c of the span differs from the cell a block below
    differ, part = work.take("differ", (2, (last - first) * SCAN_WIDTH), bool)
    np.not_equal(rows[0][span], rows[0][below], out=differ)
    for bits in rows[1:]:
        differ |= np.not_equal(bits[span], bits[below], out=part)
    # the 16 flags of a block, as two words: nonzero where a cell differs
    words = differ.view(np.uint64).reshape(-1, SCAN_WIDTH // 8)
    flags = work.take("flags", (last - first,), np.uint64)
    np.bitwise_or(words[:, 0], words[:, 1], out=flags)
    repeats[first:last] &= np.equal(flags, 0, out=part[:last - first])
    return np.flatnonzero(np.logical_not(repeats, out=repeats))


def _block_steps(k: float, h: float, layout: ChainLayout, lower: np.ndarray,
                 mid: np.ndarray, upper: np.ndarray, work: _Workspace) -> np.ndarray:
    """The level-0 input of :func:`_scan`: the in-block suffix products of
    the cell steps of `layout`'s slots (:func:`_cell_steps`,
    :func:`_block_products`), in the level-0 steps of `work`.

    Each distinct block is built once.  The first block of every run of
    repeated blocks (:func:`_run_starts`) is gathered, and the steps and
    products of all of them are formed together; each is then copied over
    its run with one slice assignment, and the lone blocks between two runs
    with one more.  When nothing repeats every block is distinct and is
    built in place, and nothing is copied.  If a chain is padded up to
    `own` cells, it ends in a block of its own whose padding cells take the
    identity step N = 0.
    """
    blocks = -(-layout.size // SCAN_WIDTH)
    steps = work.take(("steps", 0), (SCAN_WIDTH, 2, 2, blocks))
    starts = _run_starts(layout, lower, mid, upper, work)
    distinct = len(starts)
    built, samples = steps, (lower, mid, upper)
    if distinct < blocks:
        full, rest = divmod(layout.size, SCAN_WIDTH)
        whole = distinct - (rest > 0)  # a partial last block starts the last run
        samples = work.take("distinct samples", (3, whole * SCAN_WIDTH + rest))
        for row, x in zip(samples, (lower, mid, upper)):
            np.take(x[:full * SCAN_WIDTH].reshape(full, SCAN_WIDTH), starts[:whole],
                    axis=0, out=row[:whole * SCAN_WIDTH].reshape(whole, SCAN_WIDTH),
                    mode="clip")
            row[whole * SCAN_WIDTH:] = x[full * SCAN_WIDTH:]
        built = work.take("distinct steps", (SCAN_WIDTH, 2, 2, distinct))
    _cell_steps(k, h, *samples, built, work)
    if layout.own > layout.cells:
        per = layout.own // SCAN_WIDTH
        padded = np.searchsorted(starts, np.arange(per - 1, blocks, per))
        built[layout.cells % SCAN_WIDTH:, :, :, padded] = 0.0
    _block_products(built, work)
    if distinct < blocks:
        lengths = np.diff(starts, append=blocks)
        first = 0  # the first run not yet copied
        for run in np.flatnonzero(lengths > 1).tolist():
            at, length = int(starts[run]), int(lengths[run])
            steps[..., at - (run - first):at + 1] = built[..., first:run + 1]
            steps[..., at + 1:at + length] = built[..., run, None]
            first = run + 1
        steps[..., blocks - (distinct - first):] = built[..., first:]
    return steps


def _solve(k: float, h: float, top: tuple[complex, complex],
           layout: ChainLayout, lower: np.ndarray, mid: np.ndarray,
           upper: np.ndarray) -> np.ndarray:
    """The RK4 waves of the chains of `layout`, uncertified: psi and psi'
    over its node slots, as the rows of an array of its
    :func:`_workspace` that the thread's next solve overwrites (see
    :func:`_scan`).

    `top` is the state at x_max, from the caller's :func:`_top_state`, and
    `lower`, `mid` and `upper` the samples of every cell slot; `h` is the
    grid step.
    """
    work = _workspace(layout)
    steps = _block_steps(k, h, layout, lower, mid, upper, work)
    return _scan(layout, steps, *top, work)


def _top_state(k: float, x_max: float) -> tuple[complex, complex]:
    """(psi, psi') at x_max: the free outgoing wave exp(-i k x).

    The one check of k, made once by every entry before any work: raises
    :class:`NonpositiveK` when k <= 0, and :class:`NonFiniteResult` when
    k x_max leaves the double range, as it does for a NaN k.
    """
    if k <= 0.0:
        raise NonpositiveK(f"k must be positive, got {k}")
    if not math.isfinite(k * x_max):
        raise NonFiniteResult(
            f"k * x_max = {k!r} * {x_max!r} is beyond the double range")
    psi = cmath.exp(-1j * k * x_max)
    return psi, -1j * k * psi


def integrate_wave_inward(k: float, grid: Grid,
                          samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the wave from x_max down to 0.

    One RK4 step per grid cell.  The potential enters each stage through the
    cell's samples, the rows of the (3, cells) array `samples`
    (:func:`~phaseshift.potential.sample_potential` on `grid`), each read
    from inside the cell being crossed: ``upper`` at the upper node, ``mid``
    at the half step, ``lower`` at the lower node.
    That keeps the integrator at full fourth order when the potential jumps
    exactly at grid nodes.

    On the linear system the step of cell i is a real 2x2 matrix M_i, and
    the state at node i is M_i M_(i+1) ... M_(n-2) applied to the state at
    x_max.  Each step is built from the closed form of its deviation
    N = M - I (the RK4 stages, `tests/_oracles.py::rk4_wave_loop`, applied to
    the unit states), written straight into the layout of a recursive suffix
    scan over blocks of SCAN_WIDTH cells (see :func:`_scan`), here of one
    chain.  Uncertified: :func:`solve_reference` certifies the same wave.

    Returns the (psi, psi') node arrays, which the caller owns; psi[-1] is
    exactly exp(-i k x_max).

    Raises
    ------
    GridMismatch
        If `samples` is not shaped (3, cells) for `grid`.
    NonpositiveK
        If k <= 0.
    NonFiniteResult
        If k x_max is beyond the double range, so the state at x_max is not
        finite.
    """
    if np.shape(samples) != (3, grid.n_points - 1):
        raise GridMismatch(f"samples of shape {np.shape(samples)} for a "
                           f"{grid.n_points}-point grid")
    psi, dpsi = _one_chain(k, grid, *samples)
    return psi.copy(), dpsi.copy()


def _one_chain(k: float, grid: Grid, lower: np.ndarray, mid: np.ndarray,
               upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wave of :func:`integrate_wave_inward` of the samples `lower`,
    `mid` and `upper`, as views of the thread's workspace that its next
    solve overwrites."""
    cells = grid.n_points - 1
    psi, dpsi = _solve(k, grid.step, _top_state(k, grid.x_max),
                       ChainLayout(1, 0, cells), lower, mid, upper)
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


def _certify(k: float, tol: float, layout: ChainLayout, psi: np.ndarray,
             dpsi: np.ndarray) -> tuple:
    """Each chain's Wronskian residual, certified chain by chain in order.

    A chain's residual is the larger of those of its own nodes and of the
    shared ones, each taken once by :func:`wronskian_residual`, so it is
    the residual over every node of its wave.  It must be at most
    ``tol * k``, and psi must be nonzero at every node of the wave.  A NaN
    in psi or psi' makes the residual NaN, which fails the bound, so the
    node test reads a psi without NaN, for which psi != 0 is |psi| > 0.
    The first chain that fails raises.
    """
    bound = tol * k

    def parts(nodes: slice) -> list:
        # [(residual, no node)] of the node slots `nodes`, if there are any
        if nodes.stop == nodes.start:
            return []
        return [(wronskian_residual(k, psi[nodes], dpsi[nodes]),
                 bool(np.all(psi[nodes])))]

    residuals = []
    shared = parts(layout.nodes(0)[1])
    for chain in range(layout.chains):
        checks = parts(layout.nodes(chain)[0]) + shared
        # the larger residual, or NaN if either is
        residual = float(np.maximum.reduce([r for r, _ in checks]))
        if not residual <= bound:
            raise WronskianViolation(
                f"residual {residual:.3e} is not within {tol:.1e} * k = "
                f"{bound:.3e}; refine the grid or check the potential"
            )
        if not all(nodeless for _, nodeless in checks):
            raise WronskianViolation("wave has a node; solution untrustworthy")
        residuals.append(residual)
    return tuple(residuals)


def _support_cells(u) -> int:
    """Cells from x = 0 up to the last one where any sample of `u`, the rows
    lower, mid and upper of U's samples, is nonzero; 0 for a `u` that is
    zero everywhere.

    RK4 reads a cell's ``mid`` as well as its ends, so a cell whose only
    nonzero sample is its centre counts.
    """
    lower, mid, upper = u
    nonzero = np.flatnonzero((lower != 0.0) | (mid != 0.0) | (upper != 0.0))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _scan_groups(couplings: list, cells: int, support: int) -> list:
    """The couplings of a sweep, in order, split into the groups that
    :func:`_sweep_scans` solves in one scan each.

    A non-finite coupling is a group of its own, since 0 * inf puts NaN on
    the cells where U is zero as well, so its wave shares no cell.  Finite
    ones share every cell above U's support and fill a scan up to
    _SCAN_SLOTS cell slots, and at least two share each scan: one full
    chain and a second coupling's own cells.
    """
    own = ChainLayout.above(2, cells, support).own
    shared = max(cells - own, 0)
    per_scan = max(_SCAN_SLOTS - shared, 2 * own) // own if own else len(couplings)
    groups, group = [], []
    for c in couplings:
        if not math.isfinite(c):
            groups += [group, [c]]
            group = []
            continue
        group.append(c)
        if len(group) == per_scan:
            groups.append(group)
            group = []
    groups.append(group)
    return [g for g in groups if g]


def _sweep_scans(k: float, grid: Grid, v, u, couplings, tol_wronskian: float):
    """Yield (layout, psi, dpsi, residuals) for each scan of a sweep of the
    potentials v + c u, one scan per group of :func:`_scan_groups`; `v` and
    `u` are the rows lower, mid and upper of the samples of V and U on
    `grid`.

    Above U's support every potential of the sweep is V, so each coupling's
    own cells run up to U's support, rounded up to whole blocks, and the
    cells above it are taken once, from the first coupling of the scan.
    Every block of every level goes through the same operations as in a
    solve of one potential alone, so each wave is bit for bit that of
    :func:`integrate_wave_inward` on its potential.  The psi and psi' of a
    scan are the workspace's (see :func:`_solve`), so the next scan
    overwrites them: read each before asking for the next.
    """
    top = _top_state(k, grid.x_max)  # checks k, also for no couplings
    cells = grid.n_points - 1
    support = _support_cells(u)
    for group in _scan_groups(list(couplings), cells, support):
        weights = np.array(group, dtype=float)
        layout = ChainLayout.above(len(weights), cells, support)
        # padding cells are zero
        samples = _workspace(layout).take("samples", (3, layout.size))
        own_slots = layout.chains * layout.own
        own = samples[:, :own_slots].reshape(3, layout.chains, layout.own)
        own[:, :, cells:] = 0.0
        # a coupling times U beyond the double range is inf or NaN, and an
        # overflowed wave gives a NaN residual: both fail the certificate
        with np.errstate(over="ignore", invalid="ignore"):
            combine_cells(v, u, weights, slice(0, layout.own), out=own[:, :, :cells])
            combine_cells(v, u, weights[:1], slice(layout.own, None),
                          out=samples[:, None, own_slots:])
            psi, dpsi = _solve(k, grid.step, top, layout, *samples)
            residuals = _certify(k, tol_wronskian, layout, psi, dpsi)
        yield layout, psi, dpsi, residuals


def _sampled(spec: PotentialSpec, grid: Grid, key: str) -> np.ndarray:
    """The rows lower, mid and upper of `spec` on `grid` (:func:`sample_cells`),
    a (3, cells) array kept under `key` in the calling thread's workspace
    until it next samples under `key`, on a grid of at most _SCAN_SLOTS
    cells (:func:`_workspace`): the one way a spec enters a certified
    solve, so a warm one allocates no sample array."""
    work = _workspace(ChainLayout(1, 0, grid.n_points - 1))
    return sample_cells(spec, grid, out=work.take(key, (3, grid.n_points - 1)))


def solve_sweep(k: float, grid: Grid, V: PotentialSpec, U: PotentialSpec,
                couplings, tol_wronskian: float) -> list:
    """(psi(0), certified Wronskian residual) of the RK4 wave of V + c U for
    each coupling c, in order, with the bits of a full solve at each
    (:func:`_sweep_scans`).  V and U are sampled once for the sweep
    (:func:`_sampled`).  Each wave is certified on its own, over every
    node (:func:`_certify`).

    Raises
    ------
    TypeError, TabulatedGridMismatch
        If V or U is not a spec that can be sampled on `grid`, before k is
        checked.
    NonpositiveK
        If k <= 0.
    NonFiniteResult
        If k x_max is beyond the double range.
    WronskianViolation
        If a residual is non-finite or over the bound, or a wave has a node:
        that of the first such coupling.
    """
    v, u = _sampled(V, grid, "V"), _sampled(U, grid, "U")
    scans = _sweep_scans(k, grid, v, u, couplings, tol_wronskian)
    return [(complex(psi[layout.slot(chain, 0)]), residual)
            for layout, psi, _, residuals in scans
            for chain, residual in enumerate(residuals)]


def _reference_wave(k: float, grid: Grid, psi: np.ndarray,
                    residual: float) -> ReferenceWave:
    """The :class:`ReferenceWave` of the node array psi.

    Both constructors derive density, ratio_shift (exactly zero at x = 0)
    and delta0 here.
    """
    ratio = np.conj(psi) / psi
    return ReferenceWave(
        k=k,
        grid=grid,
        psi=psi,
        density=psi * psi,
        ratio_shift=ratio - ratio[0],
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
    TypeError, TabulatedGridMismatch
        If V is not a spec that can be sampled on `grid`, before k is
        checked.
    NonpositiveK
        If k <= 0.
    NonFiniteResult
        If k x_max is beyond the double range.
    WronskianViolation
        If the integration cannot be certified at the requested tolerance.
    """
    v = _sampled(V, grid, "V")
    # overflow fails the certificate, or the density's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        psi, dpsi = _one_chain(k, grid, *v)
        (residual,) = _certify(k, tol_wronskian, ChainLayout(1, 0, len(psi) - 1),
                               psi, dpsi)
        return _reference_wave(k, grid, psi, residual)


def analytic_free_reference(k: float, grid: Grid) -> ReferenceWave:
    """Exact reference wave for V = 0: the sampled free wave exp(-ikx).

    psi and psi' = -ik psi carry no integrator error; the auxiliaries come
    from psi as in :func:`solve_reference`, exp(-2ikx) and exp(2ikx) - 1 up
    to rounding.  Raises as :func:`_top_state` does for a bad k.
    """
    _top_state(k, grid.x_max)
    # near the top of the double range the residual can overflow, silently
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.exp(-1j * k * grid.nodes)
        dpsi = -1j * k * psi
        return _reference_wave(k, grid, psi, wronskian_residual(k, psi, dpsi))
