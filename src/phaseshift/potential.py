"""Grids, quadrature weights, and potential definitions.

Everything downstream (wave integration, the correction hierarchy, the exact
oracle, the closed-form checks) works one grid cell at a time and samples a
:class:`PotentialSpec` one way: :func:`sample_cells`, the one place that
decides which one-sided limit each end of a cell reads, returns U's right
limit at each cell's lower node, its value at the centre and its left limit
at the upper node, as the rows of one (3, cells) array.
:func:`sample_potential` returns that array read-only; the certified solves
of the reference wave and the oracle have it written into an array each
thread keeps from one solve to the next.  Piecewise-constant potentials
jump at segment edges (segments are half-open, [x_lo, x_hi)); a cell rule
that reads each end from inside the cell keeps its order across a jump on a
node.

Units are dimensionless throughout (hbar = m = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EvenPointCount, GridMismatch, NonFiniteResult,
                     TabulatedGridMismatch)

#: values with magnitude below this are treated as an exact zero tail
DEFAULT_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0, x_max] with both endpoints included.

    Parameters
    ----------
    x_max : float
        Upper end of the computational domain; positive and finite, with
        room for a node to round a few ulps above it.
    n_points : int
        Number of nodes, endpoints included.  Must be odd and >= 3 so the
        composite Simpson rule applies.

    Notes
    -----
    Nodes are exactly ``x_i = i * step`` with ``step = x_max / (n_points - 1)``.
    """

    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        # a node i * step can round a few ulps above x_max: it must stay finite
        if not 0.0 < self.x_max * (1.0 + 1e-15) < math.inf:
            raise ValueError(
                f"x_max must be positive and finite, got {self.x_max}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise EvenPointCount(
                f"n_points must be odd and >= 3, got {self.n_points}"
            )

    @property
    def step(self) -> float:
        return self.x_max / (self.n_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.n_points) * self.step
        x.flags.writeable = False
        return x

    @cached_property
    def midpoints(self) -> np.ndarray:
        x = (np.arange(self.n_points - 1) + 0.5) * self.step
        x.flags.writeable = False
        return x

    def refined(self, factor: int) -> "Grid":
        """A grid over the same domain with each cell split `factor` ways."""
        return Grid(self.x_max, factor * (self.n_points - 1) + 1)


def _as_readonly(values: np.ndarray, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ComplexGridFunction:
    """A complex-valued function sampled on the nodes of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly(self.values, complex))
        if self.values.shape != (self.grid.n_points,):
            raise GridMismatch(
                f"expected {self.grid.n_points} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteResult("grid function contains non-finite values")


def require_same_grid(*objs) -> Grid:
    """Return the common grid of the arguments or raise :class:`GridMismatch`."""
    grid = objs[0].grid
    for other in objs[1:]:
        if other.grid != grid:
            raise GridMismatch(f"{other.grid} != {grid}")
    return grid


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {what} value")


def _require_tail_eps(eps_tail: float) -> None:
    if not 0.0 < eps_tail < math.inf:
        raise ValueError(
            f"eps_tail must be positive and finite, got {eps_tail}")


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a compactly supported potential.

    Use the classmethod constructors; `kind` selects which payload field is
    meaningful.  They raise ValueError for a NaN or infinite number
    anywhere in the payload or in `eps_tail`, and for an `eps_tail` that is
    not positive.

    Attributes
    ----------
    kind : str
        One of ``piecewise_constant``, ``gaussian_sum``, ``tabulated``.
    segments : tuple of (x_lo, x_hi, value)
        Piecewise-constant segments, non-overlapping, ordered, bounds >= 0.
    bumps : tuple of (center, width, height)
        Gaussian bumps ``height * exp(-(x-center)^2 / (2 width^2))``.
    samples : ndarray or None
        Node values for the tabulated kind.
    declared_grid : Grid or None
        The grid the tabulated samples live on.
    support_hi : float
        An x beyond which the potential is identically zero: the end of the
        last segment with a nonzero value, the largest radius at which a
        gaussian bump decays to `eps_tail`, or the declared-grid node after
        the last tabulated sample of magnitude `eps_tail` or more, where the
        interpolant's support ends (capped at x_max).  It is 0.0 only for a
        potential that is zero at every x > 0.
    """

    kind: str
    segments: tuple = ()
    bumps: tuple = ()
    samples: np.ndarray | None = None
    declared_grid: Grid | None = None
    support_hi: float = 0.0
    eps_tail: float = DEFAULT_TAIL_EPS

    # -- constructors ---------------------------------------------------

    @classmethod
    def piecewise_constant(cls, segments) -> "PotentialSpec":
        segs = tuple((float(a), float(b), float(v)) for a, b, v in segments)
        _require_finite(segs, "segment")
        prev_hi = 0.0
        for lo, hi, _ in segs:
            if lo < 0.0 or hi <= lo:
                raise ValueError(f"bad segment bounds ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("segments must be ordered and non-overlapping")
            prev_hi = hi
        support = max((hi for _, hi, v in segs if v != 0.0), default=0.0)
        return cls(kind="piecewise_constant", segments=segs, support_hi=support)

    @classmethod
    def gaussian_sum(cls, bumps, eps_tail: float = DEFAULT_TAIL_EPS) -> "PotentialSpec":
        bms = tuple((float(c), float(w), float(h)) for c, w, h in bumps)
        _require_finite(bms, "gaussian bump")
        _require_tail_eps(eps_tail)
        support = 0.0
        for c, w, h in bms:
            if not (w > 0.0 and 2.0 * w * w > 0.0):  # 2 w^2 underflows below ~1e-162
                raise ValueError(f"gaussian width must have 2 width^2 > 0, got {w}")
            if h != 0.0 and abs(h) > eps_tail:
                # radius where the bump decays to the tail tolerance
                radius = w * math.sqrt(2.0 * math.log(abs(h) / eps_tail))
                support = max(support, c + radius)
        return cls(kind="gaussian_sum", bumps=bms, support_hi=support,
                   eps_tail=eps_tail)

    @classmethod
    def tabulated(cls, samples, grid: Grid,
                  eps_tail: float = DEFAULT_TAIL_EPS) -> "PotentialSpec":
        vals = _as_readonly(samples, float)
        _require_finite(vals, "tabulated sample")
        _require_tail_eps(eps_tail)
        if vals.shape != (grid.n_points,):
            raise TabulatedGridMismatch(
                f"samples of shape {vals.shape} for a {grid.n_points}-point grid"
            )
        nonzero = np.nonzero(np.abs(vals) >= eps_tail)[0]
        support = 0.0
        if nonzero.size:  # the interpolant is nonzero up to the next node
            end = min(nonzero[-1] + 1, grid.n_points - 1)
            support = min(float(grid.nodes[end]), grid.x_max)
        return cls(kind="tabulated", samples=vals, declared_grid=grid,
                   support_hi=support, eps_tail=eps_tail)

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls.piecewise_constant(())

    # -- evaluation -----------------------------------------------------

    def values_at(self, x: np.ndarray, side: int = +1) -> np.ndarray:
        """Potential values at arbitrary points.

        `side` picks the one-sided limit at a discontinuity: +1 for the
        right limit (value on [x, x+eps)), -1 for the left limit.  Only the
        piecewise kind distinguishes the two.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self.kind == "piecewise_constant":
            for lo, hi, v in self.segments:
                if side >= 0:
                    mask = (x >= lo) & (x < hi)
                else:
                    mask = (x > lo) & (x <= hi)
                out[mask] = v
        elif self.kind == "gaussian_sum":
            with np.errstate(over="ignore"):  # exp(-inf) is the exact limit 0
                for c, w, h in self.bumps:
                    out += h * np.exp(-((x - c) ** 2) / (2.0 * w * w))
            # each bump is cut at its own radius, but tails that are each
            # below eps_tail can add up to more beyond the last radius
            out[(np.abs(out) < self.eps_tail) | (x > self.support_hi)] = 0.0
        elif self.kind == "tabulated":
            out = np.interp(x, self.declared_grid.nodes, self.samples)
            # samples below eps_tail after the support are an exact zero
            # tail; a support capped at x_max has none, and the top node may
            # round above it
            if self.support_hi < self.declared_grid.x_max:
                out[x > self.support_hi] = 0.0
        else:  # pragma: no cover - constructors forbid this
            raise ValueError(f"unknown potential kind {self.kind!r}")
        return out


def combine_cells(a, b, weights, cells: slice = slice(None),
                  out: np.ndarray | None = None) -> np.ndarray:
    """Samples of ``a + w * b`` for each weight w in `weights`, over `cells`:
    a (3, len(weights), n) array of the lower, mid and upper samples,
    written into `out` when one is given.  `a` and `b` are the rows lower,
    mid and upper of two potentials' samples on one grid (those of
    :func:`sample_cells`).  The one formula for a combined potential, which
    a coupling sweep of the oracle forms for every coupling at once.
    """
    weights = np.asarray(weights, dtype=float)[:, None]
    if out is None:
        out = np.empty((3, len(weights), len(a[0][cells])))
    for combined, x, y in zip(out, a, b):
        np.multiply(weights, y[cells], out=combined)
        combined += x[cells]
    return out


def _first(bound: float, step: float, offset, count: int, strict: bool) -> int:
    """The smallest i in [0, count) whose point ``(i + offset) * step`` is
    above `bound` (strict) or at or above it, or `count` if there is none.

    The points are formed as the grid forms its nodes (offset 0 for a
    cell's lower node, 1 for its upper one) and midpoints (offset 0.5), so
    the index is exact: a guess from the division is moved to it one point
    at a time.
    """
    guess = bound / step - offset
    i = max(math.ceil(guess), 0) if guess < count else count

    def reaches(j):
        x = (j + offset) * step
        return x > bound if strict else x >= bound

    while i > 0 and reaches(i - 1):
        i -= 1
    while i < count and not reaches(i):
        i += 1
    return i


def sample_cells(spec: PotentialSpec, grid: Grid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The three per-cell samples of `spec` on `grid`: a (3, cells) array
    whose rows are lower, mid and upper, written into `out` when one is
    given.  Cell c spans nodes c and c + 1: ``lower[c]`` is the right limit
    at node c, ``mid[c]`` the value at the centre and ``upper[c]`` the left
    limit at node c + 1, so only at a jump on node c + 1 do ``upper[c]`` and
    ``lower[c + 1]`` differ.  The one sampling routine, behind
    :func:`sample_potential` and the certified solves.

    Each cell's lower end reads the right limit at its lower node and its
    upper end the left limit at its upper node; only piecewise-constant specs
    evaluate the two limits apart.  Such a spec fills, per segment, the
    index ranges of the cells whose lower node, centre or upper node lies in
    it, found from the segment's edges, so no array of nodes is built; the
    ranges hold the cells :meth:`PotentialSpec.values_at` puts in the
    segment at the grid's nodes and midpoints.  Tabulated specs must declare
    `grid` itself or a grid that `grid` refines (same domain, cell count an
    integer multiple); off-node values are then linearly interpolated.
    Anything but a spec, such as a plain array with no one-sided limits,
    raises TypeError.
    """
    if not isinstance(spec, PotentialSpec):
        raise TypeError(f"expected a PotentialSpec, got {type(spec).__name__}")
    if spec.kind == "tabulated":
        declared = spec.declared_grid
        if declared != grid:
            same_domain = math.isclose(declared.x_max, grid.x_max,
                                       rel_tol=0.0, abs_tol=1e-12)
            if not (same_domain and
                    (grid.n_points - 1) % (declared.n_points - 1) == 0):
                raise TabulatedGridMismatch(
                    f"tabulated on {declared}, requested {grid}"
                )
    cells = grid.n_points - 1
    if out is None:
        out = np.empty((3, cells))
    if spec.kind != "piecewise_constant":
        right = spec.values_at(grid.nodes, side=+1)
        out[0] = right[:-1]
        out[1] = spec.values_at(grid.midpoints, side=+1)
        out[2] = right[1:]
        return out
    out.fill(0.0)
    step = grid.step
    for lo, hi, v in spec.segments:
        # lo <= node c < hi, lo <= centre c < hi, lo < node c + 1 <= hi
        for row, offset, strict in ((out[0], 0, False), (out[1], 0.5, False),
                                    (out[2], 1, True)):
            row[_first(lo, step, offset, cells, strict):
                _first(hi, step, offset, cells, strict)] = v
    return out


def sample_potential(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """The (3, cells) samples of `spec` on `grid` (:func:`sample_cells`),
    read-only."""
    samples = sample_cells(spec, grid)
    samples.flags.writeable = False
    return samples


def simpson_weights(grid: Grid) -> np.ndarray:
    """Composite Simpson weights on the grid nodes.

    ``sum(w * g(x))`` approximates the integral over [0, x_max] with
    O(step^4) error for smooth g; :class:`Grid` guarantees the odd node
    count the rule needs.
    """
    n = grid.n_points
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (grid.step / 3.0)


def cumulative_from_right(lower: np.ndarray, upper: np.ndarray,
                          step: float) -> np.ndarray:
    """Right-to-left cumulative trapezoid integral on a uniform grid.

    `lower` and `upper` hold the integrand at the two ends of each cell, one
    entry per cell, read from inside the cell as the rows lower and upper of
    :func:`sample_cells` are; a function f on the nodes is passed as
    ``f[:-1], f[1:]``.  Returns ``out`` on the nodes with
    ``out[i] ~ integral from x_i to x_max`` and ``out[-1] = 0`` exactly.  Reading a jump at a node from inside each cell
    keeps the trapezoid rule at O(step^2) across it instead of O(step).
    """
    seg = 0.5 * step * (lower + upper)
    out = np.zeros(len(seg) + 1, dtype=seg.dtype)
    np.cumsum(seg[::-1], out=out[-2::-1])
    return out
