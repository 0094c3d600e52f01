"""Property tests of the per-cell sampling contract (hypothesis).

Examples are drawn from a fixed seed (``derandomize``) and nothing is kept
between runs, so every run checks the same inputs.  The module is skipped
where hypothesis is not installed; the rest of the suite needs only pytest.

Every integrator reads U in cell c (nodes c and c + 1) through the samples
``lower[c]``, ``mid[c]`` and ``upper[c]``.  These tests pin what each one is
against :meth:`PotentialSpec.values_at`, on piecewise specs whose edges fall
on nodes, between them, at 0 and at x_max, on gaussian sums, and on
tabulated specs declared on a coarser grid, for grids of 3 to 801 points.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift import Grid, PotentialSpec  # noqa: E402
from phaseshift.potential import combine_cells, sample_cells, sample_potential  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))

# repeated values make edges whose two sides agree
_VALUES = (-1.5, 0.0, 0.5, 1.0, 2.0)

_grids = st.builds(Grid, st.sampled_from((1.0, 2.0)) | st.floats(0.5, 5.0),
                   st.integers(1, 400).map(lambda half: 2 * half + 1))


def _piecewise(grid):
    on_node = st.integers(0, grid.n_points - 1).map(lambda i: float(grid.nodes[i]))
    off_node = st.floats(0.0, grid.x_max, exclude_min=True, exclude_max=True)
    edges = st.lists(on_node | off_node | st.sampled_from((0.0, grid.x_max)),
                     min_size=2, max_size=8, unique=True).map(sorted)
    return edges.flatmap(lambda e: st.lists(
        st.sampled_from(_VALUES), min_size=len(e) - 1, max_size=len(e) - 1).map(
        lambda values: PotentialSpec.piecewise_constant(
            zip(e[:-1], e[1:], values))))


def _gaussians(grid):
    bump = st.tuples(st.floats(-0.5, grid.x_max + 0.5), st.floats(0.02, 1.0),
                     st.floats(-2.0, 2.0) | st.sampled_from((1e-12, -9e-13)))
    return st.lists(bump, max_size=3).map(PotentialSpec.gaussian_sum)


def _tabulated(grid):
    cells = grid.n_points - 1
    coarse = [c for c in range(2, cells + 1, 2) if cells % c == 0]
    sample = st.floats(-1.0, 1.0) | st.sampled_from((0.0, 5e-13))
    return st.sampled_from(coarse).flatmap(lambda c: st.lists(
        sample, min_size=c + 1, max_size=c + 1).map(
        lambda values: PotentialSpec.tabulated(values, Grid(grid.x_max, c + 1))))


def _any_spec(grid):
    return _piecewise(grid) | _gaussians(grid) | _tabulated(grid)


_cases = _grids.flatmap(lambda g: st.tuples(st.just(g), _any_spec(g)))


def _jumps(spec):
    """The edges of a piecewise spec whose two sides differ."""
    left = {hi: v for _, hi, v in spec.segments}
    right = {lo: v for lo, _, v in spec.segments}
    return {e for e in left.keys() | right.keys()
            if left.get(e, 0.0) != right.get(e, 0.0)}


@PROPERTY_SETTINGS
@given(_cases)
def test_each_end_of_a_cell_reads_the_limit_from_inside_it(case):
    grid, spec = case
    s = sample_potential(spec, grid)
    assert s[0].shape == s[1].shape == s[2].shape == (grid.n_points - 1,)
    assert np.array_equal(s[0], spec.values_at(grid.nodes[:-1], side=+1))
    assert np.array_equal(s[1], spec.values_at(grid.midpoints))
    assert np.array_equal(s[2], spec.values_at(grid.nodes[1:], side=-1))


@PROPERTY_SETTINGS
@given(_cases)
def test_neighbouring_cells_disagree_only_at_a_jump(case):
    grid, spec = case
    s = sample_potential(spec, grid)
    # inner node i is the upper node of cell i - 1 and the lower of cell i
    differ = s[2, :-1] != s[0, 1:]
    if spec.kind == "piecewise_constant":
        jumps = _jumps(spec)
        assert differ.tolist() == [x in jumps for x in grid.nodes[1:-1].tolist()]
    else:
        assert not differ.any()


@PROPERTY_SETTINGS
@given(_grids.flatmap(lambda g: st.tuples(
    st.just(g), _any_spec(g), _any_spec(g), st.floats(-3.0, 3.0))))
def test_combined_samples_are_a_plus_w_b_in_every_entry(case):
    grid, a_spec, b_spec, weight = case
    a, b = sample_cells(a_spec, grid), sample_cells(b_spec, grid)
    c = combine_cells(a, b, [weight, 1.0])
    for name, combined, x, y in zip(("lower", "mid", "upper"), c, a, b):
        for row, w in zip(combined, (weight, 1.0)):
            assert row.tobytes() == (x + w * y).tobytes(), name
