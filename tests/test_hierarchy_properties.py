"""Property tests of the windowed hierarchy operator (hypothesis).

The package runs every order on the window of cells where U is nonzero; the
full-grid operator it replaced (``_oracles.full_grid_recursion``) runs every
cell.  On random piecewise-constant U, with edges on and off the nodes, and
on random gaussian sums, both must give the same bits and the same outcome:
finite values, or ``NonFiniteResult`` once a correction overflows, and never
a warning.  Heights reach far enough that high orders overflow.

Examples are drawn from a fixed seed (``derandomize``) and nothing is kept
between runs, so every run checks the same inputs.  The module is skipped
where hypothesis is not installed.
"""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift import (  # noqa: E402
    Grid,
    NonFiniteResult,
    PotentialSpec,
    analytic_free_reference,
    compute_hierarchy,
    solve_reference,
)

from _oracles import full_grid_hierarchy  # noqa: E402
from conftest import same_bits  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))

# |height| = 10**exponent: from far below the tail eps to where order 8
# overflows on every grid
_height = st.builds(lambda sign, e: sign * 10.0 ** e,
                    st.sampled_from((-1.0, 1.0)), st.floats(-20.0, 100.0))


@st.composite
def _edge(draw, grid):
    """A point of [0, x_max]: a node, or anywhere."""
    if draw(st.booleans()):
        return float(grid.nodes[draw(st.integers(0, grid.n_points - 1))])
    return draw(st.floats(0.0, grid.x_max))


@st.composite
def _potential(draw, grid):
    if draw(st.booleans()):
        edges = sorted({draw(_edge(grid))
                        for _ in range(2 * draw(st.integers(1, 3)))})
        segments = [(lo, hi, draw(_height))
                    for lo, hi in zip(edges[::2], edges[1::2])]
        return PotentialSpec.piecewise_constant(segments)
    bumps = [(draw(st.floats(-0.5, grid.x_max + 0.5)),
              draw(st.floats(0.02, 1.0)), draw(_height))
             for _ in range(draw(st.integers(1, 3)))]
    return PotentialSpec.gaussian_sum(bumps)


@st.composite
def _inputs(draw):
    grid = Grid(draw(st.sampled_from((1.0, 2.5, 4.0))),
                2 * draw(st.integers(1, 400)) + 1)
    k = draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        ref = analytic_free_reference(k, grid)
    else:
        # coarse grids miss any certificate; every finite solved wave is a
        # valid background for comparing two forms of one operator
        v = PotentialSpec.gaussian_sum([(0.4 * grid.x_max, 0.3, 0.4)])
        ref = solve_reference(v, k, grid, tol_wronskian=math.inf)
    return ref, draw(_potential(grid)), draw(st.integers(1, 8))


@PROPERTY_SETTINGS
@given(_inputs())
def test_window_gives_the_full_grid_bits_and_outcome(inputs):
    ref, u, order = inputs
    want, finite = full_grid_hierarchy(ref, u, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            got = compute_hierarchy(ref, u, order).values_at_zero
            assert same_bits(got, want)
        else:
            with pytest.raises(NonFiniteResult):
                compute_hierarchy(ref, u, order)
