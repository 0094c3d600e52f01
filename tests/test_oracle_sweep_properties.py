"""Property tests of the oracle's coupling sweep (hypothesis).

A sweep solves every coupling in one scan, which takes the cells above U's
support once and each coupling's cells below it apart.  Every result must still be, bit for
bit, that of a solve of each coupling over the whole grid
(`tests/_oracles.py::full_solves`): psi(0), the unwrapped phase and the
Wronskian residual.  Examples are drawn from a fixed seed (``derandomize``),
so every run checks the same inputs; the module is skipped where hypothesis
is not installed.  A sibling test takes the waves of the sweep's scans
and compares every node of every coupling with a full solve's.

The grids run from one cell to 64000 cells: a scan of one level, of two and
of three above the scalar leaf, most with a partial last block.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from phaseshift import Grid, PotentialSpec, solve_exact, sweep_exact  # noqa: E402
from phaseshift.potential import sample_potential  # noqa: E402
from phaseshift.refwave import (  # noqa: E402
    _support_cells,
    _sweep_scans,
    integrate_wave_inward,
)

from _oracles import combined, full_solves, unwrap  # noqa: E402

X_MAX = 2.0
#: the bound is not under test here, only the bits: every wave passes it
LOOSE_TOL = 1e6

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))

_n_points = st.sampled_from((3, 5, 33, 1027, 4003, 16003, 64001))

_height = st.floats(0.2, 2.0) | st.floats(-2.0, -0.2)

# a barrier anywhere, from x = 0 or away from it, up to the top cell or
# beyond x_max; a sum of gaussians; or no perturbation at all
_barrier = st.tuples(st.floats(0.0, 1.9), st.floats(0.01, 2.5), _height).map(
    lambda b: PotentialSpec.piecewise_constant([(b[0], b[0] + b[1], b[2])]))
_gaussians = st.lists(
    st.tuples(st.floats(0.1, 1.9), st.floats(0.02, 0.3), _height),
    min_size=1, max_size=2).map(PotentialSpec.gaussian_sum)
_U = _barrier | _gaussians | st.just(PotentialSpec.zero())

_V = st.just(PotentialSpec.zero()) | st.tuples(
    st.floats(0.2, 1.8), st.floats(0.1, 0.4), st.floats(-0.5, 0.5)).map(
    lambda b: PotentialSpec.gaussian_sum([b]))

_couplings = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4)

# U whose last nonzero sample is a cell's centre: on 401 points the narrow
# bump at cell 300's centre is below the tail tolerance at every node, so
# `mid` is nonzero up to cell 300 and `lower`/`upper` stop at cell 248.
# Sharing from the end of `lower`/`upper` would reuse cell 300's step from
# the first coupling
_H = X_MAX / 400
MID_ONLY = PotentialSpec.gaussian_sum([(0.5, 0.1, 0.8),
                                       (300.5 * _H, _H / 20.0, 0.9)])


def _assert_sweep_is_full_solves(V, U, couplings, k, n_points):
    grid = Grid(X_MAX, n_points)
    swept = sweep_exact(V, U, couplings, k, grid, seed_delta=0.2,
                        tol_wronskian=LOOSE_TOL)
    reference = full_solves(V, U, couplings, k, grid)
    phases = unwrap([phase for _, phase, _ in reference], 0.2)
    assert len(swept) == len(couplings)
    for res, c, (psi0, phase, residual), unwrapped in zip(
            swept, couplings, reference, phases):
        assert res.coupling == c
        assert res.psi_at_zero == psi0
        assert res.delta_exact == unwrapped
        assert res.wronskian_residual == residual
        single = solve_exact(V, U, c, k, grid, tol_wronskian=LOOSE_TOL)
        assert (single.psi_at_zero, single.delta_exact,
                single.wronskian_residual) == (psi0, phase, residual)


def test_mid_only_cell_lies_above_the_lower_upper_support():
    u = sample_potential(MID_ONLY, Grid(X_MAX, 401))
    assert u[1, 300] != 0.0 and not u[1, 301:].any()
    ends = (u[0] != 0.0) | (u[2] != 0.0)
    assert ends[248] and not ends[249:].any()


@PROPERTY_SETTINGS
@given(V=_V, U=_U, couplings=_couplings, k=st.floats(0.5, 3.0),
       n_points=_n_points)
@example(V=PotentialSpec.zero(), U=MID_ONLY, couplings=[0.3, -0.7, 1.0],
         k=1.0, n_points=401)
@example(V=PotentialSpec.zero(), U=PotentialSpec.zero(),
         couplings=[0.5, -1.0, 1.0], k=1.0, n_points=16003)
@example(V=PotentialSpec.zero(),  # U up to the top cell
         U=PotentialSpec.piecewise_constant([(0.3, 2.0, 1.0)]),
         couplings=[0.5, 0.25], k=1.0, n_points=4003)
@example(V=PotentialSpec.gaussian_sum([(1.5, 0.2, 0.4)]),  # U away from 0
         U=PotentialSpec.piecewise_constant([(0.7, 1.1, -1.5)]),
         couplings=[0.4, 0.2, 0.1, 0.05], k=1.3, n_points=64001)
@example(V=PotentialSpec.gaussian_sum([(0.5, 0.3, 0.4)]),
         U=PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]),
         couplings=[0.4, -0.2], k=2.0, n_points=1027)
@example(V=PotentialSpec.zero(),
         U=PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)]),
         couplings=[0.4, 0.2], k=1.0, n_points=3)
@example(V=PotentialSpec.zero(),
         U=PotentialSpec.piecewise_constant([(0.0, 1.5, 1.0)]),
         couplings=[0.4, 0.2], k=1.0, n_points=5)
@example(V=PotentialSpec.zero(),
         U=PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]),
         couplings=[0.4, 0.2], k=1.0, n_points=33)
def test_sweep_is_bit_identical_to_full_solves(V, U, couplings, k, n_points):
    _assert_sweep_is_full_solves(V, U, couplings, k, n_points)


def _assert_every_node_is_that_of_a_full_solve(v, u, couplings, k, grid):
    # each coupling's wave is its own node slots, then the shared ones
    scans = _sweep_scans(k, grid, v, u, couplings, LOOSE_TOL)
    waves = [[np.concatenate([a[s] for s in layout.nodes(chain)])
              for a in (psi, dpsi)]
             for layout, psi, dpsi, _ in scans for chain in range(layout.chains)]
    assert len(waves) == len(couplings)
    for (swept_psi, swept_dpsi), c in zip(waves, couplings):
        psi, dpsi = integrate_wave_inward(k, grid, combined(v, u, c))
        assert swept_psi.tobytes() == psi.tobytes()
        assert swept_dpsi.tobytes() == dpsi.tobytes()


@pytest.mark.parametrize("n_points", (33, 1027, 4003, 16003, 64001))
def test_every_rescanned_node_is_that_of_a_full_solve(n_points):
    # psi(0) and the residual do not see a wrong node above x = 0: a wave
    # that took another coupling's bottom blocks still keeps the Wronskian
    grid, k = Grid(X_MAX, n_points), 1.3
    v = sample_potential(PotentialSpec.gaussian_sum([(1.2, 0.4, 0.3)]), grid)
    u = sample_potential(PotentialSpec.piecewise_constant([(0.3, 1.1, 1.0)]), grid)
    _assert_every_node_is_that_of_a_full_solve(v, u, np.array([0.4, -0.3, 0.7]),
                                               k, grid)


@pytest.mark.parametrize("n_points", (4001, 16001))
def test_own_blocks_that_end_on_an_upper_block_keep_every_node(n_points):
    # U's support rounds up to 512 cells, 32 blocks: each coupling's own
    # blocks then fill whole blocks of the level above, and the top node of
    # its last one is a shared node there, not the next coupling's node 0
    grid, k = Grid(X_MAX, n_points), 1.3
    v = sample_potential(PotentialSpec.gaussian_sum([(1.2, 0.4, 0.3)]), grid)
    u = sample_potential(
        PotentialSpec.piecewise_constant([(0.0, 500.5 * grid.step, 1.0)]), grid)
    assert _support_cells(u) == 501
    _assert_every_node_is_that_of_a_full_solve(v, u, np.array([0.4, -0.3, 0.7]),
                                               k, grid)
