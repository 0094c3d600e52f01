import cmath
import math

import numpy as np
import pytest

from phaseshift import (
    Grid,
    NonpositiveK,
    PotentialSpec,
    WronskianViolation,
    analytic_free_reference,
    solve_reference,
)
from phaseshift.potential import combine_samples, sample_potential
from phaseshift.refwave import (
    integrate_wave_inward,
    phase_from_wave,
    reduce_phase,
    wronskian_residual,
)

from _oracles import rk4_wave_loop, transfer_matrix_phase


def test_analytic_free_wave_closed_forms():
    g = Grid(2.0 * np.pi, 201)
    ref = analytic_free_reference(1.0, g)
    x = g.nodes
    assert np.allclose(ref.psi.values, np.exp(-1j * x), rtol=0, atol=1e-15)
    assert np.allclose(ref.density.values, np.exp(-2j * x), rtol=0, atol=1e-15)
    assert np.allclose(ref.ratio_shift.values, np.exp(2j * x) - 1.0,
                       rtol=0, atol=1e-15)
    assert ref.delta0 == 0.0
    assert ref.wronskian_residual < 1e-12
    # k=1 at x=pi: the wave is exactly -1
    i_pi = g.n_points // 2
    assert abs(ref.psi.values[i_pi] - (-1.0)) < 1e-14


def test_ratio_shift_is_zero_at_origin_exactly(barrier03):
    assert analytic_free_reference(1.3, Grid(2.0, 101)).ratio_shift.values[0] == 0.0
    solved = solve_reference(barrier03, 1.0, Grid(5.0, 2001))
    assert solved.ratio_shift.values[0] == 0.0


def test_solved_free_wave_matches_analytic():
    g = Grid(5.0, 2001)
    for k in (0.5, 1.0, 2.0):
        solved = solve_reference(PotentialSpec.zero(), k, g)
        exact = analytic_free_reference(k, g)
        assert np.max(np.abs(solved.psi.values - exact.psi.values)) <= 1e-10
        assert abs(solved.delta0) < 1e-10


def test_boundary_values_are_exact(barrier03):
    g = Grid(5.0, 801)
    ref = solve_reference(barrier03, 1.2, g)
    assert ref.psi.values[-1] == cmath.exp(-1.2j * 5.0)
    assert ref.dpsi.values[-1] == -1.2j * cmath.exp(-1.2j * 5.0)


def test_barrier_background_phase_matches_transfer_matrix(barrier03):
    ref = solve_reference(barrier03, 1.0, Grid(5.0, 4001))
    exact = transfer_matrix_phase([(0.0, 1.0, 0.3)], 1.0, 5.0)
    assert abs(ref.delta0 - exact) < 1e-8
    assert ref.wronskian_residual < 1e-8 * 1.0
    assert np.min(np.abs(ref.psi.values)) > 0.0


def test_density_ratio_product_invariant_free():
    # d(ratio_shift)/dx times density equals 2ik; central differences
    # resolve it to O(step^2) with a constant ~ (2k)^3 / 6
    for k, n in ((1.0, 801), (2.0, 1601)):
        ref = analytic_free_reference(k, Grid(4.0, n))
        h = ref.grid.step
        fd = (ref.ratio_shift.values[2:] - ref.ratio_shift.values[:-2]) / (2 * h)
        resid = np.abs(ref.density.values[1:-1] * fd - 2j * k)
        assert resid.max() < 2.0 * (2.0 * k) ** 3 * h * h


def test_density_ratio_invariant_quadratic_with_jump(barrier03):
    resids = []
    for n in (1001, 2001):
        ref = solve_reference(barrier03, 1.0, Grid(4.0, n))
        h = ref.grid.step
        fd = (ref.ratio_shift.values[2:] - ref.ratio_shift.values[:-2]) / (2 * h)
        resids.append(np.abs(ref.density.values[1:-1] * fd - 2j).max())
    assert resids[1] < resids[0] / 3.0  # halving the step quarters the error


def test_nonpositive_k_rejected():
    g = Grid(1.0, 11)
    with pytest.raises(NonpositiveK):
        solve_reference(PotentialSpec.zero(), 0.0, g)
    with pytest.raises(NonpositiveK):
        analytic_free_reference(-1.0, g)


def test_wronskian_violation_on_coarse_strong_potential():
    strong = PotentialSpec.piecewise_constant([(0.0, 1.0, 5.0)])
    with pytest.raises(WronskianViolation):
        solve_reference(strong, 1.0, Grid(2.0, 41))
    # the same potential is fine once the grid resolves it
    ref = solve_reference(strong, 1.0, Grid(2.0, 401))
    assert ref.wronskian_residual <= 1e-8
    # psi overflows inside this barrier; its NaN residual must not pass
    with pytest.raises(WronskianViolation):
        solve_reference(PotentialSpec.piecewise_constant([(0.0, 1.0, 1e6)]),
                        1.0, Grid(2.0, 401))


def test_reduce_phase_branch_convention():
    assert reduce_phase(0.5 * math.pi) == 0.5 * math.pi
    assert reduce_phase(-0.5 * math.pi) == 0.5 * math.pi
    assert abs(reduce_phase(0.5 * math.pi + 0.1) - (0.1 - 0.5 * math.pi)) < 1e-15
    assert abs(reduce_phase(3.0 * math.pi + 0.2) - 0.2) < 1e-14
    assert reduce_phase(0.3) == 0.3


def test_phase_from_wave_reads_off_the_argument():
    assert abs(phase_from_wave(cmath.exp(0.3j)) - 0.3) < 1e-15
    assert abs(phase_from_wave(2.5 * cmath.exp(-0.4j)) - (-0.4)) < 1e-15
    # pi-periodic: rotating the wave by pi leaves the phase unchanged
    assert abs(phase_from_wave(cmath.exp(1j * (0.3 + math.pi))) - 0.3) < 1e-14


def _sampled_suite(grid):
    """Potentials on `grid`: node-aligned barrier, gaussian, tabulated on a
    coarser grid that `grid` refines (on itself when `grid` has 2 cells),
    and a barrier background plus a gaussian perturbation."""
    barrier = sample_potential(
        PotentialSpec.piecewise_constant([(0.0, 1.0, 1.5)]), grid)
    gauss = sample_potential(
        PotentialSpec.gaussian_sum([(0.8, 0.25, -2.0), (1.3, 0.2, 0.7)]), grid)
    cells = grid.n_points - 1
    coarse_cells = max((c for c in range(2, min(cells // 2, 60) + 1, 2)
                        if cells % c == 0), default=cells)
    coarse = Grid(grid.x_max, coarse_cells + 1)
    table = np.sin(3.0 * coarse.nodes) * (coarse.nodes < 1.5)
    tabulated = sample_potential(PotentialSpec.tabulated(table, coarse), grid)
    background = combine_samples(barrier, gauss, 0.6)
    return {"barrier": barrier, "gaussian": gauss, "tabulated": tabulated,
            "background": background}


@pytest.mark.parametrize("n", (3, 5, 401, 4003))
def test_blocked_scan_matches_the_rk4_loop_at_every_node(n):
    # 4003 points: 4002 cells are not a multiple of isqrt(4002) = 63
    grid = Grid(2.0, n)
    for name, samples in _sampled_suite(grid).items():
        for k in (0.7, 2.0):
            psi, dpsi = integrate_wave_inward(k, grid, samples)
            loop_psi, loop_dpsi = rk4_wave_loop(k, grid, samples)
            assert psi.shape == dpsi.shape == (n,)
            assert np.all(np.abs(psi - loop_psi) <= 1e-13 * np.abs(loop_psi)), name
            assert np.all(np.abs(dpsi - loop_dpsi) <= 1e-13 * np.abs(loop_dpsi)), name
            assert psi[-1] == cmath.exp(-1j * k * grid.x_max)
            assert (wronskian_residual(k, psi, dpsi)
                    <= 10.0 * wronskian_residual(k, loop_psi, loop_dpsi)), name
