import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from phaseshift import (
    Grid,
    GridMismatch,
    NonFiniteResult,
    OrderOutOfRange,
    PotentialSpec,
    analytic_free_reference,
    compute_hierarchy,
    sample_potential,
    solve_reference,
    step_by_double_integral,
)

from phaseshift.hierarchy import _window

from _oracles import (full_grid_hierarchy, full_grid_recursion,
                      recursion_step_loop)
from conftest import same_bits

EPS = sys.float_info.epsilon


def unit_function(grid):
    return np.ones(grid.n_points, dtype=complex)


def test_zero_perturbation_gives_identically_zero_functions():
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    res = compute_hierarchy(ref, PotentialSpec.zero(), 3)
    assert len(res.values_at_zero) == 3
    assert res.values_at_zero == (0.0, 0.0, 0.0)
    # no cell carries a weight, so a k for which step / k overflows gives
    # exact zeros too
    tiny_k = analytic_free_reference(5e-324, Grid(2.0, 201))
    zeros = compute_hierarchy(tiny_k, PotentialSpec.zero(), 3).values_at_zero
    assert zeros == (0.0, 0.0, 0.0)


def test_first_order_barrier_anchor(fine_free_ref, barrier):
    # closed form: the first correction of a unit barrier on [0, 1] at k=1
    # has imaginary part -(1 - sin(2)/2) at the origin
    res = compute_hierarchy(fine_free_ref, barrier, 1)
    anchor = -(1.0 - math.sin(2.0) / 2.0)
    assert abs(res.values_at_zero[0].imag - anchor) < 1e-8


def test_hierarchy_equals_manual_composition(barrier):
    # two applications of the full-grid operator by hand; its layout runs
    # from x_max down, so x = 0 is the last node
    ref = analytic_free_reference(1.0, Grid(2.0, 1001))
    res = compute_hierarchy(ref, barrier, 2)
    step = full_grid_recursion(ref, barrier)
    f1 = step(np.ones(ref.grid.n_points, dtype=complex))
    f2 = step(f1)
    assert res.values_at_zero[0] == f1[-1]
    assert res.values_at_zero[1] == f2[-1]


def test_first_order_is_linear_in_the_potential():
    # scaling by 2 is exact in floating point, so f1(0) doubles bitwise
    ref = analytic_free_reference(1.0, Grid(2.0, 2001))
    (f1,) = compute_hierarchy(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]),
        1).values_at_zero
    (f1_doubled,) = compute_hierarchy(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 2.0)]),
        1).values_at_zero
    assert f1 != 0.0
    assert same_bits((f1_doubled,), (2.0 * f1,))


def test_path_equivalence_random_smooth_potentials():
    rng = np.random.default_rng(3)
    grid = Grid(4.0, 4001)
    ref = analytic_free_reference(1.1, grid)
    for _ in range(3):
        bumps = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.15, 0.4)),
                  float(rng.uniform(-1.0, 1.0))) for _ in range(2)]
        u = PotentialSpec.gaussian_sum(bumps)
        fast = compute_hierarchy(ref, u, 3)
        g = unit_function(grid)
        for n in range(3):
            g = step_by_double_integral(ref, u, g)
            a = fast.values_at_zero[n]
            assert abs(a - g[0]) <= 1e-6 * max(1.0, abs(a))


def test_path_equivalence_with_a_jump(barrier):
    grid = Grid(2.0, 4001)
    ref = analytic_free_reference(1.0, grid)
    fast = compute_hierarchy(ref, barrier, 3)
    g = unit_function(grid)
    for n in range(3):
        g = step_by_double_integral(ref, barrier, g)
        a = fast.values_at_zero[n]
        assert abs(a - g[0]) <= 1e-6 * max(1.0, abs(a))


def test_double_integral_path_trivial_cases(barrier):
    grid = Grid(2.0, 801)
    ref = analytic_free_reference(1.0, grid)
    out = step_by_double_integral(ref, PotentialSpec.zero(), unit_function(grid))
    assert np.all(out == 0.0)
    out = step_by_double_integral(ref, barrier, unit_function(grid))
    assert out[-1] == 0.0
    # a node array on the grid, read-only
    assert out.dtype == complex and out.shape == (grid.n_points,)
    assert not out.flags.writeable


def test_double_integral_overflow_raises_without_warnings():
    # the second step overflows at this height; it warned before raising
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    u = PotentialSpec.piecewise_constant([(0.0, 1.0, 1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f1 = step_by_double_integral(ref, u, unit_function(ref.grid))
        with pytest.raises(NonFiniteResult):
            step_by_double_integral(ref, u, f1)


def test_grid_convergence_is_quadratic_or_better(barrier):
    smooth = PotentialSpec.gaussian_sum([(1.0, 0.25, 0.8)])
    for u in (barrier, smooth):
        vals = {}
        for n in (2001, 4001, 8001):
            ref = analytic_free_reference(1.0, Grid(2.5, n))
            vals[n] = compute_hierarchy(ref, u, 2).values_at_zero
        for order in range(2):
            d1 = abs(vals[2001][order] - vals[4001][order])
            d2 = abs(vals[4001][order] - vals[8001][order])
            assert d2 < d1 / 3.0
            assert d1 / d2 < 5.5  # measured ratio is 4.0: clean O(step^2)


def test_order_and_grid_validation(barrier):
    ref = analytic_free_reference(1.0, Grid(2.0, 101))
    with pytest.raises(OrderOutOfRange):
        compute_hierarchy(ref, barrier, 0)
    with pytest.raises(GridMismatch):
        step_by_double_integral(ref, barrier, unit_function(Grid(2.0, 201)))


# Inputs the hierarchy is checked against the former step on: a jump on a
# node, smooth bumps, and a jump between nodes on a background solved by RK4.
FORMER_STEP_CASES = {
    "node-aligned barrier": lambda: (
        analytic_free_reference(1.0, Grid(2.0, 2001)),
        PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)])),
    "two gaussians": lambda: (
        analytic_free_reference(1.1, Grid(4.0, 2001)),
        PotentialSpec.gaussian_sum([(1.2, 0.3, 0.7), (2.5, 0.2, -0.5)])),
    "jump on an RK4 background": lambda: (
        solve_reference(PotentialSpec.gaussian_sum([(1.0, 0.3, 0.4)]), 1.3,
                        Grid(3.0, 2001)),
        PotentialSpec.piecewise_constant([(0.5, 1.25, 0.8)])),
}


def former_step_inputs(ref, u, extended=False):
    """Arguments of recursion_step_loop; `extended` casts to long double."""
    s = sample_potential(u, ref.grid)
    # the loop reads U's right limit at nodes 0..n-2 and its left limit at
    # nodes 1..n-1; the node each array leaves out is never read
    arrays = (ref.density, ref.ratio_shift,
              np.append(s[0], 0.0), np.insert(s[2], 0, 0.0))
    if extended:
        arrays = tuple(a.astype(np.clongdouble if np.iscomplexobj(a)
                                else np.longdouble) for a in arrays)
    return (ref.k, ref.grid.step, *arrays)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="long double has no extra precision here")
@pytest.mark.parametrize("case", FORMER_STEP_CASES)
def test_values_at_zero_are_as_accurate_as_the_former_step(case):
    # Both are compared with the former step's arithmetic in long double.
    # The former step's relative error at one order can fall far below its
    # error at the orders before it (on the RK4 background at 4001 points:
    # 1e-15 at order 9 after 5e-15 to 6e-15 at orders 6-8), so the bound
    # takes its largest relative error up to that order.
    ref, u = FORMER_STEP_CASES[case]()
    args = former_step_inputs(ref, u)
    extended_args = former_step_inputs(ref, u, extended=True)
    former = np.ones(ref.grid.n_points, dtype=complex)
    extended = former.astype(np.clongdouble)
    former_error = 0.0
    for value in compute_hierarchy(ref, u, 20).values_at_zero:
        former = recursion_step_loop(*args, former)
        extended = recursion_step_loop(*extended_args, extended)
        want = complex(extended[0])
        former_error = max(former_error, abs(former[0] - want) / abs(want))
        assert abs(value - want) <= (8.0 * former_error + 4.0 * EPS) * abs(want)


# Free wave at k = 1 and a narrow barrier on [3.1, 3.18], where
# r(z) = exp(2iz) - 1 nearly vanishes, so f_n(0) is far smaller than f_n
# nearer the barrier.  At both heights f_7 is the first correction that
# overflows; at 1.8e47 it overflows only away from x = 0, and f_8 is then
# non-finite at x = 0 too.
@pytest.mark.parametrize("height, max_order",
                         [(1e50, 9), (1e50, 7), (1.8e47, 8), (1.8e47, 7)])
def test_overflow_raises_non_finite_result_without_warnings(height, max_order):
    ref = analytic_free_reference(1.0, Grid(4.0, 401))
    u = PotentialSpec.piecewise_constant([(3.1, 3.18, height)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = compute_hierarchy(ref, u, 6).values_at_zero
        assert all(map(cmath.isfinite, values))
        with pytest.raises(NonFiniteResult):
            compute_hierarchy(ref, u, max_order)


# U shapes the windowed operator is checked on; every edge and bump is placed
# by x, so on the coarse grids it falls between nodes as well as on them.
WINDOW_SHAPES = ("touching x = 0", "touching x_max", "strictly inside",
                 "two pieces with a gap", "a single cell", "zero",
                 "gaussian sum", "tabulated")
WINDOW_GRIDS = (3, 5, 401, 4001)


def window_shape(name, grid):
    x = grid.nodes
    j = max((grid.n_points - 1) // 2 - 1, 0)
    if name == "tabulated":
        hat = np.maximum(0.0, 0.6 * (1.0 - np.abs(x - 2.0) / 0.9))
        return PotentialSpec.tabulated(hat, grid)
    if name == "gaussian sum":
        return PotentialSpec.gaussian_sum([(1.0, 0.2, 0.5), (0.98, 0.2, 0.5),
                                           (2.6, 0.3, -0.4)])
    segments = {
        "touching x = 0": [(0.0, 1.5, 0.8)],
        "touching x_max": [(2.5, grid.x_max, 0.6)],
        "strictly inside": [(1.0, 2.5, -0.7)],
        "two pieces with a gap": [(0.5, 1.25, 0.9), (2.0, 3.0, -0.4)],
        "a single cell": [(float(x[j]), float(x[j + 1]), 0.7)],
        "zero": [],
    }[name]
    return PotentialSpec.piecewise_constant(segments)


def window_background(name, grid):
    if name == "free":
        return analytic_free_reference(1.3, grid)
    # 3 and 5 points are far too coarse for the default certificate; the
    # operator is checked on whatever wave the propagator gives there
    v = PotentialSpec.gaussian_sum([(1.2, 0.4, 0.3)])
    return solve_reference(v, 1.3, grid, tol_wronskian=10.0)


@pytest.mark.parametrize("background", ("free", "RK4"))
@pytest.mark.parametrize("shape", WINDOW_SHAPES)
def test_window_matches_the_full_grid_operator(shape, background):
    for n in WINDOW_GRIDS:
        grid = Grid(4.0, n)
        ref = window_background(background, grid)
        u = window_shape(shape, grid)
        want, finite = full_grid_hierarchy(ref, u, 20)
        assert finite
        assert same_bits(compute_hierarchy(ref, u, 20).values_at_zero, want)


def test_window_spans_exactly_the_cells_with_a_nonzero_weight():
    # Cell i spans nodes i and i + 1 (x = 0 first).  Its weights are U's
    # right limit at node i and U's left limit at node i + 1; the window
    # runs from the first to the last cell with either nonzero.
    for n in WINDOW_GRIDS:
        grid = Grid(4.0, n)
        for shape in WINDOW_SHAPES:
            s = sample_potential(window_shape(shape, grid), grid)
            cells = [c for c in range(n - 1)
                     if s[0, c] != 0.0 or s[2, c] != 0.0]
            window = _window(s)
            if not cells:
                assert window is None, shape
                continue
            assert (window.start, window.stop - 1) == \
                (cells[0], cells[-1]), (shape, n)


def test_overflow_below_the_window_at_an_earlier_order_raises():
    # On a single cell every correction from f_3 on is exactly zero in the
    # window.  At this height f_2 is finite in the window but overflows
    # below it (|r| reaches 2 there), so later orders, which read f_2 in
    # the window alone, stay finite; the full grid carries the overflow to
    # x = 0 at order 3.
    ref = analytic_free_reference(1.0, Grid(4.0, 41))
    u = PotentialSpec.piecewise_constant([(2.0, 2.1, 4.5e155)])
    assert full_grid_hierarchy(ref, u, 1)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cmath.isfinite(compute_hierarchy(ref, u, 1).values_at_zero[0])
        for order in (2, 3, 8):
            assert not full_grid_hierarchy(ref, u, order)[1]
            with pytest.raises(NonFiniteResult):
                compute_hierarchy(ref, u, order)


def test_a_large_finite_correction_below_the_window_is_no_overflow():
    # Free wave at k = 0.01 and U on the one cell at x = pi / (2k), where
    # r = exp(2ikx) - 1 is -2, so W is close to -2 P.  Below the cell
    # f_1 = W - r P stays within 2 |P| (1.2e308 at x = 0) and is finite;
    # W + r P would reach 4 |P| next to the cell and overflow.
    ref = analytic_free_reference(0.01, Grid(200.0, 2001))
    x = ref.grid.nodes
    u = PotentialSpec.piecewise_constant([(float(x[1571]), float(x[1572]),
                                           6e306)])
    want, finite = full_grid_hierarchy(ref, u, 1)
    assert finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(compute_hierarchy(ref, u, 1).values_at_zero, want)
