import math

import numpy as np
import pytest

from phaseshift import (
    ComplexGridFunction,
    Grid,
    GridMismatch,
    OrderOutOfRange,
    PotentialSpec,
    analytic_free_reference,
    apply_recursion_step,
    compute_hierarchy,
    step_by_double_integral,
)


def unit_function(grid):
    return ComplexGridFunction(grid, np.ones(grid.n_points, dtype=complex))


def correction_functions(ref, u, order):
    """f_1 ... f_order by iterating the recursion step from the constant 1."""
    g = unit_function(ref.grid)
    functions = []
    for _ in range(order):
        g = apply_recursion_step(ref, u, g)
        functions.append(g)
    return functions


def test_zero_perturbation_gives_identically_zero_functions():
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    res = compute_hierarchy(ref, PotentialSpec.zero(), 3)
    assert len(res.values_at_zero) == 3
    for f in correction_functions(ref, PotentialSpec.zero(), 3):
        assert np.all(f.values == 0.0)
    assert res.values_at_zero == (0.0, 0.0, 0.0)


def test_first_order_barrier_anchor(fine_free_ref, barrier):
    # closed form: the first correction of a unit barrier on [0, 1] at k=1
    # has imaginary part -(1 - sin(2)/2) at the origin
    res = compute_hierarchy(fine_free_ref, barrier, 1)
    anchor = -(1.0 - math.sin(2.0) / 2.0)
    assert abs(res.values_at_zero[0].imag - anchor) < 1e-8


def test_functions_vanish_exactly_beyond_support(fine_free_ref, barrier):
    beyond = fine_free_ref.grid.nodes >= barrier.support_hi
    for f in correction_functions(fine_free_ref, barrier, 3):
        assert np.all(f.values[beyond] == 0.0)
        assert f.values[-1] == 0.0


def test_hierarchy_equals_manual_composition(barrier):
    ref = analytic_free_reference(1.0, Grid(2.0, 1001))
    res = compute_hierarchy(ref, barrier, 2)
    f1 = apply_recursion_step(ref, barrier, unit_function(ref.grid))
    f2 = apply_recursion_step(ref, barrier, f1)
    assert res.values_at_zero[0] == f1.at_zero
    assert res.values_at_zero[1] == f2.at_zero


def test_first_order_is_linear_in_the_potential():
    # scaling by 2 is exact in floating point, so f1 doubles bitwise
    ref = analytic_free_reference(1.0, Grid(2.0, 2001))
    one = unit_function(ref.grid)
    f1 = apply_recursion_step(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]), one)
    f1_doubled = apply_recursion_step(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 2.0)]), one)
    assert np.array_equal(f1_doubled.values, 2.0 * f1.values)


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
            assert abs(a - g.at_zero) <= 1e-6 * max(1.0, abs(a))


def test_path_equivalence_with_a_jump(barrier):
    grid = Grid(2.0, 4001)
    ref = analytic_free_reference(1.0, grid)
    fast = compute_hierarchy(ref, barrier, 3)
    g = unit_function(grid)
    for n in range(3):
        g = step_by_double_integral(ref, barrier, g)
        a = fast.values_at_zero[n]
        assert abs(a - g.at_zero) <= 1e-6 * max(1.0, abs(a))


def test_double_integral_path_trivial_cases(barrier):
    grid = Grid(2.0, 801)
    ref = analytic_free_reference(1.0, grid)
    out = step_by_double_integral(ref, PotentialSpec.zero(), unit_function(grid))
    assert np.all(out.values == 0.0)
    out = step_by_double_integral(ref, barrier, unit_function(grid))
    assert out.values[-1] == 0.0


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
    wrong_grid = unit_function(Grid(2.0, 201))
    with pytest.raises(GridMismatch):
        apply_recursion_step(ref, barrier, wrong_grid)
    with pytest.raises(GridMismatch):
        step_by_double_integral(ref, barrier, wrong_grid)
