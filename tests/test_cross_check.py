import warnings

import numpy as np
import pytest

from phaseshift import (
    Grid,
    GridMismatch,
    NestedIntegrandSet,
    NonFiniteResult,
    PotentialSpec,
    analytic_free_reference,
    assemble_series,
    delta1_direct,
    delta2_direct,
    delta3_direct,
    integrand_factors,
    nested_integral,
)

from _oracles import TWO_FACTOR_BARRIER, brute_force_two_factor


def ones(grid):
    """The factor 1, as its (lower, upper) values in every cell."""
    cells = np.ones(grid.n_points - 1, dtype=complex)
    return cells, cells


def test_single_factor_is_a_plain_integral():
    grid = Grid(2.0, 51)
    value = nested_integral(NestedIntegrandSet(grid, (ones(grid),)))
    assert abs(value - 2.0) < 1e-12


def test_two_constant_factors_give_half_the_square():
    # ordered integral over 0 < x1 < x2 < 2 of 1 is half of 2*2
    grid = Grid(2.0, 51)
    value = nested_integral(NestedIntegrandSet(grid, (ones(grid), ones(grid))))
    assert abs(value - 2.0) < 1e-12


def test_three_constant_factors_give_the_simplex_volume():
    # 2^3 / 3! with one O(step^2) trapezoid layer in the outermost pass
    grid = Grid(2.0, 801)
    value = nested_integral(NestedIntegrandSet(grid, (ones(grid),) * 3))
    assert abs(value - 8.0 / 6.0) < grid.step ** 2


def test_two_factor_barrier_against_frozen_quadrature(fine_free_ref, barrier):
    value = nested_integral(integrand_factors(fine_free_ref, barrier, (2, 0)))
    assert abs(value - TWO_FACTOR_BARRIER) <= 1e-7 * abs(TWO_FACTOR_BARRIER)


def test_two_factor_barrier_against_brute_force_mesh(fine_free_ref, barrier):
    value = nested_integral(integrand_factors(fine_free_ref, barrier, (2, 0)))
    brute = brute_force_two_factor(400)
    assert abs(value - brute) <= 1e-4 * abs(value)


def test_direct_first_order_equals_partition_path(fine_free_ref, barrier,
                                                  barrier_series):
    # both reduce to the same cumulative integral; agreement is essentially
    # bitwise
    d1 = delta1_direct(fine_free_ref, barrier)
    assert abs(d1 - barrier_series.corrections[0]) < 1e-14


def test_direct_forms_match_series_low_orders(fine_free_ref, barrier,
                                              barrier_series):
    d2 = delta2_direct(fine_free_ref, barrier)
    d3 = delta3_direct(fine_free_ref, barrier)
    assert abs(d2 - barrier_series.corrections[1]) < 1e-8
    assert abs(d3 - barrier_series.corrections[2]) < 1e-7


def test_zero_perturbation_gives_zero():
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    zero = PotentialSpec.zero()
    assert delta1_direct(ref, zero) == 0.0
    assert delta2_direct(ref, zero) == 0.0
    assert delta3_direct(ref, zero) == 0.0


def test_scaling_multilinearity():
    ref = analytic_free_reference(1.0, Grid(2.0, 2001))
    u = PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)])
    u2 = PotentialSpec.piecewise_constant([(0.0, 1.0, 2.0)])
    u15 = PotentialSpec.piecewise_constant([(0.0, 1.0, 1.5)])
    d2, d2_scaled = delta2_direct(ref, u), delta2_direct(ref, u2)
    assert abs(d2_scaled - 4.0 * d2) <= 1e-10 * abs(4.0 * d2)
    d3, d3_scaled = delta3_direct(ref, u), delta3_direct(ref, u15)
    assert abs(d3_scaled - 1.5 ** 3 * d3) <= 1e-10 * abs(1.5 ** 3 * d3)


def test_direct_forms_on_smooth_potential_and_background(barrier03):
    # cross-formula agreement holds off the free background too
    grid = Grid(5.0, 8001)
    ref = analytic_free_reference(0.9, grid)
    u = PotentialSpec.gaussian_sum([(1.2, 0.3, 0.6), (2.0, 0.2, -0.4)])
    series = assemble_series(ref, u, 3)
    direct = (delta1_direct(ref, u), delta2_direct(ref, u), delta3_direct(ref, u))
    for n in range(3):
        assert abs(series.corrections[n] - direct[n]) <= 1e-7 * max(
            1.0, abs(series.corrections[n]))

    from phaseshift import solve_reference
    ref_v = solve_reference(barrier03, 1.1, grid)
    series_v = assemble_series(ref_v, u, 3)
    direct_v = (delta1_direct(ref_v, u), delta2_direct(ref_v, u),
                delta3_direct(ref_v, u))
    for n in range(3):
        assert abs(series_v.corrections[n] - direct_v[n]) <= 1e-7 * max(
            1.0, abs(series_v.corrections[n]))


def test_factor_set_validation():
    grid = Grid(2.0, 51)
    with pytest.raises(ValueError):
        NestedIntegrandSet(grid, ())
    with pytest.raises(ValueError):
        NestedIntegrandSet(grid, (ones(grid),) * 4)
    with pytest.raises(GridMismatch):
        NestedIntegrandSet(grid, (ones(grid), ones(Grid(2.0, 101))))
    lower, upper = ones(grid)
    with pytest.raises(GridMismatch):
        NestedIntegrandSet(grid, ((lower, np.ones(grid.n_points)),))
    with pytest.raises(NonFiniteResult):
        NestedIntegrandSet(grid, ((lower, np.full(grid.n_points - 1, np.nan)),))
    # the factors are copies that cannot be written
    factors = NestedIntegrandSet(grid, ((lower, upper),))
    assert not factors.factors[0][0].flags.writeable


def test_overflowing_closed_forms_raise_without_warnings():
    # Unit barrier on [0, 1], free wave at k = 1.  At 1e308 every factor is
    # finite but the sum overflows, at 1e200 the product of two levels
    # does, and at 1.7e308 a factor U d r itself does.  These returned NaN
    # after RuntimeWarnings.
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    for direct, height in ((delta1_direct, 1e308), (delta2_direct, 1e200),
                           (delta3_direct, 1e150), (delta1_direct, 1.7e308)):
        u = PotentialSpec.piecewise_constant([(0.0, 1.0, height)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult):
                direct(ref, u)
    # a single finite factor whose integral overflows
    big = np.full(ref.grid.n_points - 1, 1e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult):
            nested_integral(NestedIntegrandSet(ref.grid, ((big, big),)))
