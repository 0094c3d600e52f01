"""The hierarchy and the partition sum against exact Taylor coefficients.

`coupling_taylor_coefficients` takes f_n as Cauchy integrals of the
closed-form transfer-matrix wave, for piecewise-constant V and U: no grid,
only rounding.
"""

import pytest

from phaseshift import (
    Grid,
    PotentialSpec,
    compute_hierarchy,
    log_expansion_reference,
    solve_reference,
)
from phaseshift.series import assemble_corrections

from _oracles import BARRIER_TAYLOR, coupling_taylor_coefficients


@pytest.mark.parametrize("x_max", [1.0, 2.0, 3.0])
def test_cauchy_coefficients_reproduce_the_barrier_taylor_series(x_max):
    # unit barrier on [0, 1] over a zero background, k = 1: F does not
    # depend on how far the grid reaches beyond the barrier
    f = coupling_taylor_coefficients([], [(0.0, 1.0, 1.0)], 1.0, x_max, 6)
    partition_sum = assemble_corrections(f, 6)
    for n, exact in enumerate(BARRIER_TAYLOR, start=1):
        assert abs(log_expansion_reference(f, n) - exact) < 1e-15
        assert abs(partition_sum[n - 1] - exact) < 1e-15


def test_every_hierarchy_order_converges_at_second_order():
    # V = 0.3 on [0, 1], U = 1 on [0.5, 1.5], RK4 reference; every edge is
    # a grid node.  Each halving of the step quarters the error of every
    # f_n(0).  On |c| = 0.9 the rounding of the Cauchy sum puts about 4e-16
    # into f_8, as much as the hierarchy's error at 12001 points; on
    # |c| = 2 it is about 2e-18.
    V, U = [(0.0, 1.0, 0.3)], [(0.5, 1.5, 1.0)]
    exact = coupling_taylor_coefficients(V, U, 1.0, 3.0, 8, rho=2.0)
    errors = []
    for n_points in (1501, 3001, 6001, 12001):
        grid = Grid(3.0, n_points)
        ref = solve_reference(PotentialSpec.piecewise_constant(V), 1.0, grid)
        values = compute_hierarchy(
            ref, PotentialSpec.piecewise_constant(U), 8).values_at_zero
        errors.append([abs(got - want) for got, want in zip(values, exact)])
    for coarse, fine in zip(errors, errors[1:]):
        for n, (a, b) in enumerate(zip(coarse, fine), start=1):
            assert 3.0 < a / b < 5.0, (n, a, b)
