import cmath
import math

import numpy as np
import pytest

from phaseshift import (
    DegenerateSweep,
    Grid,
    NonpositiveK,
    PotentialSpec,
    WronskianViolation,
    analytic_free_reference,
    assemble_series,
    convergence_order_check,
    evaluate_truncated,
    solve_exact,
    solve_reference,
    sweep_exact,
)
from phaseshift.oracle import ORACLE_REFINEMENT

from _oracles import transfer_matrix_phase

ZERO = PotentialSpec.zero()

# empirical remainder orders for the order-4 barrier series on the
# (x_max=2, 16001)-grid with couplings (0.1, 0.05); frozen from this
# implementation and cross-checked against an offline high-precision
# evaluation of the closed-form phase
P_HAT_FROZEN = (0.9639400015426536, 1.9756031795687934, 3.0008527370170994,
                3.3343880270170567, 4.92749571929726)
STATUS_FROZEN = ("PASS", "PASS", "PASS", "FAIL", "PASS")


def test_zero_coupling_reduces_to_background(barrier03, barrier):
    grid = Grid(5.0, 801)
    ref = solve_reference(barrier03, 1.0, grid)
    res = solve_exact(barrier03, barrier, 0.0, 1.0, grid)
    assert abs(res.delta_exact - ref.delta0) < 1e-12
    assert res.coupling == 0.0


def test_small_barrier_matches_transfer_matrix(barrier):
    res = solve_exact(ZERO, barrier, 0.1, 1.0, Grid(2.0, 4001))
    exact = transfer_matrix_phase([(0.0, 1.0, 0.1)], 1.0, 2.0)
    assert abs(res.delta_exact - exact) < 1e-8


def test_phase_consistent_with_wave_value(barrier):
    res = solve_exact(ZERO, barrier, 0.4, 1.0, Grid(2.0, 2001))
    ratio = res.psi_at_zero.conjugate() / res.psi_at_zero
    rotated = cmath.exp(-2j * res.delta_exact)
    # the phase is defined mod pi, so the wave ratio matches up to sign
    assert min(abs(rotated - ratio), abs(rotated + ratio)) < 1e-12


def test_sweep_is_continuous_across_a_branch_jump():
    # an attractive well pushes the phase up through pi/2 as the coupling
    # grows; the raw principal value jumps by pi there, the sweep must not
    well = PotentialSpec.piecewise_constant([(0.0, 1.0, -1.0)])
    grid = Grid(2.0, 2001)
    lams = np.linspace(0.2, 3.5, 12)
    swept = sweep_exact(ZERO, well, lams, 1.0, grid)
    deltas = np.array([r.delta_exact for r in swept])
    assert np.max(np.abs(np.diff(deltas))) < 1.0
    raw = solve_exact(ZERO, well, 3.5, 1.0, grid).delta_exact
    assert abs(deltas[-1] - raw - math.pi) < 1e-9


def test_small_coupling_sweep_stays_on_principal_branch(barrier):
    lams = (0.05, 0.1, 0.2)
    swept = sweep_exact(ZERO, barrier, lams, 1.0, Grid(2.0, 2001))
    for res, lam in zip(swept, lams):
        single = solve_exact(ZERO, barrier, lam, 1.0, Grid(2.0, 2001))
        assert res.delta_exact == single.delta_exact


def test_sweep_equals_unwrapped_single_solves(barrier):
    # one sampling pass per sweep must not change a single bit
    background = PotentialSpec.gaussian_sum([(0.5, 0.3, 0.4)])
    well = PotentialSpec.piecewise_constant([(0.0, 1.0, -1.0)])
    grid = Grid(2.0, 1001)
    for U, lams in ((barrier, (0.4, 0.2, 0.1, 0.05)),
                    (well, tuple(np.linspace(0.2, 3.5, 6)))):
        swept = sweep_exact(background, U, lams, 1.0, grid, seed_delta=0.3)
        previous = 0.3
        for res, lam in zip(swept, lams):
            single = solve_exact(background, U, lam, 1.0, grid)
            expected = single.delta_exact + math.pi * round(
                (previous - single.delta_exact) / math.pi)
            assert res.coupling == lam
            assert res.delta_exact == expected
            assert res.psi_at_zero == single.psi_at_zero
            previous = expected


def test_first_order_slope(barrier, barrier_series):
    lam = 1e-3
    res = solve_exact(ZERO, barrier, lam, 1.0, Grid(2.0, 8001))
    slope = (res.delta_exact - 0.0) / lam
    d1 = barrier_series.corrections[0]
    assert abs(slope - d1) <= 1e-3 * abs(d1)


def test_remainders_shrink_with_truncation_order(fine_free_ref, barrier):
    series = assemble_series(fine_free_ref, barrier, 5)
    fine = series.grid.refined(ORACLE_REFINEMENT)
    exact = solve_exact(ZERO, barrier, 0.05, 1.0, fine).delta_exact
    rema = [abs(exact - evaluate_truncated(series, 0.05, n)) for n in range(6)]
    for lower, higher in zip(rema, rema[1:]):
        assert higher <= lower


def test_convergence_order_report(barrier_series, barrier):
    report = convergence_order_check(barrier_series, ZERO, barrier, (0.1, 0.05))
    assert report.couplings == (0.1, 0.05)
    assert len(report.checks) == 5  # truncations 0 .. max_order
    for n in range(5):
        check = report.by_truncation(n)
        assert check.truncation == n
        assert abs(check.p_hat - P_HAT_FROZEN[n]) < 1e-6
        assert check.status == STATUS_FROZEN[n]
        assert len(check.remainders) == 2


def test_remainders_in_report_match_direct_computation(barrier_series, barrier):
    report = convergence_order_check(barrier_series, ZERO, barrier, (0.1, 0.05))
    fine = barrier_series.grid.refined(ORACLE_REFINEMENT)
    for i, lam in enumerate((0.1, 0.05)):
        exact = solve_exact(ZERO, barrier, lam, 1.0, fine).delta_exact
        want = exact - evaluate_truncated(barrier_series, lam, 2)
        assert abs(report.by_truncation(2).remainders[i] - want) < 1e-15


def test_sweep_structure_validation(barrier_series, barrier):
    with pytest.raises(DegenerateSweep):
        convergence_order_check(barrier_series, ZERO, barrier, (0.1,))
    with pytest.raises(DegenerateSweep):
        convergence_order_check(barrier_series, ZERO, barrier, (0.1, 0.06))
    with pytest.raises(DegenerateSweep):
        convergence_order_check(barrier_series, ZERO, barrier, (0.05, 0.1))
    with pytest.raises(DegenerateSweep):
        convergence_order_check(barrier_series, ZERO, barrier, (0.1, -0.05))
    # largest coupling outside the perturbative window
    with pytest.raises(DegenerateSweep):
        convergence_order_check(barrier_series, ZERO, barrier, (1.0, 0.5))


def test_zero_perturbation_check_is_vacuous():
    grid = Grid(2.0, 801)
    series = assemble_series(analytic_free_reference(1.0, grid), ZERO, 3)
    with pytest.raises(DegenerateSweep) as info:
        convergence_order_check(series, ZERO, ZERO, (0.1, 0.05))
    assert info.value.vacuous
    report = info.value.report
    assert all(c.status == "INCONCLUSIVE" for c in report.checks)


def test_oracle_rejects_nonpositive_k(barrier):
    with pytest.raises(NonpositiveK):
        solve_exact(ZERO, barrier, 0.1, 0.0, Grid(2.0, 101))


def test_oracle_certificate_rejects_overflow_and_tight_tolerance(barrier):
    grid = Grid(2.0, 401)
    # the wave overflows to NaN at this coupling; NaN must not pass
    with pytest.raises(WronskianViolation):
        sweep_exact(ZERO, barrier, (1e6,), 1.0, grid)
    # a bound no double-precision solve can meet
    with pytest.raises(WronskianViolation):
        solve_exact(ZERO, barrier, 0.1, 1.0, grid, tol_wronskian=1e-30)
