import cmath
import math

import numpy as np
import pytest

from phaseshift import (
    DegenerateSweep,
    Grid,
    NonFiniteResult,
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
from phaseshift.potential import combine_samples, sample_potential
from phaseshift.refwave import integrate_wave_inward

from _oracles import full_solves, transfer_matrix_phase, unwrap

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
        # solve_exact runs the sweep's path too: check both against a solve
        # of each coupling over the whole grid
        reference = full_solves(background, U, lams, 1.0, grid)
        phases = unwrap([phase for _, phase, _ in reference], 0.3)
        for res, (psi0, _, residual), phase in zip(swept, reference, phases):
            assert res.psi_at_zero == psi0
            assert res.delta_exact == phase
            assert res.wronskian_residual == residual


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
        check = report.checks[n]
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
        assert abs(report.checks[2].remainders[i] - want) < 1e-15


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
    report = convergence_order_check(series, ZERO, ZERO, (0.1, 0.05))
    assert len(report.checks) == 4
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


def test_huge_k_is_a_nonfinite_result(barrier):
    # k x_max = 2e308 overflows: the state at x_max is not finite
    grid = Grid(2.0, 101)
    with pytest.raises(NonFiniteResult):
        solve_exact(ZERO, barrier, 0.1, 1e308, grid)
    with pytest.raises(NonFiniteResult):
        sweep_exact(barrier, barrier, (0.1, 0.05), 1e308, grid)
    with pytest.raises(NonFiniteResult):
        solve_reference(barrier, 1e308, grid)


def test_certificate_fails_on_a_fresh_nan_at_a_later_coupling(barrier):
    # the wave overflows to NaN below U's support at 1e6 only; the nodes
    # above it are shared with 0.1 and pass
    grid = Grid(2.0, 401)
    with pytest.raises(WronskianViolation) as single:
        solve_exact(ZERO, barrier, 1e6, 1.0, grid)
    with pytest.raises(WronskianViolation) as swept:
        sweep_exact(ZERO, barrier, (0.1, 1e6), 1.0, grid)
    assert str(swept.value) == str(single.value)
    assert str(single.value).startswith("residual nan is not within")


def test_certificate_over_shared_nodes_fails_at_the_first_coupling():
    # U's 25 cells lie in the bottom two blocks of 16 cells, which the sweep
    # scans again at each coupling; the nodes above them it certifies once.
    # The largest residual sits on those, at the background's edge x = 1
    V = PotentialSpec.piecewise_constant([(1.0, 2.0, 3.0)])
    U = PotentialSpec.piecewise_constant([(0.0, 0.25, 0.1)])
    grid = Grid(2.0, 201)
    samples = combine_samples(sample_potential(V, grid),
                              sample_potential(U, grid), 0.5)
    psi, dpsi = integrate_wave_inward(1.0, grid, samples)
    w = 2.0 * np.abs(psi.imag * dpsi.real - psi.real * dpsi.imag - 1.0)
    fresh, shared = w[:32].max(), w[32:].max()
    assert shared > fresh
    tol = 0.5 * (fresh + shared)  # as a coefficient on k = 1
    with pytest.raises(WronskianViolation) as single:
        solve_exact(V, U, 0.5, 1.0, grid, tol_wronskian=tol)
    with pytest.raises(WronskianViolation) as swept:
        sweep_exact(V, U, (0.5, 0.25), 1.0, grid, tol_wronskian=tol)
    assert str(swept.value) == str(single.value)


def test_non_finite_coupling_fails_like_a_full_solve():
    # 0 * inf is NaN on every cell, also where U is zero
    grid = Grid(2.0, 401)
    U = PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)])
    for coupling in (math.inf, math.nan):
        with pytest.raises(WronskianViolation) as single:
            solve_exact(ZERO, U, coupling, 1.0, grid)
        with pytest.raises(WronskianViolation) as swept:
            sweep_exact(ZERO, U, (0.1, coupling), 1.0, grid)
        assert str(swept.value) == str(single.value)


def test_zero_perturbation_sweep_repeats_one_result(barrier03):
    grid = Grid(2.0, 1001)
    swept = sweep_exact(barrier03, ZERO, (0.4, -2.0, 1e3), 1.0, grid)
    first = swept[0]
    assert first.psi_at_zero == full_solves(barrier03, ZERO, (0.0,), 1.0, grid)[0][0]
    for res in swept[1:]:
        assert (res.delta_exact, res.psi_at_zero, res.wronskian_residual) == (
            first.delta_exact, first.psi_at_zero, first.wronskian_residual)


@pytest.mark.xfail(strict=True, reason="a jump between grid nodes is read as "
                   "a jump on a node; split-cell sampling would restore the order")
def test_off_node_barrier_converges_at_full_order():
    # Unit barrier whose edge w falls inside a cell on every grid below.
    # delta_1 (free reference) is O(h^2) and the oracle O(h^4) once a jump
    # inside a cell is integrated as two pieces; today both errors halve
    # erratically (ratios 2.8 and 10.0 for delta_1; the oracle's error
    # changes sign), so this test fails until that lands and then XPASSes.
    w = 0.7777777
    u = PotentialSpec.piecewise_constant([(0.0, w, 1.0)])
    born = -(w - math.sin(2.0 * w) / 2.0)
    exact = transfer_matrix_phase([(0.0, w, 0.3)], 1.0, 2.0)
    born_err, oracle_err = [], []
    for n in (1001, 2001, 4001):
        grid = Grid(2.0, n)
        series = assemble_series(analytic_free_reference(1.0, grid), u, 1)
        born_err.append(series.corrections[0] - born)
        oracle_err.append(solve_exact(ZERO, u, 0.3, 1.0, grid).delta_exact - exact)
    for errors, lo, hi in ((born_err, 3.0, 5.0), (oracle_err, 12.0, 20.0)):
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(lo <= r <= hi for r in ratios), (errors, ratios)
