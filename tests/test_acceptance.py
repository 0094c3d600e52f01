"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines as
they happen; a summary block is printed at the end of the session either way.
Criterion A3 is expected to fail at truncation 3 — see the README section on
the known fourth-order measurement limit.
"""

import time

import numpy as np
import pytest

from phaseshift import (
    Grid,
    PotentialSpec,
    analytic_free_reference,
    assemble_delta_n,
    assemble_series,
    compute_hierarchy,
    convergence_order_check,
    enumerate_partitions,
    log_expansion_reference,
    solve_exact,
    solve_reference,
    step_by_double_integral,
)
from phaseshift.cross_check import delta1_direct, delta2_direct, delta3_direct
from phaseshift.potential import ComplexGridFunction

from conftest import record_verdict

ZERO = PotentialSpec.zero()


def test_a1_certified_reference_waves(barrier03):
    potentials = (ZERO, barrier03, PotentialSpec.gaussian_sum([(1.0, 0.2, 0.5)]))
    grid = Grid(5.0, 4001)
    t0 = time.perf_counter()
    worst = 0.0
    for v in potentials:
        for k in (0.5, 1.0, 2.0):
            ref = solve_reference(v, k, grid)
            worst = max(worst, ref.wronskian_residual / (1e-8 * k))
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0 and elapsed < 1.0
    assert record_verdict("A1 certified reference waves", ok), (
        f"worst residual / (1e-8 k) = {worst:.3f}, elapsed {elapsed:.2f} s"
    )


def test_a2_first_order_barrier_anchor(fine_free_ref, barrier):
    t0 = time.perf_counter()
    series = assemble_series(fine_free_ref, barrier, 1)
    elapsed = time.perf_counter() - t0
    want = -(1.0 - np.sin(2.0) / 2.0)
    error = abs(series.corrections[0] - want)
    ok = error < 1e-8 and elapsed < 1.0
    assert record_verdict("A2 first-order barrier anchor", ok), (
        f"|delta_1 - closed form| = {error:.3e}, elapsed {elapsed:.2f} s"
    )


def test_a3_remainder_orders(barrier_series, barrier):
    t0 = time.perf_counter()
    report = convergence_order_check(barrier_series, ZERO, barrier, (0.1, 0.05))
    elapsed = time.perf_counter() - t0
    required = all(report.checks[n].status == "PASS" for n in (1, 2, 3))
    relaxed = report.checks[4].status in ("PASS", "INCONCLUSIVE")
    ok = required and relaxed and elapsed < 10.0
    detail = "; ".join(
        f"N={c.truncation}: p_hat={c.p_hat:.4f} {c.status}"
        for c in report.checks
    )
    assert record_verdict("A3 remainder orders N=1..4", ok), (
        f"{detail}; elapsed {elapsed:.2f} s"
    )


def _unit_barrier_report(scale):
    # the unit barrier with lengths in a unit 1/scale times as large: x_max
    # and the edge times scale, k over scale, the height over scale^2
    grid = Grid(2.0 * scale, 4001)
    u = PotentialSpec.piecewise_constant([(0.0, scale, 1.0 / scale ** 2)])
    series = assemble_series(analytic_free_reference(1.0 / scale, grid), u, 4)
    return convergence_order_check(series, ZERO, u, (0.1, 0.05))


def test_a3_order_estimates_do_not_depend_on_the_unit_of_length():
    p_hats = [[c.p_hat.hex() for c in _unit_barrier_report(scale).checks]
              for scale in (0.125, 1.0, 8.0)]
    assert p_hats[0] == p_hats[1] == p_hats[2]


@pytest.mark.xfail(strict=True, reason="oracle._noise_floor has terms in "
                   "length^2 and length^5, so the gate that reads it moves "
                   "with the unit of length while p_hat does not")
def test_a3_verdicts_do_not_depend_on_the_unit_of_length():
    # at scale 1/8, N=3 is FAIL and N=4 PASS; at 1 and 8 both INCONCLUSIVE
    statuses = [[c.status for c in _unit_barrier_report(scale).checks]
                for scale in (0.125, 1.0, 8.0)]
    assert statuses[0] == statuses[1] == statuses[2]


def test_a4_series_vs_direct_formulas(smooth_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for u, refs in smooth_suite:
        for k, ref in refs.items():
            series = assemble_series(ref, u, 3)
            direct = (delta1_direct(ref, u), delta2_direct(ref, u),
                      delta3_direct(ref, u))
            for got, want in zip(series.corrections, direct):
                rel = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    assert record_verdict("A4 series vs direct low orders", ok), (
        f"worst relative disagreement {worst:.3e}, elapsed {elapsed:.2f} s"
    )


def test_a5_partition_sum_vs_recurrence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = [complex(a, b) for a, b in rng.uniform(-1.0, 1.0, size=(10, 2))]
        for n in range(1, 11):
            worst = max(worst, abs(assemble_delta_n(f, n)
                                   - log_expansion_reference(f, n)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert record_verdict("A5 partition sum vs log recurrence", ok), (
        f"worst |difference| = {worst:.3e}, elapsed {elapsed:.2f} s"
    )


def test_a6_partition_enumeration():
    counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    t0 = time.perf_counter()
    got_counts = [len(enumerate_partitions(n)) for n in range(1, 13)]
    order4 = [t.multiplicities for t in enumerate_partitions(4)]
    elapsed = time.perf_counter() - t0
    ok = (got_counts == counts
          and order4 == [(0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 0, 0),
                         (2, 1, 0, 0), (4, 0, 0, 0)]
          and elapsed < 0.1)
    assert record_verdict("A6 partition enumeration", ok), (
        f"counts {got_counts}, order-4 tuples {order4}, elapsed {elapsed:.3f} s"
    )


def test_a7_hierarchy_path_equivalence(smooth_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for u, refs in smooth_suite:
        for k, ref in refs.items():
            fast = compute_hierarchy(ref, u, 3)
            g = ComplexGridFunction(
                ref.grid, np.ones(ref.grid.n_points, dtype=complex))
            for n in range(3):
                g = step_by_double_integral(ref, u, g)
                want = fast.values_at_zero[n]
                rel = abs(g.values[0] - want) / max(1.0, abs(want))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert record_verdict("A7 hierarchy path equivalence", ok), (
        f"worst relative disagreement {worst:.3e}, elapsed {elapsed:.2f} s"
    )


def test_a8_exact_zero_limits(fine_free_ref, barrier03, barrier):
    series = assemble_series(fine_free_ref, ZERO, 6)
    corrections_zero = series.corrections == (0.0,) * 6

    grid = Grid(5.0, 2001)
    ref = solve_reference(barrier03, 1.0, grid)
    res = solve_exact(barrier03, barrier, 0.0, 1.0, grid)
    oracle_matches = abs(res.delta_exact - ref.delta0) < 1e-12

    origin_exact = (ref.ratio_shift.values[0] == 0.0
                    and fine_free_ref.ratio_shift.values[0] == 0.0)

    ok = corrections_zero and oracle_matches and origin_exact
    assert record_verdict("A8 exact zero limits", ok), (
        f"corrections_zero={corrections_zero} oracle_matches={oracle_matches} "
        f"origin_exact={origin_exact}"
    )
