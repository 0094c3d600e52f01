import math

import numpy as np
import pytest

from phaseshift import (
    Grid,
    InsufficientFValues,
    NonFiniteResult,
    OrderOutOfRange,
    PhaseSeries,
    PotentialSpec,
    TruncationTooHigh,
    analytic_free_reference,
    assemble_delta_n,
    assemble_series,
    compute_hierarchy,
    divergence_flag,
    evaluate_truncated,
    log_expansion_reference,
)

from phaseshift.series import assemble_corrections

from _oracles import BARRIER_TAYLOR, partition_sum_loop


def random_f(rng, count=10):
    return [complex(a, b) for a, b in rng.uniform(-1.0, 1.0, size=(count, 2))]


def test_low_order_closed_forms():
    rng = np.random.default_rng(2)
    for _ in range(25):
        f = random_f(rng, 3)
        f1, f2, f3 = f
        assert assemble_delta_n(f, 1) == f1.imag
        assert abs(assemble_delta_n(f, 2) - (f2 - 0.5 * f1 ** 2).imag) < 1e-14
        expected3 = (f3 - f1 * f2 + f1 ** 3 / 3.0).imag
        assert abs(assemble_delta_n(f, 3) - expected3) < 1e-14
        # the recurrence path reproduces the same closed forms
        assert log_expansion_reference(f, 1) == f1.imag
        assert abs(log_expansion_reference(f, 2) - (f2 - 0.5 * f1 ** 2).imag) < 1e-14


def test_partition_sum_equals_log_recurrence():
    rng = np.random.default_rng(17)
    for _ in range(50):
        f = random_f(rng)
        for n in range(1, 11):
            a = assemble_delta_n(f, n)
            b = log_expansion_reference(f, n)
            assert abs(a - b) < 1e-12


def same_bits(got, want):
    # == would let -0.0 pass for +0.0
    return (len(got) == len(want)
            and np.array(got).tobytes() == np.array(want).tobytes())


def test_partition_sum_is_bit_identical_to_the_former_loop():
    # same tuples, same products in the same order: every bit must agree
    rng = np.random.default_rng(29)
    for trial in range(40):
        f = np.array(random_f(rng, 20)) * rng.choice([0.5, 1.0, 3.0], size=20)
        f[rng.random(20) < 0.25] = 0.0
        f[rng.random(20) < 0.1] *= 1j  # some purely imaginary entries
        values = list(f) if trial % 2 else tuple(complex(v) for v in f)
        want = [partition_sum_loop(values, n) for n in range(1, 21)]
        for n in range(1, 21):
            assert assemble_delta_n(values, n) == want[n - 1]
        for max_order in (1, 4, 20):
            got = assemble_corrections(values, max_order)
            assert same_bits(got, want[:max_order])
        assert assemble_delta_n(f, 20) == partition_sum_loop(f, 20)

    # the production path: assemble_series on real hierarchy values
    ref = analytic_free_reference(1.0, Grid(3.0, 401))
    u = PotentialSpec.gaussian_sum([(1.0, 0.3, 0.8), (1.7, 0.2, -0.5)])
    for max_order in (1, 4, 20):
        values = compute_hierarchy(ref, u, max_order).values_at_zero
        series = assemble_series(ref, u, max_order)
        want = [partition_sum_loop(values, n)
                for n in range(1, max_order + 1)]
        assert same_bits(series.corrections, want)


def test_overflowing_products_are_non_finite_without_warnings():
    # every power stays finite, but f_2 * f_3 at order 5 overflows: the
    # all-orders pass returns inf or NaN there (PhaseSeries refuses it), the
    # lower orders are untouched, and no RuntimeWarning escapes (pytest
    # turns one into an error, see pyproject.toml)
    f = [0.5 + 0.1j, 1e150 + 1e150j, 1e160 - 1e160j, 0.5j, 0.25]
    got = assemble_corrections(f, 5)
    assert not math.isfinite(got[-1])
    assert not math.isfinite(partition_sum_loop(f, 5))
    assert same_bits(got[:4], [partition_sum_loop(f, n) for n in range(1, 5)])


def test_zero_values_give_zero_correction():
    f = [0j] * 6
    for n in range(1, 7):
        assert assemble_delta_n(f, n) == 0.0


def test_order_validation():
    f = [1.0 + 0.5j]
    with pytest.raises(OrderOutOfRange):
        assemble_delta_n(f, 0)
    with pytest.raises(OrderOutOfRange):
        assemble_delta_n([1j] * 25, 21)
    # the recurrence alone would return 0.0 at order 0 and a value at 21
    with pytest.raises(OrderOutOfRange):
        log_expansion_reference(f, 0)
    with pytest.raises(OrderOutOfRange):
        log_expansion_reference([1j] * 25, 21)
    with pytest.raises(InsufficientFValues):
        assemble_delta_n(f, 2)
    with pytest.raises(InsufficientFValues):
        log_expansion_reference(f, 3)


def test_barrier_series_matches_exact_taylor_coefficients(barrier_series):
    # exact coefficients of the closed-form barrier phase, high-precision
    for n in range(4):
        assert abs(barrier_series.corrections[n] - BARRIER_TAYLOR[n]) < 1e-8
    assert barrier_series.delta0 == 0.0
    assert barrier_series.max_order == 4


def test_zero_perturbation_series():
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    series = assemble_series(ref, PotentialSpec.zero(), 4)
    assert series.corrections == (0.0, 0.0, 0.0, 0.0)
    assert evaluate_truncated(series, 0.7, 4) == series.delta0
    assert divergence_flag(series, 1.0) is False


def test_scaling_covariance():
    # f_n is n-linear in the potential, so delta_n picks up c**n
    ref = analytic_free_reference(1.0, Grid(2.0, 2001))
    base = assemble_series(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]), 4)
    scaled = assemble_series(
        ref, PotentialSpec.piecewise_constant([(0.0, 1.0, 1.7)]), 4)
    for n in range(1, 5):
        want = 1.7 ** n * base.corrections[n - 1]
        assert abs(scaled.corrections[n - 1] - want) <= 1e-10 * max(1.0, abs(want))


def test_evaluate_truncated_partial_sums(barrier_series):
    d = barrier_series
    assert evaluate_truncated(d, 0.3, 0) == d.delta0
    assert evaluate_truncated(d, 0.0, 4) == d.delta0
    expected = d.delta0
    for n in range(1, 5):
        expected += 0.3 ** n * d.corrections[n - 1]
        assert abs(evaluate_truncated(d, 0.3, n) - expected) < 1e-15
    with pytest.raises(TruncationTooHigh):
        evaluate_truncated(d, 0.3, 5)
    with pytest.raises(OrderOutOfRange):
        evaluate_truncated(d, 0.3, -1)


def test_overflowing_powers_of_the_coupling():
    # coupling ** 2 overflows to inf: times a correction of exactly 0.0 it
    # added a NaN, times a nonzero one an inf
    zero_tail = synthetic_series([0.5, 0.0, -0.0])
    for coupling in (1e200, -1e200):
        assert evaluate_truncated(zero_tail, coupling, 3) == 0.1 + coupling * 0.5
    with pytest.raises(NonFiniteResult):
        evaluate_truncated(synthetic_series([0.5, 1e-300]), 1e200, 2)
    # a finite power whose term overflows
    with pytest.raises(NonFiniteResult):
        evaluate_truncated(synthetic_series([1e300]), 1e10, 1)


def test_assemble_series_order_validation(fine_free_ref, barrier):
    # refused before the hierarchy runs, whose own check names "order"
    with pytest.raises(OrderOutOfRange, match="max_order"):
        assemble_series(fine_free_ref, barrier, 0)
    with pytest.raises(OrderOutOfRange, match="max_order"):
        assemble_series(fine_free_ref, barrier, 21)


def synthetic_series(corrections):
    return PhaseSeries(k=1.0, grid=Grid(1.0, 3), delta0=0.1,
                       corrections=tuple(corrections))


def test_divergence_flag_heuristic():
    growing = synthetic_series([0.5, 0.6, 0.7])
    assert divergence_flag(growing, 1.0) is True
    # the same series is convergent when evaluated at a small coupling
    assert divergence_flag(growing, 0.1) is False

    shrinking = synthetic_series([1.0, 0.5, 0.2])
    assert divergence_flag(shrinking, 1.0) is False

    # fewer than three orders: no evidence, never flags
    short = synthetic_series([2.0, 3.0])
    assert divergence_flag(short, 1.0) is False

    # equal nonzero terms are non-decreasing
    level = synthetic_series([0.5, 0.5, 0.5])
    assert divergence_flag(level, 1.0) is True

    # flat zeros do not flag (the "non-decreasing" tail is all zero)
    flat = synthetic_series([0.0, 0.0, 0.0])
    assert divergence_flag(flat, 1.0) is False

    # only the last three orders matter
    late_growth = synthetic_series([5.0, 0.1, 0.2, 0.3])
    assert divergence_flag(late_growth, 1.0) is True


def test_divergence_flag_survives_huge_couplings():
    # coupling ** n overflowed for these; the flag compares the same term
    # sizes scaled by |coupling|^(N-2)
    for coupling in (1e300, -1e300, 1e100):
        assert divergence_flag(synthetic_series([0.5, 0.6, 0.7]), coupling) is True
        assert divergence_flag(synthetic_series([1.0, 0.5, 0.2]), coupling) is True
        assert divergence_flag(synthetic_series([0.0, 0.0, 0.0]), coupling) is False
        assert divergence_flag(synthetic_series([0.3, 0.0, 0.0, 0.0]),
                               coupling) is False
    # terms shrinking tenfold per order: divergent beyond coupling 10 only
    assert divergence_flag(synthetic_series([0.5, 0.05, 0.005]), 20.0) is True
    assert divergence_flag(synthetic_series([0.5, 0.05, 0.005]), 5.0) is False


def test_series_container_validation():
    with pytest.raises(ValueError):
        PhaseSeries(k=1.0, grid=Grid(1.0, 3), delta0=0.0,
                    corrections=(0.1, float("nan")))


def test_the_assembled_order_is_the_number_of_corrections(fine_free_ref, barrier):
    for corrections in ((), (0.1,), (0.1, 0.2, 0.3)):
        series = synthetic_series(corrections)
        assert series.max_order == len(corrections)
        with pytest.raises(AttributeError):
            series.max_order = 7
    assert assemble_series(fine_free_ref, barrier, 5).max_order == 5
    with pytest.raises(TypeError):
        PhaseSeries(k=1.0, grid=Grid(1.0, 3), delta0=0.0,
                    corrections=(0.1, 0.2), max_order=2)


def test_overflowing_series_is_a_typed_error():
    # order 20, unit-width barrier, 401 points: at heights 1e16-1e17 a power
    # f_p**i overflows in the partition sum, from 1e18 the hierarchy itself
    # overflows; both end in one error type and no RuntimeWarning
    ref = analytic_free_reference(1.0, Grid(2.0, 401))
    for height in (1e16, 1e17, 1e18, 1e40):
        barrier = PotentialSpec.piecewise_constant([(0.0, 1.0, height)])
        with pytest.raises(NonFiniteResult):
            assemble_series(ref, barrier, 20)
