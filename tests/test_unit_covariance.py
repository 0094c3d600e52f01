"""Property tests: the phases do not depend on the unit of length.

Measuring length in a unit 2^-m times as large multiplies x_max, segment
edges and gaussian centres and widths by 2^m, k by 2^-m, and the values of
V and U (and with them `eps_tail`) by 4^-m.  Every phase is dimensionless,
and each such factor is an exact power of two, so the background phase,
the series coefficients, the closed-form low orders and the oracle's phase
and relative residual must keep every bit.  Doubling U doubles f_n's
order, so delta_n(2U) = 2^n delta_n(U), also bit for bit.

Exponents and magnitudes are drawn so that nothing overflows or goes
subnormal at either scale.  Examples are drawn from a fixed seed
(``derandomize``), so every run checks the same cases.  The module is
skipped where hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift import (  # noqa: E402
    Grid,
    PotentialSpec,
    analytic_free_reference,
    assemble_series,
    delta1_direct,
    delta2_direct,
    delta3_direct,
    solve_reference,
)
from phaseshift.oracle import sweep_series  # noqa: E402
from phaseshift.potential import DEFAULT_TAIL_EPS  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))

MAX_ORDER = 8


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


@st.composite
def _value(draw):
    # away from zero, so that no order of the series underflows
    return draw(st.sampled_from((-1.0, 1.0))) * draw(_finite(0.05, 2.0))


@st.composite
def _potential(draw, x_max, n_points, kinds):
    """(kind, payload) of a potential supported inside [0, x_max]."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return kind, ()
    if kind == "piecewise_constant":
        cuts = sorted(draw(st.sets(_finite(0.0, x_max), min_size=2,
                                   max_size=4)))
        edges = cuts[:len(cuts) // 2 * 2]
        return kind, tuple((lo, hi, draw(_value()))
                           for lo, hi in zip(edges[::2], edges[1::2]))
    if kind == "gaussian_sum":
        # |2h| / eps_tail <= 4e12, so a bump reaches at most 7.7 widths past
        # its centre and ends before 0.92 x_max, U doubled included
        return kind, tuple(draw(st.lists(st.tuples(
            _finite(0.05 * x_max, 0.3 * x_max),
            _finite(0.03 * x_max, 0.08 * x_max), _value()),
            min_size=1, max_size=2)))
    # tabulated: zero past 0.6 x_max
    samples = draw(st.lists(_value(), min_size=n_points, max_size=n_points))
    return kind, tuple(v if 5 * i < 3 * (n_points - 1) else 0.0
                       for i, v in enumerate(samples))


@st.composite
def problems(draw):
    x_max = draw(_finite(1.0, 4.0))
    n_points = 2 * draw(st.integers(200, 800)) + 1
    return {
        "x_max": x_max,
        "n_points": n_points,
        "k": draw(_finite(0.3, 2.0)),
        "V": draw(_potential(x_max, n_points, ("zero", "piecewise_constant",
                                               "gaussian_sum"))),
        "U": draw(_potential(x_max, n_points, ("piecewise_constant",
                                               "gaussian_sum", "tabulated"))),
        "eps_tail": draw(st.sampled_from((DEFAULT_TAIL_EPS, 1e-10, 1e-8))),
        "coupling": draw(_finite(0.05, 0.5)),
    }


def _spec(kind, payload, grid, length, value, eps_tail):
    """The potential (kind, payload) with its lengths multiplied by `length`
    and its values and tail tolerance by `value`."""
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "piecewise_constant":
        return PotentialSpec.piecewise_constant(
            [(lo * length, hi * length, v * value) for lo, hi, v in payload])
    if kind == "gaussian_sum":
        return PotentialSpec.gaussian_sum(
            [(c * length, w * length, h * value) for c, w, h in payload],
            eps_tail=eps_tail * value)
    return PotentialSpec.tabulated([v * value for v in payload], grid,
                                   eps_tail=eps_tail * value)


def _phases(problem, m, u_factor=1.0):
    """Every phase of `problem` with lengths in a unit 2^-m times as large,
    and U multiplied by `u_factor`."""
    length, value = 2.0 ** m, 4.0 ** -m
    grid = Grid(problem["x_max"] * length, problem["n_points"])
    k = problem["k"] / length
    eps = problem["eps_tail"]
    V = _spec(*problem["V"], grid, length, value, eps)
    U = _spec(*problem["U"], grid, length, value * u_factor, eps)
    # as the CLI does: the exact free wave for a zero background
    if V.support_hi == 0.0:
        ref = analytic_free_reference(k, grid)
    else:
        ref = solve_reference(V, k, grid)
    series = assemble_series(ref, U, MAX_ORDER)
    oracle, = sweep_series(series, V, U, [problem["coupling"]])
    return {
        "delta0": ref.delta0,
        "corrections": series.corrections,
        "direct": (delta1_direct(ref, U), delta2_direct(ref, U),
                   delta3_direct(ref, U)),
        "delta_exact": oracle.delta_exact,
        "relative_residual": oracle.wronskian_residual / k,
    }


def _bits(phases):
    return {name: [float(v).hex() for v in
                   (value if isinstance(value, tuple) else (value,))]
            for name, value in phases.items()}


@PROPERTY_SETTINGS
@given(problems(), st.integers(-6, 6).filter(bool))
def test_every_phase_keeps_its_bits_in_another_unit_of_length(problem, m):
    assert _bits(_phases(problem, m)) == _bits(_phases(problem, 0))


@PROPERTY_SETTINGS
@given(problems())
def test_doubling_u_doubles_delta_n_n_times(problem):
    once = _phases(problem, 0)["corrections"]
    twice = _phases(problem, 0, u_factor=2.0)["corrections"]
    assert [d.hex() for d in twice] == [
        (2.0 ** n * d).hex() for n, d in enumerate(once, start=1)]
