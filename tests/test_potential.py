import sys

import numpy as np
import pytest

from phaseshift import (
    EvenPointCount,
    Grid,
    PotentialSpec,
    TabulatedGridMismatch,
    cumulative_from_right,
    sample_potential,
    simpson_weights,
)
from phaseshift.potential import _first, combine_cells, sample_cells

from _oracles import sample_by_values_at


def test_grid_nodes_are_multiples_of_step():
    g = Grid(2.0, 5)
    assert g.step == 0.5
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.array_equal(g.midpoints, [0.25, 0.75, 1.25, 1.75])


def test_grid_rejects_even_or_tiny_counts():
    with pytest.raises(EvenPointCount):
        Grid(1.0, 4)
    with pytest.raises(EvenPointCount):
        Grid(1.0, 1)
    with pytest.raises(ValueError):
        Grid(0.0, 5)


def test_grid_rejects_non_finite_extent():
    # at the largest double, the top node i * step rounds to inf
    for x_max in (float("inf"), float("nan"), -float("inf"), sys.float_info.max):
        with pytest.raises(ValueError):
            Grid(x_max, 11)


def test_grid_refinement_keeps_domain():
    g = Grid(2.0, 5).refined(4)
    assert g.n_points == 17
    assert g.x_max == 2.0
    assert g.step == 0.125


def test_simpson_three_point_weights():
    w = simpson_weights(Grid(2.0, 3))
    assert np.allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_simpson_integrates_sine():
    # the asymptotic composite-Simpson error here is step^4/90 (the
    # fourth-derivative integral is 2), i.e. 1.083e-8 at 101 points
    g = Grid(np.pi, 101)
    assert abs(simpson_weights(g) @ np.sin(g.nodes) - 2.0) < 2e-8
    finer = Grid(np.pi, 201)
    assert abs(simpson_weights(finer) @ np.sin(finer.nodes) - 2.0) < 1e-9


def test_simpson_weights_sum_to_interval_length():
    assert abs(simpson_weights(Grid(5.0, 11)).sum() - 5.0) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 2 * int(rng.integers(1, 200)) + 1
        x_max = float(rng.uniform(0.5, 10.0))
        assert abs(simpson_weights(Grid(x_max, n)).sum() - x_max) < 1e-12


def test_simpson_exact_on_cubics():
    rng = np.random.default_rng(11)
    g = Grid(3.0, 21)
    w = simpson_weights(g)
    for _ in range(50):
        c = rng.uniform(-2.0, 2.0, size=4)
        anti = np.polyint(c)
        exact = np.polyval(anti, g.x_max) - np.polyval(anti, 0.0)
        got = w @ np.polyval(c, g.nodes)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_evaluate_empty_segment_list_is_zero():
    s = sample_potential(PotentialSpec.zero(), Grid(2.0, 5))
    assert np.array_equal(s[0], np.zeros(4))
    assert np.array_equal(s[2], np.zeros(4))
    assert PotentialSpec.zero().support_hi == 0.0


def test_gaussian_peak_value():
    spec = PotentialSpec.gaussian_sum([(1.0, 0.2, 0.5)])
    vals = sample_potential(spec, Grid(2.0, 5))[0]
    assert vals[2] == 0.5  # node exactly at the bump center


def test_gaussian_clipped_to_zero_beyond_support():
    # Each bump is cut where it decays to the tail eps.  Beyond the second
    # sum's support_hi (2.468) both tails are below eps_tail, but together
    # they reach 1.42e-12 at 10 nodes: exact zeros all the same.
    for bumps, g in (([(0.5, 0.1, 1.0)], Grid(5.0, 201)),
                     ([(1.0, 0.2, 0.5), (0.98, 0.2, 0.5)], Grid(4.0, 4001))):
        spec = PotentialSpec.gaussian_sum(bumps)
        s = sample_potential(spec, g)
        beyond = g.nodes > spec.support_hi
        assert beyond.any()
        assert np.all(s[0, beyond[:-1]] == 0.0)
        assert np.all(s[2, beyond[1:]] == 0.0)
        assert np.all(s[1, g.midpoints > spec.support_hi] == 0.0)
        assert spec.support_hi < g.x_max


def test_piecewise_beyond_support_is_zero():
    spec = PotentialSpec.piecewise_constant([(0.5, 1.25, -2.0)])
    g = Grid(4.0, 17)
    s = sample_potential(spec, g)
    assert spec.support_hi == 1.25
    assert np.all(s[0, g.nodes[:-1] > 1.25] == 0.0)
    assert np.all(s[2, g.nodes[1:] > 1.25] == 0.0)


def test_spec_constructors_validate():
    with pytest.raises(ValueError):
        PotentialSpec.piecewise_constant([(-0.5, 1.0, 1.0)])
    with pytest.raises(ValueError):
        PotentialSpec.piecewise_constant([(1.0, 0.5, 1.0)])
    with pytest.raises(ValueError, match="bad segment bounds"):
        PotentialSpec.piecewise_constant([(0.5, 0.5, 1.0)])  # zero width
    with pytest.raises(ValueError):
        PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0), (0.5, 2.0, 2.0)])
    with pytest.raises(ValueError):
        PotentialSpec.gaussian_sum([(1.0, -0.2, 0.5)])


def test_spec_constructors_reject_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    for segment in ((0.0, 1.0, nan), (0.0, 1.0, inf), (0.0, inf, 1.0),
                    (nan, 1.0, 1.0), (0.0, nan, 1.0)):
        with pytest.raises(ValueError):
            PotentialSpec.piecewise_constant([segment])
    # a NaN centre used to give support_hi 0.0: a silent zero background
    for bump in ((nan, 0.2, 0.5), (inf, 0.2, 0.5), (1.0, inf, 0.5),
                 (1.0, nan, 0.5), (1.0, 0.2, nan), (1.0, 0.2, -inf)):
        with pytest.raises(ValueError):
            PotentialSpec.gaussian_sum([bump])
    g = Grid(2.0, 5)
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError):
            PotentialSpec.tabulated([0.0, 1.0, bad, 0.0, 0.0], g)
    for eps_tail in (nan, inf, 0.0, -1e-12):
        with pytest.raises(ValueError):
            PotentialSpec.gaussian_sum([(1.0, 0.2, 0.5)], eps_tail=eps_tail)
        with pytest.raises(ValueError):
            PotentialSpec.tabulated([0.0] * 5, g, eps_tail=eps_tail)


def test_tabulated_requires_declared_grid():
    g = Grid(2.0, 5)
    spec = PotentialSpec.tabulated([0.0, 1.0, 0.5, 0.0, 0.0], g)
    s = sample_potential(spec, g)
    assert np.array_equal(s[0], [0.0, 1.0, 0.5, 0.0])
    assert np.array_equal(s[2], [1.0, 0.5, 0.0, 0.0])
    # the interpolant is 0.25 at x = 1.25: its support ends at the next node
    assert spec.support_hi == 1.5
    for wrong in ([1.0, 2.0], 7.0):  # a scalar has no length to report
        with pytest.raises(TabulatedGridMismatch):
            PotentialSpec.tabulated(wrong, g)


def test_a_tabulated_sample_of_exactly_eps_tail_counts_toward_support():
    g = Grid(2.0, 5)
    eps = 1e-12
    at = PotentialSpec.tabulated([0.0, 1.0, 0.0, eps, 0.0], g, eps_tail=eps)
    assert at.support_hi == 2.0
    below = PotentialSpec.tabulated([0.0, 1.0, 0.0, np.nextafter(eps, 0.0), 0.0],
                                    g, eps_tail=eps)
    assert below.support_hi == 1.0
    assert PotentialSpec.tabulated([0.0, 1.0, 0.0, -eps, 0.0], g,
                                   eps_tail=eps).support_hi == 2.0


def test_gaussian_bumps_at_exactly_eps_tail():
    eps = 1e-12
    # a bump of height exactly eps_tail is all tail: it has no support
    edge = PotentialSpec.gaussian_sum([(0.5, 0.1, eps)], eps_tail=eps)
    assert edge.support_hi == 0.0
    assert np.all(edge.values_at(np.array([0.25, 0.5, 0.75])) == 0.0)
    # while a summed value of exactly eps_tail inside the support is kept:
    # the second bump adds exp(-5000) = 0 at x = 0
    spec = PotentialSpec.gaussian_sum([(0.0, 0.1, eps), (1.0, 0.01, 1.0)],
                                      eps_tail=eps)
    assert spec.support_hi > 1.0
    assert spec.values_at(np.array([0.0]))[0] == eps


def test_an_unknown_kind_cannot_be_evaluated():
    with pytest.raises(ValueError, match="unknown potential kind 'bogus'"):
        PotentialSpec(kind="bogus").values_at(np.zeros(3))


def test_tabulated_support_ends_where_the_interpolant_does():
    g = Grid(2.0, 5)
    for samples, support in (([0.5, 0.0, 0.0, 0.0, 0.0], 0.5),  # node 0 only
                             ([0.0, 0.0, 0.0, 0.5, 0.0], 2.0),
                             ([0.0, 0.0, 0.0, 0.0, 0.5], 2.0),
                             ([1e-13, 0.0, 0.0, 0.0, 0.0], 0.0)):
        assert PotentialSpec.tabulated(samples, g).support_hi == support
    # samples below eps_tail after the support are an exact zero tail
    spec = PotentialSpec.tabulated([0.0, 1.0, 0.0, 1e-13, 2e-13], g)
    assert spec.support_hi == 1.0
    fine = g.refined(4)
    s = sample_potential(spec, fine)
    assert np.all(s[0, fine.nodes[:-1] > 1.0] == 0.0)
    assert np.all(s[2, fine.nodes[1:] > 1.0] == 0.0)
    assert np.all(s[1, fine.midpoints > 1.0] == 0.0)
    inside = fine.nodes[:-1]
    assert np.all(s[0, (inside > 0.5) & (inside < 1.0)] > 0.0)
    # this grid's top node rounds above x_max: the support is capped there,
    # and a nonzero top sample is kept
    top = Grid(0.9317519014656098, 47)
    assert top.nodes[-1] > top.x_max
    spec = PotentialSpec.tabulated(np.r_[np.zeros(46), 0.5], top)
    assert spec.support_hi == top.x_max
    assert sample_potential(spec, top)[2, -1] == 0.5


def test_tabulated_sampling_accepts_refinements_only():
    g = Grid(2.0, 5)
    spec = PotentialSpec.tabulated([0.0, 1.0, 0.5, 0.0, 0.0], g)
    s = sample_potential(spec, g.refined(2))
    assert s[0, 1] == 0.5  # linear interpolation between declared nodes
    assert s[0, 2] == 1.0
    with pytest.raises(TabulatedGridMismatch):
        sample_potential(spec, Grid(2.5, 9))
    with pytest.raises(TabulatedGridMismatch):
        sample_potential(spec, Grid(2.0, 7))  # 6 cells not a multiple of 4


def test_two_sided_sampling_at_barrier_edge(barrier):
    s = sample_potential(barrier, Grid(2.0, 5))
    assert s[0, 0] == 1.0
    assert s[0, 2] == 0.0  # right limit at the jump, node 2
    assert s[2, 1] == 1.0  # left limit at the jump, node 2
    assert s[1, 1] == 1.0 and s[1, 2] == 0.0


def test_cumulative_from_right_constant_is_exact():
    g = Grid(2.0, 9)
    out = cumulative_from_right(np.full(8, 3.0 + 0j), np.full(8, 3.0 + 0j), g.step)
    assert out[-1] == 0.0
    assert np.allclose(out, 3.0 * (2.0 - g.nodes), rtol=0, atol=1e-14)


def test_cumulative_two_sided_is_exact_across_a_jump(barrier):
    # integrand 1 on [0,1), 0 after: taking each cell's one-sided limits
    # makes the trapezoid rule exact for a piecewise-constant integrand
    g = Grid(2.0, 9)
    s = sample_potential(barrier, g)
    out = cumulative_from_right(s[0].astype(complex),
                                s[2].astype(complex), g.step)
    expected = np.clip(1.0 - g.nodes, 0.0, None)
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_combine_cells_is_affine(barrier):
    g = Grid(2.0, 9)
    a = sample_cells(barrier, g)
    b = sample_cells(PotentialSpec.gaussian_sum([(0.5, 0.2, 1.0)]), g)
    c = combine_cells(a, b, [0.25, -2.0])
    assert c.shape == (3, 2, 8)
    for combined, x, y in zip(c, a, b):  # lower, mid, upper
        assert np.allclose(combined[0], x + 0.25 * y)
        assert np.allclose(combined[1], x - 2.0 * y)


def test_sample_potential_rejects_plain_arrays(barrier):
    g = Grid(2.0, 5)
    with pytest.raises(TypeError):
        sample_potential(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), g)
    # samples are not a spec either: they are never re-sampled
    with pytest.raises(TypeError):
        sample_potential(sample_potential(barrier, g), g)


def test_left_limits_differ_only_at_segment_edges():
    g = Grid(2.0, 17)
    gauss = PotentialSpec.gaussian_sum([(0.7, 0.2, 1.0), (1.3, 0.1, -0.5)])
    table = PotentialSpec.tabulated(np.sin(np.arange(9.0)), Grid(2.0, 9))
    for spec in (gauss, table):
        s = sample_potential(spec, g)
        assert s[2, :-1].tobytes() == s[0, 1:].tobytes()
    # edges at 0.5 and 1.25 (nodes 4 and 10) and at 0.6 (between nodes)
    steps = PotentialSpec.piecewise_constant([(0.5, 0.6, 2.0), (0.6, 1.25, -1.0)])
    s = sample_potential(steps, g)
    differ = np.nonzero(s[2, :-1] != s[0, 1:])[0] + 1  # inner nodes
    assert differ.tolist() == [4, 10]
    assert s[0, 4] == 2.0 and s[2, 3] == 0.0
    assert s[0, 10] == 0.0 and s[2, 9] == -1.0


def test_gaussian_widths_whose_square_underflows_are_refused():
    for width in (1e-300, 1e-163, 5e-324):
        with pytest.raises(ValueError, match="width"):
            PotentialSpec.gaussian_sum([(1.0, width, 0.5)])


def test_extreme_gaussians_sample_to_their_limits_without_warnings():
    # Tier-1 turns a RuntimeWarning into an error, so these also prove that
    # an overflowing square or quotient stays silent
    g = Grid(2.0, 5)
    needle = sample_potential(PotentialSpec.gaussian_sum([(1.0, 1e-160, 0.5)]), g)
    assert needle[0].tolist() == [0.0, 0.0, 0.5, 0.0]
    assert needle[2].tolist() == [0.0, 0.5, 0.0, 0.0]
    assert not needle[1].any()
    for centre in (1e300, -1e300):
        far = sample_potential(PotentialSpec.gaussian_sum([(centre, 0.2, 0.5)]), g)
        assert not far.any()


# sample_cells, the one sampling routine, fills each segment's index ranges
# of a piecewise spec: they must be the cells that values_at puts in it at
# the grid's nodes and midpoints (tests/_oracles.py::sample_by_values_at)
def _seeded_piecewise(rng, grid):
    """A piecewise spec of up to five segments: edges on nodes, between
    them, at 0, at or beyond x_max; adjacent or apart; values repeated."""
    h, cells = grid.step, grid.n_points - 1
    segments, x = [], 0.0
    for _ in range(rng.integers(0, 6)):
        kind = rng.integers(3)
        if kind == 0:  # on a node
            lo = x if rng.random() < 0.5 else x + h * rng.integers(0, cells // 3 + 1)
            hi = lo + h * rng.integers(1, cells // 2 + 2)
        elif kind == 1:  # between nodes
            lo = x + rng.uniform(0.0, 0.4) * grid.x_max
            hi = lo + rng.uniform(1e-9, 0.6) * grid.x_max
        else:  # one node step wide, or up to x_max and past it
            lo = x
            hi = lo + (h if rng.random() < 0.5 else grid.x_max * rng.uniform(0.5, 1.5))
        if hi <= lo:
            continue
        segments.append((lo, hi, rng.choice([0.0, -0.0, 1.0, -1.5, rng.normal()])))
        x = hi if rng.random() < 0.5 else hi + rng.uniform(0.0, 0.1) * grid.x_max
    return PotentialSpec.piecewise_constant(segments)


def _sampled_specs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        grid = Grid(float(rng.choice([1.0, 2.0, 3.7, rng.uniform(0.3, 5.0)])),
                    int(rng.choice([3, 5, 17, 33, 35, 401, 1027, 4001])))
        kind = rng.integers(10)
        if kind < 7:
            yield _seeded_piecewise(rng, grid), grid
        elif kind < 9:
            yield PotentialSpec.gaussian_sum(
                [(rng.uniform(-0.5, 1.2) * grid.x_max, rng.uniform(0.01, 0.5),
                  rng.normal()) for _ in range(rng.integers(1, 4))]), grid
        else:
            cells = grid.n_points - 1
            coarse = Grid(grid.x_max, min(
                (c for c in (2, 4, 8, cells) if cells % c == 0),
                key=lambda c: abs(c - rng.integers(2, 9))) + 1)
            yield PotentialSpec.tabulated(rng.normal(size=coarse.n_points)
                                          * (coarse.nodes < grid.x_max * rng.random()),
                                          coarse), grid


def test_sample_cells_is_the_values_at_sampling_bit_for_bit():
    for spec, grid in _sampled_specs(23, 600):
        want = np.array(sample_by_values_at(spec, grid))
        out = np.full((3, grid.n_points - 1), np.nan)  # every entry written
        assert sample_cells(spec, grid, out=out) is out
        assert out.tobytes() == want.tobytes(), (spec, grid)
        assert sample_potential(spec, grid).tobytes() == want.tobytes()


class _CountedStep(float):
    """A grid step that counts the points formed from it."""

    points = 0

    def __rmul__(self, other):
        _CountedStep.points += 1
        return float(other) * float(self)


def test_a_range_edge_is_found_from_its_guess_in_a_few_point_checks():
    # _first guesses the index from the division and walks from there; with
    # a dyadic step and edge the guess is exact, so it forms at most three
    # points (the one below, the guess and the next) however many cells
    # there are, and an edge above every point gives the cell count
    step, count = _CountedStep(0.125), 10 ** 6
    for offset, strict in ((0, False), (0.5, False), (1, True)):
        for bound in (0.0, 0.0625, 3.0, 100000.5):
            _CountedStep.points = 0
            i = _first(bound, step, offset, count, strict)
            assert _CountedStep.points <= 3, (bound, offset)
            x = (np.array([i - 1, i]) + offset) * 0.125
            above = x > bound if strict else x >= bound
            assert above.tolist() == [False, True], (bound, offset)
        assert _first(count * 0.125 + 1.0, 0.125, offset, count, strict) == count


def test_segment_ranges_are_exact_at_edges_that_round():
    # node 3 of this grid is 3 * 0.1 = 0.30000000000000004, just above an
    # edge at 0.3, while 0.3 / 0.1 rounds to 2.9999999999999996: the guess
    # from the division must move to the node the comparison picks
    grid = Grid(1.0, 11)
    for edge in (0.3, 0.30000000000000004, 0.7, 0.7000000000000001, 1.0):
        spec = PotentialSpec.piecewise_constant([(0.0, edge, 1.0), (edge, 1.5, 2.0)])
        assert (np.array(sample_cells(spec, grid)).tobytes()
                == np.array(sample_by_values_at(spec, grid)).tobytes()), edge
    huge = PotentialSpec.piecewise_constant([(1e300, 1e301, 1.0)])
    assert not np.array(sample_cells(huge, grid)).any()
