import cmath
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from phaseshift import (
    Grid,
    GridMismatch,
    NonFiniteResult,
    NonpositiveK,
    PotentialSpec,
    WronskianViolation,
    analytic_free_reference,
    compute_hierarchy,
    solve_exact,
    solve_reference,
    sweep_exact,
)
from phaseshift import refwave
from phaseshift import potential
from phaseshift.potential import sample_cells, sample_potential
from phaseshift.refwave import (
    ChainLayout,
    integrate_wave_inward,
    phase_from_wave,
    reduce_phase,
    solve_sweep,
    wronskian_residual,
)

from _oracles import (
    combined,
    full_block_scan,
    full_solves,
    node_states_complex,
    rk4_wave_loop,
    transfer_matrix_phase,
)


def test_analytic_free_wave_closed_forms():
    g = Grid(2.0 * np.pi, 201)
    ref = analytic_free_reference(1.0, g)
    x = g.nodes
    assert np.allclose(ref.psi, np.exp(-1j * x), rtol=0, atol=1e-15)
    assert np.allclose(ref.density, np.exp(-2j * x), rtol=0, atol=1e-15)
    assert np.allclose(ref.ratio_shift, np.exp(2j * x) - 1.0,
                       rtol=0, atol=1e-15)
    assert ref.delta0 == 0.0
    assert ref.wronskian_residual < 1e-12
    # k=1 at x=pi: the wave is exactly -1
    i_pi = g.n_points // 2
    assert abs(ref.psi[i_pi] - (-1.0)) < 1e-14


def test_ratio_shift_is_zero_at_origin_exactly(barrier03):
    assert analytic_free_reference(1.3, Grid(2.0, 101)).ratio_shift[0] == 0.0
    solved = solve_reference(barrier03, 1.0, Grid(5.0, 2001))
    assert solved.ratio_shift[0] == 0.0


def test_solved_free_wave_matches_analytic():
    g = Grid(5.0, 2001)
    for k in (0.5, 1.0, 2.0):
        solved = solve_reference(PotentialSpec.zero(), k, g)
        exact = analytic_free_reference(k, g)
        assert np.max(np.abs(solved.psi - exact.psi)) <= 1e-10
        assert abs(solved.delta0) < 1e-10


def test_boundary_values_are_exact(barrier03):
    g = Grid(5.0, 801)
    ref = solve_reference(barrier03, 1.2, g)
    psi, dpsi = integrate_wave_inward(1.2, g, sample_potential(barrier03, g))
    assert ref.psi[-1] == psi[-1] == cmath.exp(-1.2j * 5.0)
    assert dpsi[-1] == -1.2j * cmath.exp(-1.2j * 5.0)


def test_barrier_background_phase_matches_transfer_matrix(barrier03):
    ref = solve_reference(barrier03, 1.0, Grid(5.0, 4001))
    exact = transfer_matrix_phase([(0.0, 1.0, 0.3)], 1.0, 5.0)
    assert abs(ref.delta0 - exact) < 1e-8
    assert ref.wronskian_residual < 1e-8 * 1.0
    assert np.min(np.abs(ref.psi)) > 0.0


def test_density_ratio_product_invariant_free():
    # d(ratio_shift)/dx times density equals 2ik; central differences
    # resolve it to O(step^2) with a constant ~ (2k)^3 / 6
    for k, n in ((1.0, 801), (2.0, 1601)):
        ref = analytic_free_reference(k, Grid(4.0, n))
        h = ref.grid.step
        fd = (ref.ratio_shift[2:] - ref.ratio_shift[:-2]) / (2 * h)
        resid = np.abs(ref.density[1:-1] * fd - 2j * k)
        assert resid.max() < 2.0 * (2.0 * k) ** 3 * h * h


def test_density_ratio_invariant_quadratic_with_jump(barrier03):
    resids = []
    for n in (1001, 2001):
        ref = solve_reference(barrier03, 1.0, Grid(4.0, n))
        h = ref.grid.step
        fd = (ref.ratio_shift[2:] - ref.ratio_shift[:-2]) / (2 * h)
        resids.append(np.abs(ref.density[1:-1] * fd - 2j).max())
    assert resids[1] < resids[0] / 3.0  # halving the step quarters the error


def test_nonpositive_k_rejected():
    g = Grid(1.0, 11)
    with pytest.raises(NonpositiveK):
        solve_reference(PotentialSpec.zero(), 0.0, g)
    with pytest.raises(NonpositiveK):
        analytic_free_reference(-1.0, g)


_BARRIER = PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)])
_ZERO = PotentialSpec.zero()
_GRID = Grid(2.0, 11)
_SAMPLES = sample_potential(_BARRIER, _GRID)

# every way into an exact solve, as a function of k
_K_ENTRIES = {
    "integrate_wave_inward": lambda k: integrate_wave_inward(k, _GRID, _SAMPLES),
    "solve_reference": lambda k: solve_reference(_BARRIER, k, _GRID),
    "analytic_free_reference": lambda k: analytic_free_reference(k, _GRID),
    "solve_exact": lambda k: solve_exact(_ZERO, _BARRIER, 0.1, k, _GRID),
    "sweep_exact_empty": lambda k: sweep_exact(_ZERO, _BARRIER, [], k, _GRID),
    "sweep_exact_two": lambda k: sweep_exact(_ZERO, _BARRIER, [0.1, 0.05], k,
                                             _GRID),
    "solve_sweep": lambda k: solve_sweep(k, _GRID, _BARRIER, _BARRIER, [0.1],
                                         1e-8),
}


@pytest.mark.parametrize("entry", sorted(_K_ENTRIES))
@pytest.mark.parametrize("k, error", [
    (0.0, NonpositiveK), (-1.0, NonpositiveK),
    (math.nan, NonFiniteResult), (1e308, NonFiniteResult),  # k x_max = 2e308
])
def test_every_entry_checks_k(entry, k, error):
    # refwave._top_state is the one check of k, and every entry reaches it
    # before any work: a sweep of no couplings too
    with pytest.raises(error) as raised:
        _K_ENTRIES[entry](k)
    assert type(raised.value) is error


def test_each_entry_checks_k_once_whatever_its_scan_groups(monkeypatch):
    # the entry's one _top_state hands its state to every scan group
    grid = Grid(2.0, 401)
    samples = sample_potential(_BARRIER, grid)
    couplings = [0.1, 0.05, 0.025, -0.05, 0.2]
    whole = solve_sweep(1.0, grid, _BARRIER, _BARRIER, couplings, 1e-8)
    checks, scans = [], []
    top_state, solve = refwave._top_state, refwave._solve

    def counted(*args):
        checks.append(args)
        return top_state(*args)

    def scanned(*args):
        scans.append(args)
        return solve(*args)

    monkeypatch.setattr(refwave, "_top_state", counted)
    monkeypatch.setattr(refwave, "_solve", scanned)
    monkeypatch.setattr(refwave, "_SCAN_SLOTS", 1)  # two couplings a scan
    # each entry, and the (chains, own cells) of each scan it runs: U's
    # support is 200 cells, 208 in whole blocks, and a lone coupling is
    # laid out as itself
    sweep = [(2, 208), (2, 208), (1, 0)]
    entries = {
        "solve_sweep": (lambda: solve_sweep(1.0, grid, _BARRIER, _BARRIER,
                                            couplings, 1e-8), sweep),
        "sweep_exact": (lambda: sweep_exact(_ZERO, _BARRIER, couplings, 1.0,
                                            grid), sweep),
        "solve_reference": (lambda: solve_reference(_BARRIER, 1.0, grid),
                            [(1, 0)]),
        "integrate_wave_inward": (lambda: integrate_wave_inward(1.0, grid,
                                                                samples), [(1, 0)]),
    }
    for name, (entry, layouts) in entries.items():
        checks.clear()
        scans.clear()
        result = entry()
        assert len(checks) == 1, name
        assert [(args[3].chains, args[3].own) for args in scans] == layouts, name
        if name == "solve_sweep":
            # more scans, the same bits
            assert result == whole


def test_an_overflowing_density_raises_without_a_warning():
    # psi reaches about 2e292: finite, so an infinite tolerance certifies
    # it, but psi^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match="non-finite"):
            solve_reference(PotentialSpec.gaussian_sum([(0.8, 0.3, 0.4)]), 1e5,
                            Grid(2.0, 21), tol_wronskian=math.inf)


def test_wronskian_violation_on_coarse_strong_potential():
    strong = PotentialSpec.piecewise_constant([(0.0, 1.0, 5.0)])
    with pytest.raises(WronskianViolation):
        solve_reference(strong, 1.0, Grid(2.0, 41))
    # the same potential is fine once the grid resolves it
    ref = solve_reference(strong, 1.0, Grid(2.0, 401))
    assert ref.wronskian_residual <= 1e-8
    # psi overflows inside this barrier; its NaN residual must not pass
    with pytest.raises(WronskianViolation):
        solve_reference(PotentialSpec.piecewise_constant([(0.0, 1.0, 1e6)]),
                        1.0, Grid(2.0, 401))


def test_the_residual_bound_is_tol_times_k():
    # at k = 2 a residual r passes at tol = r / 2, with the bound exactly r,
    # and fails just below
    grid = Grid(2.0, 401)
    [(_, residual)] = solve_sweep(2.0, grid, _BARRIER, _BARRIER, [0.1], 1.0)
    assert residual > 0.0
    [(_, again)] = solve_sweep(2.0, grid, _BARRIER, _BARRIER, [0.1], residual / 2.0)
    assert again == residual
    with pytest.raises(WronskianViolation):
        solve_sweep(2.0, grid, _BARRIER, _BARRIER, [0.1],
                    residual / 2.0 * (1.0 - 1e-9))


def test_a_wave_with_a_node_is_refused():
    # k = 1 on cells of width 0.5.  These samples of a cell make its RK4 step
    # N01 = 0 and N00 = -1 exactly, so psi at the cell's lower node is
    # exactly 0, while the residual there (2k) passes a bound of 10 k: only
    # the node test refuses this wave.
    k, node = 1.0, "wave has a node; solution untrustworthy"
    mid, upper = -11.500000000000002, -23.5
    # the cell [0.5, 1] with these mid and upper samples, zero elsewhere
    cell = PotentialSpec.piecewise_constant([(0.625, 0.875, mid), (0.875, 1.0, upper)])
    for grid in (Grid(1.0, 3), Grid(17.0, 35)):
        want = np.zeros((3, grid.n_points - 1))
        want[1:, 1] = mid, upper
        assert np.array(sample_cells(cell, grid)).tobytes() == want.tobytes()
    # a single solve of the cell (v + 0 u with u zero): the upper of two cells
    grid = Grid(1.0, 3)
    for tol in (10.0, math.inf):
        with pytest.raises(WronskianViolation, match=node):
            solve_sweep(k, grid, cell, _ZERO, [0.0], tol)
    # a sweep whose second coupling has the node in its own bottom block,
    # below 18 shared cells of free wave, while the first is free throughout:
    # v is free and u the node's cell, at couplings 0 and 1
    grid = Grid(17.0, 35)
    layout = ChainLayout.above(2, 34, 2)
    assert (layout.own, layout.cells - layout.own) == (16, 18)
    with pytest.raises(WronskianViolation, match=node):
        solve_sweep(k, grid, _ZERO, cell, [0.0, 1.0], 10.0)
    psi, dpsi = integrate_wave_inward(k, grid, sample_potential(cell, grid))
    assert psi[1] == 0.0
    assert wronskian_residual(k, psi, dpsi) <= 10.0 * k
    [(_, residual)] = solve_sweep(k, grid, _ZERO, _ZERO, [0.0], 10.0)
    assert residual <= 10.0 * k


def test_reduce_phase_branch_convention():
    assert reduce_phase(0.5 * math.pi) == 0.5 * math.pi
    assert reduce_phase(-0.5 * math.pi) == 0.5 * math.pi
    assert abs(reduce_phase(0.5 * math.pi + 0.1) - (0.1 - 0.5 * math.pi)) < 1e-15
    assert abs(reduce_phase(3.0 * math.pi + 0.2) - 0.2) < 1e-14
    assert reduce_phase(0.3) == 0.3


def test_reduce_phase_returns_at_once_for_any_angle():
    # one subtraction of pi per pass took over 5 s at 1e16 and never ended
    # from about 4e16 up, or at +-inf, where angle - pi == angle
    out = {}
    angles = (1e16, 1e300, -1e300, math.inf, -math.inf, math.nan)
    worker = threading.Thread(
        target=lambda: out.update((a, reduce_phase(a)) for a in angles),
        daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert all(math.isnan(out[a]) for a in (math.inf, -math.inf, math.nan))
    for angle in (1e16, 1e300, -1e300):
        assert -0.5 * math.pi < out[angle] <= 0.5 * math.pi


def test_reduce_phase_lands_on_its_branch_and_keeps_it():
    half = 0.5 * math.pi
    rng = np.random.default_rng(5)
    finite = ([m * half for m in range(-12, 13)]
              + [math.nextafter(half, 0.0), math.nextafter(-half, 0.0),
                 math.nextafter(half, 2.0), math.nextafter(-half, -2.0),
                 0.0, -0.0, 5e-324, -5e-324]
              + rng.uniform(-1e3, 1e3, 200).tolist()
              + (rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-300, 300, 200)).tolist())
    for angle in finite:
        reduced = reduce_phase(angle)
        assert -half < reduced <= half, angle
        if -half < angle <= half:  # the branch keeps its own bits
            assert math.copysign(1.0, reduced) == math.copysign(1.0, angle)
            assert reduced == angle
        if abs(angle) < 1e3:  # the same phase mod pi
            turns = (angle - reduced) / math.pi
            assert abs(turns - round(turns)) < 1e-12, angle


def test_phase_from_wave_reads_off_the_argument():
    assert abs(phase_from_wave(cmath.exp(0.3j)) - 0.3) < 1e-15
    assert abs(phase_from_wave(2.5 * cmath.exp(-0.4j)) - (-0.4)) < 1e-15
    # pi-periodic: rotating the wave by pi leaves the phase unchanged
    assert abs(phase_from_wave(cmath.exp(1j * (0.3 + math.pi))) - 0.3) < 1e-14


def _sampled_suite(grid):
    """Potentials on `grid`: node-aligned barrier, gaussian, tabulated on a
    coarser grid that `grid` refines (on itself when `grid` has 2 cells),
    and a barrier background plus a gaussian perturbation."""
    barrier = sample_potential(
        PotentialSpec.piecewise_constant([(0.0, 1.0, 1.5)]), grid)
    gauss = sample_potential(
        PotentialSpec.gaussian_sum([(0.8, 0.25, -2.0), (1.3, 0.2, 0.7)]), grid)
    cells = grid.n_points - 1
    coarse_cells = max((c for c in range(2, min(cells // 2, 60) + 1, 2)
                        if cells % c == 0), default=cells)
    coarse = Grid(grid.x_max, coarse_cells + 1)
    table = np.sin(3.0 * coarse.nodes) * (coarse.nodes < 1.5)
    tabulated = sample_potential(PotentialSpec.tabulated(table, coarse), grid)
    background = combined(barrier, gauss, 0.6)
    return {"barrier": barrier, "gaussian": gauss, "tabulated": tabulated,
            "background": background}


@pytest.mark.parametrize("n", (3, 5, 401, 4003, 16003))
def test_blocked_scan_matches_the_rk4_loop_at_every_node(n):
    # 4003 points: 4002 cells in 251 blocks of 16, the last one partial, whose
    # tops are scanned by the scalar loop.  16003 points: 16002 cells in 1001
    # blocks, then 63 blocks one level up, both with a partial last block
    grid = Grid(2.0, n)
    for name, samples in _sampled_suite(grid).items():
        for k in (0.7, 2.0):
            psi, dpsi = integrate_wave_inward(k, grid, samples)
            loop_psi, loop_dpsi = rk4_wave_loop(k, grid, samples)
            assert psi.shape == dpsi.shape == (n,)
            assert np.all(np.abs(psi - loop_psi) <= 1e-13 * np.abs(loop_psi)), name
            assert np.all(np.abs(dpsi - loop_dpsi) <= 1e-13 * np.abs(loop_dpsi)), name
            assert psi[-1] == cmath.exp(-1j * k * grid.x_max)
            assert (wronskian_residual(k, psi, dpsi)
                    <= 10.0 * wronskian_residual(k, loop_psi, loop_dpsi)), name


def test_a_potential_nonzero_only_at_the_origin_leaves_the_wave_free():
    # support_hi is 0.0 for both, yet U(0) is 1.8e-12 and 5e-13: a value at
    # the single point x = 0 does not change the wave.  The solve gives the
    # V = 0 solve's delta0 (RK4's own error on the free wave), and the
    # hierarchy, whose only nonzero weight sits where r(0) = 0, gives zeros.
    grid = Grid(2.0, 2001)
    free = solve_reference(PotentialSpec.zero(), 1.0, grid)
    for u in (PotentialSpec.gaussian_sum([(0.0, 0.2, 9e-13)] * 2),
              PotentialSpec.tabulated(np.r_[5e-13, np.zeros(2000)], grid)):
        assert u.support_hi == 0.0
        assert u.values_at(np.array([0.0]))[0] != 0.0
        assert abs(solve_reference(u, 1.0, grid).delta0 - free.delta0) <= 1e-15
        for ref in (analytic_free_reference(1.0, grid), free):
            assert compute_hierarchy(ref, u, 4).values_at_zero == (0j,) * 4


# The arrays of a scan are kept per thread from one solve to the next
# (refwave._workspace), for scans of at most refwave._SCAN_SLOTS cell slots.
_CONVERGE_GRID = Grid(2.0, 16001)


def _in_new_thread(fn):
    """fn(), run in a new thread, whose kept workspace starts empty."""
    out = []

    def run():
        try:
            out.append(("ok", fn()))
        except BaseException as error:  # re-raised in the calling thread
            out.append(("raised", error))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    [(how, value)] = out
    if how == "raised":
        raise value
    return value


def _kept_buffers():
    """{key: (address, size)} of the calling thread's kept buffers."""
    work = getattr(refwave._kept, "workspace", None)
    return {} if work is None else {
        key: (buffer.ctypes.data, buffer.size) for key, buffer in work._buffers.items()}


def test_a_warm_sweep_reuses_the_kept_arrays():
    # four couplings on 16001 points, U over the whole grid: 64000 cell
    # slots, which no two couplings share
    v, u = _ZERO, PotentialSpec.piecewise_constant([(0.0, 2.0, 1.0)])
    couplings = [0.1, 0.05, -0.1, 0.2]

    def sweep_twice():
        first = solve_sweep(1.0, _CONVERGE_GRID, v, u, couplings, 1e-8)
        kept = _kept_buffers()
        tracemalloc.start()
        try:
            second = solve_sweep(1.0, _CONVERGE_GRID, v, u, couplings, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return first, second, kept, _kept_buffers(), peak

    first, second, kept, again, peak = _in_new_thread(sweep_twice)
    assert repr(second) == repr(first)
    assert {"V", "U", "samples", ("steps", 0), ("nodes", 0), ("steps", 1)} <= kept.keys()
    assert again == kept  # the same buffers, none grown
    # the warm sweep allocates no scan array anew, only temporaries over one
    # coupling's nodes at a time: less than a double per cell slot
    assert peak < 8 * 64000


def test_a_scan_over_scan_slots_keeps_nothing(monkeypatch):
    grid = Grid(2.0, 2001)  # 2000 cells
    samples = sample_potential(_BARRIER, grid)
    alone = integrate_wave_inward(1.0, grid, samples)
    swept = solve_sweep(1.0, grid, _BARRIER, _BARRIER, [0.1, 0.05], 1e-8)
    monkeypatch.setattr(refwave, "_SCAN_SLOTS", 1999)

    def solves():
        wave = integrate_wave_inward(1.0, grid, samples)
        sweep = solve_sweep(1.0, grid, _BARRIER, _BARRIER, [0.1, 0.05], 1e-8)
        large = _kept_buffers()
        integrate_wave_inward(1.0, Grid(2.0, 401), samples=sample_potential(
            _BARRIER, Grid(2.0, 401)))
        return wave, sweep, large, _kept_buffers()

    wave, sweep, large, small = _in_new_thread(solves)
    assert large == {}
    assert small  # a scan of at most _SCAN_SLOTS slots keeps its arrays
    assert repr(sweep) == repr(swept)
    for got, want in zip(wave, alone):
        assert got.tobytes() == want.tobytes()


def test_the_oracle_keeps_samples_on_grids_of_at_most_scan_slots_cells(monkeypatch):
    grid = Grid(2.0, 2001)  # 2000 cells
    swept = sweep_exact(_ZERO, _BARRIER, [0.1, 0.05], 1.0, grid)
    for slots, kept in ((2000, True), (1999, False)):
        monkeypatch.setattr(refwave, "_SCAN_SLOTS", slots)

        def sweep():
            return sweep_exact(_ZERO, _BARRIER, [0.1, 0.05], 1.0, grid), _kept_buffers()

        again, buffers = _in_new_thread(sweep)
        assert again == swept
        assert ({"V", "U"} <= buffers.keys()) is kept, slots


def test_reference_waves_hold_read_only_arrays_of_their_own():
    # solve_reference's psi comes from the thread's kept workspace: the
    # wave keeps a copy, which later solves on the thread leave alone
    grid = Grid(2.0, 4001)
    other = PotentialSpec.gaussian_sum([(2.0, 0.7, 0.2)])
    for make in (lambda: solve_reference(_BARRIER, 1.0, grid),
                 lambda: analytic_free_reference(1.0, grid)):
        ref = make()
        arrays = (ref.psi, ref.density, ref.ratio_shift)
        before = [a.tobytes() for a in arrays]
        solve_reference(other, 0.9, grid)
        solve_sweep(1.1, grid, other, _BARRIER, [0.2, -0.1], 1e-8)
        kept = refwave._kept.workspace._buffers.values()
        for a, was in zip(arrays, before):
            assert a.dtype == complex and a.shape == (grid.n_points,)
            assert not a.flags.writeable
            assert a.tobytes() == was
            assert not any(np.shares_memory(a, buffer) for buffer in kept)
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_a_reference_wave_refuses_a_wrong_length_or_a_non_finite_value():
    grid = Grid(2.0, 5)
    good = {"psi": np.ones(5), "density": np.ones(5), "ratio_shift": np.zeros(5)}
    for name in good:
        for bad, error in ((np.ones(4), GridMismatch), (np.ones((1, 5)), GridMismatch),
                           (np.array([1.0, 1.0, np.nan, 1.0, 1.0]), NonFiniteResult),
                           (np.array([1.0, np.inf, 1.0, 1.0, 1.0]), NonFiniteResult)):
            with pytest.raises(error):
                refwave.ReferenceWave(k=1.0, grid=grid, delta0=0.0,
                                      wronskian_residual=0.0,
                                      **{**good, name: bad})
    given = np.ones(5)
    ref = refwave.ReferenceWave(k=1.0, grid=grid, delta0=0.0,
                                wronskian_residual=0.0, **{**good, "psi": given})
    given[0] = 2.0  # the wave holds a copy, as complex
    assert ref.psi.dtype == complex and ref.psi.tolist() == [1.0] * 5


def test_integrate_wave_inward_returns_arrays_it_owns():
    grid = Grid(2.0, 4001)
    psi, dpsi = integrate_wave_inward(1.0, grid, sample_potential(_BARRIER, grid))
    before = psi.tobytes(), dpsi.tobytes()
    other = PotentialSpec.gaussian_sum([(2.0, 0.7, 0.2)])
    again, _ = integrate_wave_inward(1.3, grid, sample_potential(other, grid))
    solve_reference(other, 0.9, grid)
    solve_sweep(1.1, grid, other, _BARRIER, [0.2, -0.1], 1e-8)
    assert (psi.tobytes(), dpsi.tobytes()) == before
    assert not np.shares_memory(psi, again)


def test_samples_of_the_wrong_shape_are_refused():
    # integrate_wave_inward is the one entry that takes samples from a caller
    g = Grid(2.0, 5)
    right = np.zeros((3, 4))
    for wrong in (np.zeros((3, 5)), np.zeros((3, 3)), np.zeros((2, 4)),
                  np.zeros((4, 4)), np.zeros(12), np.zeros((1, 3, 4))):
        with pytest.raises(GridMismatch):
            integrate_wave_inward(1.0, g, wrong)
    psi, dpsi = integrate_wave_inward(1.0, g, right)
    assert psi.shape == dpsi.shape == (5,)


def test_samples_from_another_grid_are_refused():
    grid = Grid(2.0, 101)
    for n in (201, 51):
        samples = sample_potential(_BARRIER, Grid(2.0, n))
        with pytest.raises(GridMismatch, match=rf"\(3, {n - 1}\)"):
            integrate_wave_inward(1.0, grid, samples)


def test_threads_sweep_with_their_own_arrays():
    # each thread's scans write its own kept arrays: two different sweeps,
    # run at once, give the bits of each run alone
    sweeps = {
        "converge": (1.0, _CONVERGE_GRID, PotentialSpec.zero(), _BARRIER,
                     [0.1, 0.05]),
        "sweep": (1.3, Grid(2.0, 4001), PotentialSpec.gaussian_sum([(0.5, 1.2, 0.3)]),
                  PotentialSpec.piecewise_constant([(0.0, 0.75, 2.0)]),
                  [0.3, 0.15, 0.075, 0.0375]),
    }

    def run(name):
        # the samples of the certified solves are kept per thread too
        k, grid, V, U, couplings = sweeps[name]
        return (repr(solve_sweep(k, grid, V, U, couplings, 1e-8)),
                repr(sweep_exact(V, U, couplings, k, grid)),
                solve_reference(V, k, grid).psi.tobytes())

    alone = {name: run(name) for name in sweeps}
    start = threading.Barrier(len(sweeps))
    runs = {name: [] for name in sweeps}

    def repeat(name):
        start.wait()
        for _ in range(20):
            runs[name].append(run(name))

    threads = [threading.Thread(target=repeat, args=(name,)) for name in sweeps]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name in sweeps:
        assert runs[name] == [alone[name]] * 20, name


def test_a_narrow_sweep_sizes_its_arrays_for_the_widest_one():
    # a sweep whose U covers the bottom 17 cells shares the cells above
    # them; its kept scan arrays are sized for the sweep of as many
    # couplings that shares none (refwave._Workspace.room), which then
    # takes the same buffers
    couplings = [0.1, 0.05, -0.1, 0.2]
    narrow = PotentialSpec.piecewise_constant([(0.0, 17 * 2.0 / 16000, 1.0)])
    wide = PotentialSpec.piecewise_constant([(0.0, 2.0, 1.0)])

    def narrow_then_wide():
        solve_sweep(1.0, _CONVERGE_GRID, _ZERO, narrow, couplings, 1e-8)
        kept = _kept_buffers()
        solve_sweep(1.0, _CONVERGE_GRID, _ZERO, wide, couplings, 1e-8)
        return kept, _kept_buffers()

    kept, again = _in_new_thread(narrow_then_wide)
    for key in ("samples", ("steps", 0), ("nodes", 0)):
        assert again[key] == kept[key], key


def test_a_warm_sweep_exact_keeps_its_samples():
    # V and U are sampled into the thread's kept arrays: the warm sweep
    # allocates less than a double per cell slot (24512 here), where fresh
    # samples would take six doubles per cell.  What it allocates is the
    # certificate's two temporaries over a chain's nodes
    U = PotentialSpec.piecewise_constant([(0.0, 1.0625, 1.0)])

    def sweep_twice():
        first = sweep_exact(_ZERO, U, [0.1, 0.05], 1.0, _CONVERGE_GRID)
        kept = _kept_buffers()
        tracemalloc.start()
        try:
            second = sweep_exact(_ZERO, U, [0.1, 0.05], 1.0, _CONVERGE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return first, second, kept, _kept_buffers(), peak

    first, second, kept, again, peak = _in_new_thread(sweep_twice)
    assert second == first
    assert {"V", "U", "samples", ("steps", 0)} <= kept.keys()
    assert again == kept
    assert peak < 8 * 24512



def test_a_warm_reference_solve_reuses_its_kept_samples(monkeypatch):
    # V enters the solve as a spec, sampled into the thread's kept buffer,
    # never through sample_potential: the warm solve samples into the same
    # memory, with the bits of a solve of V's samples
    V = PotentialSpec.gaussian_sum([(0.8, 0.3, 0.4), (1.4, 0.2, -0.3)])
    grid = Grid(2.0, 8001)
    psi, _ = integrate_wave_inward(1.0, grid, sample_potential(V, grid))
    calls = []

    def recorded(*args):
        calls.append(args)
        return sample_potential(*args)

    for module in (potential, refwave):
        monkeypatch.setattr(module, "sample_potential", recorded, raising=False)

    def solve_twice():
        first = solve_reference(V, 1.0, grid)
        kept = _kept_buffers()
        return first, kept, solve_reference(V, 1.0, grid), _kept_buffers()

    first, kept, second, again = _in_new_thread(solve_twice)
    assert calls == []
    assert again["V"] == kept["V"]  # the same data pointer and size
    assert first.psi.tobytes() == second.psi.tobytes() == psi.tobytes()

# Each distinct level-0 block is built once (refwave._block_steps): every
# solve keeps the bits of the scan that builds every block
# (tests/_oracles.py::full_block_scan), on every node slot of every chain
def _scans_checked_against_full_blocks(monkeypatch):
    """Make refwave._solve check each call against full_block_scan; returns
    the list of the layouts it solved."""
    layouts = []
    solve = refwave._solve

    def checked(k, h, top, layout, lower, mid, upper):
        want = full_block_scan(k, h, top, layout, lower, mid, upper)
        got = solve(k, h, top, layout, lower, mid, upper)
        for chain in range(layout.chains):
            for nodes in layout.nodes(chain):
                assert got[:, nodes].tobytes() == want[:, nodes].tobytes(), layout
        layouts.append(layout)
        return got

    monkeypatch.setattr(refwave, "_solve", checked)
    return layouts


_BLOCK_RUN_SWEEPS = {
    # chains 0 and 1 are one run of blocks across their boundary
    "run across chains": (Grid(2.0, 4001), _ZERO,
                          PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]),
                          [0.3, 0.3, -0.2]),
    "adjacent segments, jumps on nodes": (
        Grid(2.0, 4001),
        PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0), (0.5, 1.25, -0.5),
                                          (1.25, 1.5, 0.25)]),
        PotentialSpec.piecewise_constant([(0.25, 0.75, 1.0), (0.75, 1.0, 2.0)]),
        [0.2, -0.1]),
    "partial last block": (Grid(2.0, 4003), _ZERO,
                           PotentialSpec.piecewise_constant([(0.0, 0.7, 1.0)]),
                           [0.2, 0.1, 0.05]),
    "chains padded up to own": (Grid(2.0, 1027), _ZERO,
                                PotentialSpec.piecewise_constant([(0.0, 2.0, 1.0)]),
                                [0.2, 0.2, 0.1]),
    "padded, U from mid grid": (Grid(2.0, 1027),
                                PotentialSpec.piecewise_constant([(0.0, 0.5, 0.3)]),
                                PotentialSpec.piecewise_constant([(1.0, 2.5, 1.0)]),
                                [0.1, -0.1]),
    # zero chains: a padded block repeats the block below it and the next
    # chain's first block repeats it, were padding not a run of its own
    "padded chains of zero coupling": (
        Grid(2.0, 1027), _ZERO, PotentialSpec.piecewise_constant([(0.0, 2.0, 1.0)]),
        [0.0, 0.0, 0.2, 0.0]),
    # segments inside cells 40 and 41, read by those cells' mid sample only
    "mid samples alone differ": (Grid(2.0, 1001), PotentialSpec.piecewise_constant(
        [(40.4 * 0.002, 40.6 * 0.002, 1.0), (41.3 * 0.002, 41.7 * 0.002, -1.0)]),
        PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)]), [0.1, -0.1]),
    "zero U": (Grid(2.0, 4001), PotentialSpec.piecewise_constant([(0.0, 1.0, 0.5)]),
               _ZERO, [0.1, -0.2]),
    "gaussians, no repeat": (Grid(2.0, 4003),
                             PotentialSpec.gaussian_sum([(1.0, 0.6, 0.4)]),
                             PotentialSpec.gaussian_sum([(0.8, 0.5, 0.5)]),
                             [0.2, -0.3]),
    "non-finite couplings": (Grid(2.0, 1027), _ZERO,
                             PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)]),
                             [0.1, math.inf, -math.inf, math.nan, 1e308]),
}


@pytest.mark.parametrize("slots", (1, 64, 1024, refwave._SCAN_SLOTS))
@pytest.mark.parametrize("case", sorted(_BLOCK_RUN_SWEEPS))
def test_each_distinct_block_is_built_once_with_the_bits_of_every_block(
        case, slots, monkeypatch):
    grid, V, U, couplings = _BLOCK_RUN_SWEEPS[case]
    k = 1.3
    finite = [c for c in couplings if abs(c) < 1e300]
    reference = full_solves(V, U, finite, k, grid)  # before the patches
    monkeypatch.setattr(refwave, "_SCAN_SLOTS", slots)
    layouts = _scans_checked_against_full_blocks(monkeypatch)
    swept = sweep_exact(V, U, finite, k, grid, tol_wronskian=1e6)
    assert [r.psi_at_zero for r in swept] == [psi0 for psi0, _, _ in reference]
    v, u = sample_potential(V, grid), sample_potential(U, grid)
    if finite != couplings:
        # the certificate refuses the non-finite waves in the words of the
        # full solves, after checking their bits
        with pytest.raises(WronskianViolation) as raised:
            sweep_exact(V, U, couplings, k, grid)
        assert str(raised.value) == ("residual nan is not within 1.0e-08 * k = "
                                     "1.300e-08; refine the grid or check the "
                                     "potential")
        for c in couplings:
            with np.errstate(over="ignore", invalid="ignore"):
                integrate_wave_inward(k, grid, combined(v, u, c))
    assert layouts
    if slots == refwave._SCAN_SLOTS:
        for c in finite:
            samples = combined(v, u, c)
            psi, dpsi = integrate_wave_inward(k, grid, samples)
            loop_psi, loop_dpsi = rk4_wave_loop(k, grid, samples)
            assert np.all(np.abs(psi - loop_psi) <= 1e-13 * np.abs(loop_psi)), c
            assert np.all(np.abs(dpsi - loop_dpsi) <= 1e-13 * np.abs(loop_dpsi)), c


def test_chains_that_share_no_cell_run_on_across_their_boundary(monkeypatch):
    # U fills the grid's 250 whole blocks, so the chains are neither padded
    # nor share a cell; the two equal couplings are one run of blocks, as
    # each chain is, and only the last coupling's first block starts another
    built = []
    cell_steps = refwave._cell_steps

    def counted(k, h, lower, mid, upper, steps, work):
        built.append(steps.shape[-1])
        return cell_steps(k, h, lower, mid, upper, steps, work)

    grid, U = Grid(2.0, 4001), PotentialSpec.piecewise_constant([(0.0, 2.0, 1.0)])
    couplings = [0.1, 0.1, 0.2]
    reference = full_solves(_ZERO, U, couplings, 1.0, grid)
    monkeypatch.setattr(refwave, "_cell_steps", counted)
    swept = solve_sweep(1.0, grid, _ZERO, U, couplings, 1e-8)
    assert built == [2]
    assert [psi0 for psi0, _ in swept] == [psi0 for psi0, _, _ in reference]
    assert refwave.ChainLayout.above(3, 4000, 4000).own == 4000


def test_single_waves_keep_the_bits_of_every_block(monkeypatch):
    _scans_checked_against_full_blocks(monkeypatch)
    for n in (3, 17, 33, 35, 4001, 4003):
        grid = Grid(2.0, n)
        for samples in _sampled_suite(grid).values():
            integrate_wave_inward(0.7, grid, samples)
        solve_reference(PotentialSpec.piecewise_constant(
            [(0.0, 0.5, -1.0), (0.5, 1.0, 1.0)]), 1.1, grid, tol_wronskian=1e6)


def test_a_chain_of_64_blocks_is_carried_down_by_the_scalar_loop(monkeypatch):
    # refwave._LEAF_CELLS: 1024 cells are 64 blocks, at most 64, so their
    # tops come from the leaf loop, not from one more scan level of 4 blocks
    leaves = []
    leaf = refwave._leaf_states

    def recorded(tops, *rest):
        leaves.append(tops.shape[-1])
        return leaf(tops, *rest)

    monkeypatch.setattr(refwave, "_leaf_states", recorded)
    for n in (1025, 1041):  # 64 blocks; 66 blocks, then 5 one level up
        integrate_wave_inward(1.0, Grid(2.0, n), sample_potential(_BARRIER, Grid(2.0, n)))
    assert leaves == [64, 5]


def test_a_converge_sweep_steps_each_distinct_block_once(monkeypatch):
    # a converge job's oracle: two couplings of a barrier on 16001 points lay
    # out 1532 level-0 blocks, of which five are distinct (each chain's
    # barrier blocks, each chain's top block and the free blocks above);
    # only those are stepped
    built, layouts = [], []
    cell_steps, solve = refwave._cell_steps, refwave._solve

    def counted(k, h, lower, mid, upper, steps, work):
        built.append(steps.shape[-1])
        return cell_steps(k, h, lower, mid, upper, steps, work)

    def recorded(k, h, top, layout, *samples):
        layouts.append(-(-layout.size // refwave.SCAN_WIDTH))
        return solve(k, h, top, layout, *samples)

    monkeypatch.setattr(refwave, "_cell_steps", counted)
    monkeypatch.setattr(refwave, "_solve", recorded)
    U = PotentialSpec.piecewise_constant([(0.0, 1.0625, 1.3)])
    sweep_exact(_ZERO, U, [0.08, 0.04], 1.1, _CONVERGE_GRID)
    assert layouts == [1532]
    assert sum(built) <= 16


@pytest.mark.parametrize("blocks", (1, 5, 64, 1001))
def test_node_states_are_those_of_the_complex_cast(blocks):
    # the cast-free kernel against the formula it replaced, on finite steps
    # and block-top states with exact zeros (of both signs in the steps).
    # A -0.0 in a block-top state could flip the sign of a zero node part;
    # the scan starts from the free wave's state and never forms one
    rng = np.random.default_rng(blocks)
    width = refwave.SCAN_WIDTH
    steps = rng.normal(size=(width, 2, 2, blocks)) * 10.0 ** rng.integers(
        -8, 3, size=(width, 2, 2, blocks))
    zeros = rng.random(steps.shape) < 0.2
    steps[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    z = rng.normal(size=(2, blocks)) + 1j * rng.normal(size=(2, blocks))
    parts = z.view(float)
    parts[rng.random(parts.shape) < 0.3] = 0.0
    states = np.full((2, blocks * width + 1), np.nan + 0j)
    refwave._node_states(steps, z, states, refwave._Workspace())
    for row, want in enumerate(node_states_complex(steps, *z)):
        got = states[row, :-1].reshape(blocks, width).T
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("coupling", (math.inf, -math.inf, math.nan, 1e308, -1e308))
def test_a_sweep_through_a_non_finite_wave_fails_with_the_same_text(coupling):
    # the certificate refuses these waves whatever NaN their node values
    # carry: the residual is NaN, in the words of every earlier release
    grid = Grid(2.0, 401)
    text = ("residual nan is not within 1.0e-08 * k = 1.000e-08; refine the "
            "grid or check the potential")
    # a finite coupling times a U zero everywhere is zero
    for U in (_BARRIER,) + ((PotentialSpec.zero(),) if not math.isfinite(coupling) else ()):
        for couplings in ((0.1, coupling), (coupling, 0.1)):
            with pytest.raises(WronskianViolation) as raised:
                sweep_exact(PotentialSpec.zero(), U, couplings, 1.0, grid)
            assert type(raised.value) is WronskianViolation
            assert str(raised.value) == text
