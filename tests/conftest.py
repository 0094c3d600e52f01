import numpy as np
import pytest

from phaseshift import (
    Grid,
    PotentialSpec,
    analytic_free_reference,
    assemble_series,
    solve_reference,
)

# verdict lines collected by the acceptance tests; printed as a summary
# section at the end of the run so they are visible without -s
_ACCEPTANCE_LINES = []


def record_verdict(name, ok):
    _ACCEPTANCE_LINES.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(_ACCEPTANCE_LINES[-1])
    return ok


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def same_bits(got, want):
    """Equal bit for bit (float.hex of every part), except that an exact zero
    may carry either sign: the full-grid hierarchy operator's zeros are
    sums of the signed zeros of cells the windowed one skips."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return got.shape == want.shape and all(
        a.hex() == b.hex()
        for a, b in zip((got + 0.0).view(float), (want + 0.0).view(float)))


@pytest.fixture(scope="session")
def barrier():
    """Unit-height barrier on [0, 1] -- the standard test perturbation."""
    return PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)])


@pytest.fixture(scope="session")
def barrier03():
    return PotentialSpec.piecewise_constant([(0.0, 1.0, 0.3)])


@pytest.fixture(scope="session")
def fine_free_ref():
    """Free wave at k = 1 on the fine series grid shared by anchor tests."""
    return analytic_free_reference(1.0, Grid(2.0, 16001))


@pytest.fixture(scope="session")
def barrier_series(fine_free_ref, barrier):
    """Order-4 series for the barrier setup on the fine grid."""
    return assemble_series(fine_free_ref, barrier, 4)


def build_smooth_suite(grid, seed=20240817, n_cases=5):
    """Random compactly supported smooth perturbations, frozen by seed.

    Cases 0-2 sit on a zero background (exact reference wave); cases 3-4 on
    a random smooth background solved numerically.  Bump parameters keep all
    supports well inside the domain.  Returns (U, {k: reference}) pairs for
    k in {0.7, 1.3}.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for idx in range(n_cases):
        n_bumps = int(rng.integers(1, 4))
        bumps = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.35)),
                  float(rng.uniform(-1.0, 1.0))) for _ in range(n_bumps)]
        u = PotentialSpec.gaussian_sum(bumps)
        if idx < 3:
            refs = {k: analytic_free_reference(k, grid) for k in (0.7, 1.3)}
        else:
            v = PotentialSpec.gaussian_sum(
                [(float(rng.uniform(0.8, 1.8)), float(rng.uniform(0.2, 0.4)),
                  float(rng.uniform(-0.5, 0.5)))])
            refs = {k: solve_reference(v, k, grid) for k in (0.7, 1.3)}
        cases.append((u, refs))
    return cases


@pytest.fixture(scope="session")
def smooth_suite():
    return build_smooth_suite(Grid(5.0, 16001))
