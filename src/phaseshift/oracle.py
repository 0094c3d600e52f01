"""Exact solution of the perturbed problem and series validation against it.

The oracle integrates the full equation  psi'' = (2(V + coupling*U) - k^2) psi
with the same certified RK4 core the reference solver uses (a sweep solves
all its couplings in one scan, which takes the wave above U's support once,
with the bits of a full solve at each, on samples of V and U kept per
thread from one sweep to the next), then compares truncations of the
perturbation series against the exact phase along a coupling sweep.
Remainders of an order-N truncation must shrink like coupling**(N+1); the
empirical order

    p_hat = log2( R_N(2*c) / R_N(c) )

measured on a halving pair of couplings is the convergence certificate.

Comparisons attribute all discrepancy to the series pipeline by running the
oracle on a 4x finer grid (:func:`sweep_series`), so its own error is
subdominant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSweep
from .potential import Grid, PotentialSpec
from .refwave import DEFAULT_WRONSKIAN_TOL, phase_from_wave, solve_sweep
from .series import PhaseSeries, evaluate_truncated

#: oracle grids refine the series grid by this factor
ORACLE_REFINEMENT = 4


@dataclass(frozen=True)
class OracleResult:
    """Exact phase at one coupling.

    `delta_exact` is on the principal branch for a single solve.  In a
    sweep, each coupling takes the representative mod pi nearest the
    previous coupling's phase, starting from the seed (see
    :func:`sweep_exact`).  `wronskian_residual` is the solve's certified
    residual.
    """

    coupling: float
    delta_exact: float
    psi_at_zero: complex
    wronskian_residual: float


def solve_exact(V: PotentialSpec, U: PotentialSpec, coupling: float, k: float,
                grid: Grid,
                tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> OracleResult:
    """Integrate the fully perturbed problem at one coupling: a sweep of one
    coupling, unwrapped from 0, which leaves it on the principal branch.
    Raises as :func:`sweep_exact` does.
    """
    return sweep_exact(V, U, (coupling,), k, grid,
                       tol_wronskian=tol_wronskian)[0]


def sweep_exact(V: PotentialSpec, U: PotentialSpec, couplings, k: float,
                grid: Grid, seed_delta: float = 0.0,
                tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> list:
    """Solve a list of couplings and unwrap each phase against the one before.

    V and U are sampled once for the whole sweep, into arrays the calling
    thread keeps.  The wave above U's support is the same at every
    coupling, so the couplings are solved together and that wave is taken
    once (:func:`refwave.solve_sweep`).  Every
    wave is bit for bit that of a solve of its coupling alone; each coupling
    is certified over every node of its wave, and the first that fails
    raises.

    The phase is only defined mod pi; each sweep point picks the
    representative closest to the previous one, starting from `seed_delta`
    (normally the background phase, the exact coupling -> 0 limit).  That
    follows the continuous branch only while each step, the first one from
    the seed included, moves delta by less than pi/2; a larger step lands a
    multiple of pi away, so a sweep's phases can depend on its order
    (ROADMAP item 12, the strict xfail
    ``test_a_sweep_s_phases_do_not_depend_on_its_order``).

    Raises
    ------
    TypeError, TabulatedGridMismatch
        If V or U is not a spec that can be sampled on `grid`, before k is
        checked.
    NonpositiveK, NonFiniteResult
        If k <= 0, or k x_max is beyond the double range; also for no
        couplings.
    WronskianViolation
        If the integration cannot be certified (same certificate as the
        reference wave, which the perturbed wave also obeys).
    """
    couplings = list(couplings)
    results = []
    previous = seed_delta
    for c, (psi0, residual) in zip(couplings, solve_sweep(
            k, grid, V, U, couplings, tol_wronskian)):
        raw = phase_from_wave(psi0)
        previous = raw + math.pi * round((previous - raw) / math.pi)
        results.append(OracleResult(c, previous, psi0, residual))
    return results


def sweep_series(series: PhaseSeries, V: PotentialSpec, U: PotentialSpec,
                 couplings,
                 tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> list:
    """:func:`sweep_exact` on the series' grid refined ORACLE_REFINEMENT
    times, from its background phase: the one place that picks the grid
    and the seed of the exact phases a series is checked against."""
    return sweep_exact(V, U, couplings, series.k,
                       series.grid.refined(ORACLE_REFINEMENT),
                       seed_delta=series.delta0, tol_wronskian=tol_wronskian)


@dataclass(frozen=True)
class TruncationCheck:
    """Order estimate for one truncation N of the series."""

    truncation: int
    p_hat: float  # nan when the remainder ratio is not measurable
    status: str   # PASS / FAIL / INCONCLUSIVE
    remainders: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    """Order estimates of a series; ``checks[n]`` is truncation n."""

    couplings: tuple
    checks: tuple


def _noise_floor(step: float, x_max: float, coupling: float, truncation: int,
                 delta_exact: float) -> float:
    """Rough a-priori error bound for a remainder R_N(coupling).

    Three contributions: O(step^2) cumulative-quadrature error in each
    series coefficient (summed with their coupling powers), O(step^4) wave
    integration on both grids, and floating-point noise on the comparison.
    Constants are order-one by calibration; the model only needs to be
    right to a factor of a few, since it gates a 10x margin.  A power of a
    coupling (they are positive) that overflows makes the floor inf.
    """
    try:
        quad = step * step * sum(coupling ** n
                                 for n in range(1, truncation + 1))
    except OverflowError:
        quad = math.inf
    rk4 = 2.0 * step ** 4 * x_max
    rounding = 50.0 * np.finfo(float).eps * max(1.0, abs(delta_exact))
    return quad + rk4 + rounding


def halving_ladder(couplings) -> tuple:
    """`couplings` as floats: at least two, positive, each half the one
    before.  Raises :class:`DegenerateSweep` for anything else."""
    couplings = tuple(float(c) for c in couplings)
    if len(couplings) < 2:
        raise DegenerateSweep("need at least two couplings")
    for big, small in zip(couplings, couplings[1:]):
        if not small > 0.0 or not big > small:
            raise DegenerateSweep("couplings must be positive and decreasing")
        if abs(big / small - 2.0) > 1e-9:
            raise DegenerateSweep("couplings must halve between sweep points")
    return couplings


def convergence_order_check(series: PhaseSeries, V: PotentialSpec,
                            U: PotentialSpec, couplings,
                            tol_wronskian: float = DEFAULT_WRONSKIAN_TOL
                            ) -> ConvergenceReport:
    """Measure empirical remainder orders of every truncation of `series`.

    Parameters
    ----------
    series : PhaseSeries
        Assembled series (carries its grid and background phase).
    V, U : PotentialSpec
        The potentials the series was built from.
    couplings : sequence of float
        A :func:`halving_ladder` with |couplings[0] * delta_1| < 0.1.

    Returns
    -------
    ConvergenceReport
        One :class:`TruncationCheck` per truncation 0 .. max_order.  The
        order estimate uses the smallest coupling pair.  A truncation whose
        remainder sits below 10x the quadrature noise floor is reported
        INCONCLUSIVE — there is nothing left to measure; otherwise the
        status is PASS when p_hat lies in [N + 0.5, N + 1.5].  When every
        truncation is INCONCLUSIVE the check is vacuous (a zero
        perturbation, say) but not wrong, so that report is returned too.

    Raises
    ------
    DegenerateSweep
        If `couplings` is not a halving ladder, or its largest coupling is
        outside the perturbative window.
    """
    couplings = halving_ladder(couplings)
    if series.max_order >= 1 and abs(couplings[0] * series.corrections[0]) >= 0.1:
        raise DegenerateSweep(
            "largest coupling is outside the perturbative window"
        )

    exact = sweep_series(series, V, U, couplings, tol_wronskian)

    idx_small, idx_big = len(couplings) - 1, len(couplings) - 2
    step = series.grid.step
    x_max = series.grid.x_max

    checks = []
    for trunc in range(series.max_order + 1):
        remainders = tuple(
            res.delta_exact - evaluate_truncated(series, res.coupling, trunc)
            for res in exact
        )
        r_small = remainders[idx_small]
        r_big = remainders[idx_big]
        measurable = all(
            abs(remainders[i]) >= 10.0 * _noise_floor(
                step, x_max, couplings[i], trunc, exact[i].delta_exact)
            for i in (idx_small, idx_big)
        )
        if r_small == 0.0 or r_big == 0.0:
            p_hat, status = float("nan"), "INCONCLUSIVE"
        else:
            p_hat = math.log2(abs(r_big) / abs(r_small))
            if not measurable:
                status = "INCONCLUSIVE"
            else:
                in_band = trunc + 0.5 <= p_hat <= trunc + 1.5
                status = "PASS" if in_band else "FAIL"
        checks.append(TruncationCheck(trunc, p_hat, status, remainders))

    return ConvergenceReport(couplings=couplings, checks=tuple(checks))
