"""Exact solution of the perturbed problem and series validation against it.

The oracle integrates the full equation  psi'' = (2(V + coupling*U) - k^2) psi
with the same certified RK4 core the reference solver uses, then compares
truncations of the perturbation series against the exact phase along a
coupling sweep.  Remainders of an order-N truncation must shrink like
coupling**(N+1); the empirical order

    p_hat = log2( R_N(2*c) / R_N(c) )

measured on a halving pair of couplings is the convergence certificate.

Comparisons attribute all discrepancy to the series pipeline by running the
oracle on a 4x finer grid, so its own error is subdominant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSweep
from .potential import (
    Grid,
    PotentialSamples,
    PotentialSpec,
    combine_samples,
    sample_potential,
)
from .refwave import DEFAULT_WRONSKIAN_TOL, certified_wave, phase_from_wave
from .series import PhaseSeries, evaluate_truncated

#: oracle grids refine the series grid by this factor
ORACLE_REFINEMENT = 4


@dataclass(frozen=True)
class OracleResult:
    """Exact phase at one coupling.

    `delta_exact` is on the principal branch for a single solve; sweep
    results are unwrapped to the continuous branch seeded by the background
    phase.
    """

    coupling: float
    delta_exact: float
    psi_at_zero: complex


def _solve_sampled(v: PotentialSamples, u: PotentialSamples, coupling: float,
                   k: float, grid: Grid, tol_wronskian: float) -> OracleResult:
    """One certified solve of V + coupling*U from samples already taken."""
    psi, _, _ = certified_wave(k, grid, combine_samples(v, u, coupling),
                               tol_wronskian)
    return OracleResult(
        coupling=coupling,
        delta_exact=phase_from_wave(complex(psi[0])),
        psi_at_zero=complex(psi[0]),
    )


def solve_exact(V: PotentialSpec, U: PotentialSpec, coupling: float, k: float,
                grid: Grid,
                tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> OracleResult:
    """Integrate the fully perturbed problem at one coupling.

    Raises
    ------
    NonpositiveK
        If k <= 0.
    WronskianViolation
        If the integration cannot be certified (same certificate as the
        reference wave, which the perturbed wave also obeys).
    """
    return _solve_sampled(sample_potential(V, grid), sample_potential(U, grid),
                          coupling, k, grid, tol_wronskian)


def sweep_exact(V: PotentialSpec, U: PotentialSpec, couplings, k: float,
                grid: Grid, seed_delta: float = 0.0,
                tol_wronskian: float = DEFAULT_WRONSKIAN_TOL) -> list:
    """Solve a list of couplings and unwrap phases to a continuous branch.

    V and U are sampled once for the whole sweep; each coupling is then one
    certified solve, the same as :func:`solve_exact` at that coupling.

    The phase is only defined mod pi; each sweep point picks the
    representative closest to the previous one, starting from `seed_delta`
    (normally the background phase, the exact coupling -> 0 limit).
    """
    v, u = sample_potential(V, grid), sample_potential(U, grid)
    results = []
    previous = seed_delta
    for c in couplings:
        raw = _solve_sampled(v, u, c, k, grid, tol_wronskian)
        shifted = raw.delta_exact + math.pi * round(
            (previous - raw.delta_exact) / math.pi)
        results.append(OracleResult(c, shifted, raw.psi_at_zero))
        previous = shifted
    return results


@dataclass(frozen=True)
class TruncationCheck:
    """Order estimate for one truncation N of the series."""

    truncation: int
    p_hat: float  # nan when the remainder ratio is not measurable
    status: str   # PASS / FAIL / INCONCLUSIVE
    remainders: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    couplings: tuple
    exact: tuple
    checks: tuple

    def by_truncation(self, n: int) -> TruncationCheck:
        return self.checks[n]


def _noise_floor(step: float, x_max: float, coupling: float, truncation: int,
                 delta_exact: float) -> float:
    """Rough a-priori error bound for a remainder R_N(coupling).

    Three contributions: O(step^2) cumulative-quadrature error in each
    series coefficient (summed with their coupling powers), O(step^4) wave
    integration on both grids, and floating-point noise on the comparison.
    Constants are order-one by calibration; the model only needs to be
    right to a factor of a few, since it gates a 10x margin.
    """
    quad = step * step * sum(coupling ** n for n in range(1, truncation + 1))
    rk4 = 2.0 * step ** 4 * x_max
    rounding = 50.0 * np.finfo(float).eps * max(1.0, abs(delta_exact))
    return quad + rk4 + rounding


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
        Strictly decreasing geometric sweep with ratio 2, small enough that
        |coupling * delta_1| < 0.1.

    Returns
    -------
    ConvergenceReport
        One :class:`TruncationCheck` per truncation 0 .. max_order.  The
        order estimate uses the smallest coupling pair.  A truncation whose
        remainder sits below 10x the quadrature noise floor is reported
        INCONCLUSIVE — there is nothing left to measure; otherwise the
        status is PASS when p_hat lies in [N + 0.5, N + 1.5].

    Raises
    ------
    DegenerateSweep
        If the sweep structure is invalid, or every truncation is below the
        noise floor (the whole check is vacuous, e.g. a zero perturbation).
    """
    couplings = tuple(float(c) for c in couplings)
    if len(couplings) < 2:
        raise DegenerateSweep("need at least two couplings")
    for big, small in zip(couplings, couplings[1:]):
        if not small > 0.0 or not big > small:
            raise DegenerateSweep("couplings must be positive and decreasing")
        if abs(big / small - 2.0) > 1e-9:
            raise DegenerateSweep("couplings must halve between sweep points")
    if series.max_order >= 1 and abs(couplings[0] * series.corrections[0]) >= 0.1:
        raise DegenerateSweep(
            "largest coupling is outside the perturbative window"
        )

    fine = series.grid.refined(ORACLE_REFINEMENT)
    exact = sweep_exact(V, U, couplings, series.k, fine,
                        seed_delta=series.delta0, tol_wronskian=tol_wronskian)

    small, big = couplings[-1], couplings[-2]
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

    report = ConvergenceReport(couplings=couplings,
                               exact=tuple(r.delta_exact for r in exact),
                               checks=tuple(checks))
    if all(c.status == "INCONCLUSIVE" for c in checks):
        raise DegenerateSweep(
            "every truncation sits below the noise floor; nothing to measure",
            vacuous=True, report=report,
        )
    return report
