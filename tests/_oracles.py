"""Independent numerical oracles the tests compare the package against.

Each helper here is either a closed form or a deliberately different
discretization of the same quantity, so agreement with the package is
evidence and not a tautology.  Frozen decimal constants were produced
offline with arbitrary-precision tooling and are committed as literals;
nothing in this file calls back into the package's numerical pipeline.
"""

import cmath
import math

import numpy as np

# Taylor coefficients (orders 1..6) of the exact phase of a unit-height
# barrier on [0, 1] at k = 1, expanded around zero coupling.  Computed
# symbolically offline from the closed form
#     delta(c) = -1 + atan(tan(kappa)/kappa),   kappa = sqrt(1 - 2c),
# and frozen to 20 digits.
BARRIER_TAYLOR = (
    -0.54535128658715915230,
    +0.27619523804649220327,
    -0.090787406059048405501,
    -0.0058153039563254921712,
    +0.034786003539517757365,
    -0.027704197691969010807,
)

# Adaptive-quadrature value of the ordered two-factor integral whose factors
# are U*rho*q^2 (inner variable) and U*rho (outer variable) for the free
# wave at k = 1 and a unit barrier on [0, 1].
TWO_FACTOR_BARRIER = 0.0054814440558409875 + 0.2761952380464922j


def transfer_matrix_wave(segments, k, x_max):
    """(psi, psi') at x = 0 for a piecewise-constant potential, closed form.

    Starts from exp(-ikx) at x_max and crosses each constant region exactly:
    with kappa = sqrt(k^2 - 2V) the local wavenumber and d the region width,

        psi(lo)  = psi(hi) cos(kappa d) - psi'(hi) sin(kappa d)/kappa
        psi'(lo) = psi(hi) kappa sin(kappa d) + psi'(hi) cos(kappa d).

    No grid, no stepping error -- only rounding.
    """
    edges = sorted({0.0, float(x_max), *(float(s[0]) for s in segments),
                    *(float(s[1]) for s in segments)})

    def value_in(lo, hi):
        mid = 0.5 * (lo + hi)
        for a, b, v in segments:
            if a <= mid < b:
                return v
        return 0.0

    psi = cmath.exp(-1j * k * x_max)
    dpsi = -1j * k * psi
    for lo, hi in zip(edges[-2::-1], edges[::-1]):
        d = hi - lo
        kappa = cmath.sqrt(complex(k * k - 2.0 * value_in(lo, hi)))
        c, s = cmath.cos(kappa * d), cmath.sin(kappa * d)
        psi, dpsi = psi * c - dpsi * s / kappa, psi * kappa * s + dpsi * c
    return psi, dpsi


def principal_phase(psi0):
    """Phase shift on the (-pi/2, pi/2] branch from the wave value at 0."""
    d = -0.5 * cmath.phase(psi0.conjugate() / psi0)
    while d <= -0.5 * math.pi:
        d += math.pi
    while d > 0.5 * math.pi:
        d -= math.pi
    return d


def transfer_matrix_phase(segments, k, x_max):
    psi, _ = transfer_matrix_wave(segments, k, x_max)
    return principal_phase(psi)


def brute_force_two_factor(n_cells=400, k=1.0):
    """Midpoint 2-D Riemann sum of the ordered integral over 0 < x1 < x2 < 1.

    Same integrand as TWO_FACTOR_BARRIER.  Cells are aligned with the unit
    square, so the barrier edge never cuts through a cell; strictly-upper
    cells count in full and diagonal cells contribute the half that lies
    above x2 = x1.  Midpoint sampling keeps the rule O(1/n^2); sampling at
    cell corners would straddle the jump and lose an order.
    """
    h = 1.0 / n_cells
    mids = (np.arange(n_cells) + 0.5) * h
    rho = np.exp(-2j * k * mids)
    q = np.exp(2j * k * mids) - 1.0
    f1 = rho * q * q          # U = 1 everywhere on the square
    f2 = rho
    weights = np.triu(np.ones((n_cells, n_cells)), 1) + 0.5 * np.eye(n_cells)
    return h * h * np.sum(f1[:, None] * f2[None, :] * weights)


# The per-cell RK4 loop the package's blocked-scan propagator replaced, kept
# verbatim as its reference: same stages and potential channels, one cell at
# a time in Python complex arithmetic.
def rk4_wave_loop(k, grid, samples):
    """Fixed-step RK4 integration of the wave from x_max down to 0.

    One RK4 step per grid cell.  The potential enters each stage through the
    value valid *inside* the cell being crossed: the left limit at the upper
    node, the midpoint value at the half step, the right limit at the lower
    node.  That choice keeps the integrator at full fourth order when the
    potential jumps exactly at grid nodes.

    Returns the (psi, psi') node arrays.
    """
    n = grid.n_points
    h = grid.step
    x_last = grid.nodes[-1]

    # coefficient c(x) = 2 V(x) - k^2 in psi'' = c psi, one channel per side
    ksq = k * k
    c_hi = (2.0 * samples.at_nodes_left - ksq).tolist()  # upper cell edge
    c_mid = (2.0 * samples.at_midpoints - ksq).tolist()  # cell center
    c_lo = (2.0 * samples.at_nodes - ksq).tolist()       # lower cell edge

    psi = [0j] * n
    dpsi = [0j] * n
    psi[-1] = cmath.exp(-1j * k * x_last)
    dpsi[-1] = -1j * k * psi[-1]

    y0, y1 = psi[-1], dpsi[-1]
    s = -h  # stepping toward smaller x
    for i in range(n - 2, -1, -1):
        ch, cm, cl = c_hi[i + 1], c_mid[i], c_lo[i]
        a0, a1 = y1, ch * y0
        b0 = y1 + 0.5 * s * a1
        b1 = cm * (y0 + 0.5 * s * a0)
        d0 = y1 + 0.5 * s * b1
        d1 = cm * (y0 + 0.5 * s * b0)
        e0 = y1 + s * d1
        e1 = cl * (y0 + s * d0)
        y0 = y0 + (s / 6.0) * (a0 + 2.0 * (b0 + d0) + e0)
        y1 = y1 + (s / 6.0) * (a1 + 2.0 * (b1 + d1) + e1)
        psi[i] = y0
        dpsi[i] = y1

    return np.array(psi), np.array(dpsi)
