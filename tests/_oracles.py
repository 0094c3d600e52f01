"""Independent numerical oracles the tests compare the package against.

Each helper here is either a closed form or a deliberately different
discretization of the same quantity, so agreement with the package is
evidence and not a tautology.  Frozen decimal constants were produced
offline with arbitrary-precision tooling and are committed as literals;
nothing in this file calls back into the package's numerical pipeline.  The
exceptions are :func:`partition_sum_loop`, which walks the package's own
partition enumeration (pinned by brute force in ``test_partitions``) because
it is a reference for the arithmetic of the sum, not for the partitions, and
:func:`full_grid_recursion`, which samples U through the package and takes
its reference wave because it is a reference for the windowed hierarchy,
not for the sampling or the wave, :func:`full_solves`, which
combines, integrates and certifies through the package one coupling at a
time because it is a reference for the oracle's shared sweep, not for the
propagator, :func:`full_block_scan`, which runs the package's RK4
kernels on every block because it is a reference for the scan's
deduplication of repeated blocks, not for the kernels, and
:func:`sample_by_values_at`, which evaluates a spec by its ``values_at``
because it is a reference for the cells that sampling assigns to each
segment, not for the evaluation.
"""

import cmath
import math

import numpy as np

from phaseshift import enumerate_partitions, sample_potential
from phaseshift import refwave
from phaseshift.refwave import integrate_wave_inward, wronskian_residual

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


def segment_edges(segments, x_max):
    """0, x_max and every edge of `segments`, sorted, each once."""
    return sorted({0.0, float(x_max), *(float(s[0]) for s in segments),
                   *(float(s[1]) for s in segments)})


def value_in(segments, lo, hi):
    """The value of the first segment that holds the middle of [lo, hi]."""
    mid = 0.5 * (lo + hi)
    for a, b, v in segments:
        if a <= mid < b:
            return v
    return 0.0


def transfer_matrix_wave(segments, k, x_max):
    """(psi, psi') at x = 0 for a piecewise-constant potential, closed form.

    Starts from exp(-ikx) at x_max and crosses each constant region exactly:
    with kappa = sqrt(k^2 - 2V) the local wavenumber and d the region width,

        psi(lo)  = psi(hi) cos(kappa d) - psi'(hi) sin(kappa d)/kappa
        psi'(lo) = psi(hi) kappa sin(kappa d) + psi'(hi) cos(kappa d).

    No grid, no stepping error -- only rounding.
    """
    edges = segment_edges(segments, x_max)
    psi = cmath.exp(-1j * k * x_max)
    dpsi = -1j * k * psi
    for lo, hi in zip(edges[-2::-1], edges[::-1]):
        d = hi - lo
        kappa = cmath.sqrt(complex(k * k - 2.0 * value_in(segments, lo, hi)))
        c, s = cmath.cos(kappa * d), cmath.sin(kappa * d)
        psi, dpsi = psi * c - dpsi * s / kappa, psi * kappa * s + dpsi * c
    return psi, dpsi


def coupling_taylor_coefficients(v_segments, u_segments, k, x_max, orders,
                                 rho=0.9, nodes=64):
    """(f_1, ..., f_orders): the Taylor coefficients in c of
    F(c) = psi(0; c) / psi(0; 0), the wave of V + c U relative to that of V,
    for piecewise-constant V and U given as (lo, hi, value) segments.

    F is entire in c, so its coefficients are Cauchy integrals over any
    circle.  The trapezoid rule on |c| = rho, at the `nodes` half-shifted
    points c_j = rho e^(2 pi i (j + 1/2) / nodes), gives

        f_n = mean(F(c_j) c_j^-n),

    with an aliasing error of f_(n+nodes) rho^nodes and beyond.  The half
    shift keeps every point off the real axis, where a point at
    c = (k^2 - 2V) / (2U) would make kappa = 0 and the closed form of
    :func:`transfer_matrix_wave` divide by zero.  Each F(c_j) crosses the
    union of both potentials' edges, each region at its own V + c U.
    """
    edges = segment_edges([*v_segments, *u_segments], x_max)
    regions = [(lo, hi, value_in(v_segments, lo, hi), value_in(u_segments, lo, hi))
               for lo, hi in zip(edges, edges[1:])]

    def psi0(c):
        segments = [(lo, hi, v + c * u) for lo, hi, v, u in regions]
        return transfer_matrix_wave(segments, k, x_max)[0]

    background = psi0(0.0)
    points = [rho * cmath.exp(2j * math.pi * (j + 0.5) / nodes)
              for j in range(nodes)]
    ratios = [psi0(c) / background for c in points]
    return tuple(sum(F * c ** -n for F, c in zip(ratios, points)) / nodes
                 for n in range(1, orders + 1))


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
    c_hi = (2.0 * samples[2] - ksq).tolist()   # upper cell edge
    c_mid = (2.0 * samples[1] - ksq).tolist()  # cell center
    c_lo = (2.0 * samples[0] - ksq).tolist()   # lower cell edge

    psi = [0j] * n
    dpsi = [0j] * n
    psi[-1] = cmath.exp(-1j * k * x_last)
    dpsi[-1] = -1j * k * psi[-1]

    y0, y1 = psi[-1], dpsi[-1]
    s = -h  # stepping toward smaller x
    for i in range(n - 2, -1, -1):
        ch, cm, cl = c_hi[i], c_mid[i], c_lo[i]
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


# The node-state kernel of the blocked scan before it stopped casting the real
# step entries to complex, kept as the reference for the cast-free one: on
# finite inputs whose block-top states hold no -0.0 the two agree bit for bit.
def node_states_complex(steps, z0, z1):
    """psi and psi' at every node of the blocks of `steps`, a
    (W, 2, 2, blocks) array of suffix-product deviations, from the states
    (z0, z1) at the block tops: node row r is (N_r0 z0 + N_r1 z1) + z_r, with
    N cast to complex.  Returns two (W, blocks) arrays, [t, j] at node
    j*W + t."""
    psi = steps[:, 0, 0] * z0
    psi += steps[:, 0, 1] * z1
    psi += z0
    dpsi = steps[:, 1, 0] * z0
    dpsi += steps[:, 1, 1] * z1
    dpsi += z1
    return psi, dpsi


# The per-tuple loop the package's partition sum replaced, kept verbatim as
# its reference: every multiplicity is visited, zeros skipped, and each value
# converted to complex where it is used.  The package must agree bit for bit.
def partition_sum_loop(values, n):
    """delta_n as the imaginary part of the partition sum over f_1 .. f_n."""
    total = 0j
    for t in enumerate_partitions(n):
        term = complex(t.coefficient)
        for p, i in enumerate(t.multiplicities, start=1):
            if i:
                term *= complex(values[p - 1]) ** i
        total += term
    return total.imag


# The hierarchy step the package's once-built operator replaced, kept
# verbatim as its reference: U times d times g on each side of the nodes, two
# right-to-left cumulative trapezoids (the former ``cumulative_from_right``,
# inlined), and the division by ik last.  Written in plain numpy on node
# arrays, so np.clongdouble inputs give the same discretization in extended
# precision.
def recursion_step_loop(k, step, density, ratio_shift, u_right, u_left, g):
    """Next correction's node values from those of `g` (x = 0 first)."""

    def cumulative_from_right(values, values_left):
        seg = 0.5 * step * (values[:-1] + values_left[1:])
        out = np.zeros(len(values), dtype=seg.dtype)
        out[:-1] = np.cumsum(seg[::-1])[::-1]
        return out

    base = density * g
    r = ratio_shift
    plus = u_right * base
    minus = u_left * base
    weighted = cumulative_from_right(plus * r, minus * r)
    plain = cumulative_from_right(plus, minus)
    return (weighted - r * plain) / (1j * k)


# The full-grid hierarchy operator the package's windowed one replaced, kept
# verbatim as its reference: every order runs over every cell of the grid,
# also where U is zero.  The package must agree bit for bit.
def full_grid_recursion(ref, u):
    """The hierarchy operator for `ref` and `u`, built once.

    Returns ``step``, which maps the node values of g, stored from x_max
    down to x = 0 in a contiguous complex array, to those of the next
    correction in a new array of the same layout.  Cell c of that layout
    spans stored nodes c (its upper node) and c + 1 (its lower node).
    """
    grid = ref.grid
    samples = sample_potential(u, grid)
    n = grid.n_points
    scale = 0.5 * grid.step / (1j * ref.k)
    d = ref.density[::-1]
    # an overflowing weight ends in the callers' NonFiniteResult, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lower = samples[0, ::-1] * d[1:] * scale
        upper = samples[2, ::-1] * d[:-1] * scale
    r = np.ascontiguousarray(ref.ratio_shift[::-1])
    r_lo, r_hi = r[1:], r[:-1]
    lo, hi, lo_r, hi_r = (np.empty(n - 1, dtype=complex) for _ in range(4))
    weighted = np.zeros(n, dtype=complex)
    plain = np.zeros(n, dtype=complex)

    def step(g: np.ndarray) -> np.ndarray:
        np.multiply(lower, g[1:], out=lo)
        np.multiply(upper, g[:-1], out=hi)
        np.multiply(lo, r_lo, out=lo_r)
        np.multiply(hi, r_hi, out=hi_r)
        np.add(lo_r, hi_r, out=lo_r)
        np.add(lo, hi, out=lo)
        np.cumsum(lo_r, out=weighted[1:])
        np.cumsum(lo, out=plain[1:])
        out = r * plain
        np.subtract(weighted, out, out=out)
        return out

    return step


def full_grid_hierarchy(ref, u, order):
    """(f_1(0) ... f_order(0), whether f_order is finite at every node), as
    the former ``compute_hierarchy`` iterated them from g = 1."""
    step = full_grid_recursion(ref, u)
    g = np.ones(ref.grid.n_points, dtype=complex)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            g = step(g)
            values.append(complex(g[-1]))
    return tuple(values), bool(np.all(np.isfinite(g)))


# The per-coupling full solve the oracle's sweep replaced, kept as its
# reference: every coupling samples V + c U by :func:`combined`, integrates
# every cell by `integrate_wave_inward` and takes the residual over every
# node by `wronskian_residual`.  The sweep must agree bit for bit.
def combined(a, b, c):
    """The samples of a + c b, formed as ``a + c * b`` in each row.  IEEE
    addition commutes, so these are the bits of `potential.combine_cells`,
    which forms ``c * b + a``."""
    return np.array([x + c * y for x, y in zip(a, b)])


def full_solves(V, U, couplings, k, grid):
    """[(psi(0), principal phase, Wronskian residual)] of V + c U for each
    coupling c, each from a solve of its own over the whole grid.

    Each solve is :func:`integrate_wave_inward`, the one-chain case of the
    same recursive scan that solves the oracle's sweep, so this checks the
    shared blocks and the certificate's split, not the propagator
    (:func:`rk4_wave_loop` checks that)."""
    v, u = sample_potential(V, grid), sample_potential(U, grid)
    results = []
    for c in couplings:
        with np.errstate(over="ignore", invalid="ignore"):
            psi, dpsi = integrate_wave_inward(k, grid, combined(v, u, c))
            residual = wronskian_residual(k, psi, dpsi)
        psi0 = complex(psi[0])
        results.append((psi0, principal_phase(psi0), residual))
    return results


def unwrap(phases, seed):
    """`phases` moved by multiples of pi onto the branch that starts at
    `seed` and moves least from one to the next, as a sweep unwraps."""
    out, previous = [], seed
    for d in phases:
        previous = d + math.pi * round((previous - d) / math.pi)
        out.append(previous)
    return out


# The level-0 build of the scan before it built each distinct block once,
# kept as its reference: the cell steps and in-block suffix products of every
# block are formed, also where a block repeats the one below it.  The package
# must agree bit for bit.
def full_block_scan(k, h, top, layout, lower, mid, upper):
    """psi and psi' over the node slots of `layout`, as a (2, slots) array
    the caller owns, from the arguments of ``refwave._solve``."""
    width = refwave.SCAN_WIDTH
    work = refwave._Workspace()
    steps = np.empty((width, 2, 2, -(-layout.size // width)))
    refwave._cell_steps(k, h, lower, mid, upper, steps, work)
    if layout.own > layout.cells:
        # every chain ends in a block of its own, padded with identity steps
        blocks = layout.own // width
        steps[layout.cells % width:, :, :, blocks - 1::blocks] = 0.0
    refwave._block_products(steps, work)
    return refwave._scan(layout, steps, *top, work).copy()


# The sampling of a spec before it filled index ranges, kept as its reference:
# every end and centre of a cell is evaluated by `values_at` on the grid's
# node and midpoint arrays.  The package must agree bit for bit.
def sample_by_values_at(spec, grid):
    """(lower, mid, upper) of `spec` on `grid`, one entry per cell."""
    right = spec.values_at(grid.nodes, side=+1)
    left = (spec.values_at(grid.nodes, side=-1)
            if spec.kind == "piecewise_constant" else right)
    return right[:-1], spec.values_at(grid.midpoints, side=+1), left[1:]
