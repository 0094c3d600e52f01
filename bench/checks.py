"""Output checks for generated jobs, run outside the timed region.

Each check reads the CSV a job wrote and compares it against a route that
does not share the code under test:

* oracle phases (``sweep`` rows, and the truncation-0 remainders of
  ``converge``, which equal the exact phase because delta0 = 0) against the
  closed-form transfer-matrix phase of the piecewise-constant potential;
* the background phase delta0 of ``phases`` rows against the same closed form;
* delta_1..delta_3 against ``cross_check.delta{1,2,3}_direct``, within
  DIRECT_H2 * h^2: both are O(h^2) quadratures of the same nested integrals,
  so they differ by C h^2 with C of order one set by the potential;
* every delta_n against ``log_expansion_reference`` on the same hierarchy
  values (the recurrence against the partition sum), within the worst-case
  rounding bound of a sum of p(n) products of up to n factors whose terms
  can cancel: (p(n) + 2n) eps M_n, where M_n is the same partition sum taken
  over absolute values.

The CSV carries 12 significant digits, so every comparison of a CSV value
allows its rendering error of 5e-12 relative.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import sys
import traceback
from pathlib import Path

from phaseshift.cli import parse_config
from phaseshift.cross_check import delta1_direct, delta2_direct, delta3_direct
from phaseshift.hierarchy import compute_hierarchy
from phaseshift.refwave import analytic_free_reference, solve_reference
from phaseshift.series import log_expansion_reference

#: relative rendering error of a 12-significant-digit CSV value
CSV_REL = 5e-12

#: the constant C in the h^2 bound of series against direct formulas.  Over
#: 30 seeds of both phases workloads (4320 k values) C was at most 0.70
#: (p99 0.17); with other job sizes it reached 1.24.  Each worst case was a
#: clean h^2 difference, the same C from 2001 to 16001 points.  An O(h)
#: error would exceed the bound 200-fold.
DIRECT_H2 = 4.0

#: absolute bound for oracle and background phases against the closed form.
#: The RK4 error on the workloads' node-aligned grids is far below it: at
#: most 7.6e-14 for the background phase over 10 seeds (960 k values).  On
#: a grid twice as coarse it reaches 1.2e-12, so the bound ties the grids.
EXACT_ABS = 1e-12


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def magnitude_sum(values, n: int) -> float:
    """sum over partitions of n of |coefficient| * prod |f_p|^i_p.

    That sum is the n-th Taylor coefficient of -log(1 - sum |f_p| x^p), so
    the log recurrence with positive signs gives it in O(n^2).
    """
    a = [abs(complex(v)) for v in values[:n]]
    m = [0.0] * (n + 1)
    for k in range(1, n + 1):
        m[k] = a[k - 1] + sum(j * m[j] * a[k - j - 1] for j in range(1, k)) / k
    return m[n]


def _close(got: float, want: float, abs_tol: float, rel_tol: float = CSV_REL) -> bool:
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def _reduce(angle: float) -> float:
    while angle <= -0.5 * math.pi:
        angle += math.pi
    while angle > 0.5 * math.pi:
        angle -= math.pi
    return angle


def closed_form_phase(segments, k: float, x_max: float) -> float:
    """Principal-branch phase of psi'' = (2V - k^2) psi, V piecewise constant.

    The wave is exp(-ikx) beyond the support; each constant region of width
    d and local wavenumber q = sqrt(k^2 - 2V) is crossed exactly:
    psi(lo) = psi(hi) cos(qd) - psi'(hi) sin(qd)/q and
    psi'(lo) = psi(hi) q sin(qd) + psi'(hi) cos(qd).
    """
    edges = sorted({0.0, x_max, *(s[0] for s in segments), *(s[1] for s in segments)})
    psi = cmath.exp(-1j * k * x_max)
    dpsi = -1j * k * psi
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        mid = 0.5 * (lo + hi)
        v = next((s[2] for s in segments if s[0] <= mid < s[1]), 0.0)
        q = cmath.sqrt(k * k - 2.0 * v)
        d = hi - lo
        c, s = cmath.cos(q * d), cmath.sin(q * d)
        sinc_d = s / q if q != 0 else d
        psi, dpsi = psi * c - dpsi * sinc_d, psi * q * s + dpsi * c
    return _reduce(cmath.phase(psi))


def _unwrapped_barrier_phases(doc: dict, couplings) -> list:
    """Closed-form oracle phases, unwrapped from delta0 = 0 as the sweep does."""
    (lo, hi, height), = doc["U"]["segments"]
    x_max = doc["grid"]["x_max"]
    previous, out = 0.0, []
    for c in couplings:
        raw = closed_form_phase([(lo, hi, c * height)], doc["k"], x_max)
        previous = raw + math.pi * round((previous - raw) / math.pi)
        out.append(previous)
    return out


def _check_sweep(doc: dict, rows: list) -> list:
    couplings = [float(r["lambda"]) for r in rows]
    want = _unwrapped_barrier_phases(doc, couplings)
    return [f"sweep lambda={c:.6g}: delta_exact {r['delta_exact']} vs closed form {w:.15g}"
            for c, r, w in zip(couplings, rows, want)
            if not _close(float(r["delta_exact"]), w, EXACT_ABS)]


def _check_converge(doc: dict, rows: list) -> list:
    trunc0 = next(r for r in rows if r["truncation"] == "0")
    couplings = doc["lambda"]
    want = _unwrapped_barrier_phases(doc, couplings)
    return [f"converge lambda={c:.6g}: truncation-0 remainder {trunc0[f'remainder_{i + 1}']} "
            f"vs closed form {w:.15g}"
            for i, (c, w) in enumerate(zip(couplings, want))
            if not _close(float(trunc0[f"remainder_{i + 1}"]), w, EXACT_ABS)]


def _check_phases(doc: dict, rows: list) -> list:
    config = parse_config(doc)
    grid, h = config.grid, config.grid.step
    segments = config.V.segments
    errors = []
    for row, k in zip(rows, config.k_values):
        got = [float(row[f"delta_{n}"]) for n in range(1, config.max_order + 1)]
        if segments:
            ref = solve_reference(config.V, k, grid, config.tol_wronskian)
        else:
            ref = analytic_free_reference(k, grid)
        delta0 = closed_form_phase(segments, k, grid.x_max)
        if not _close(float(row["delta0"]), delta0, EXACT_ABS):
            errors.append(f"k={k:.6g}: delta0 {row['delta0']} vs closed form {delta0:.15g}")
        direct = (delta1_direct, delta2_direct, delta3_direct)
        for n, fn in enumerate(direct[:config.max_order], start=1):
            want = fn(ref, config.U)
            if not _close(got[n - 1], want, DIRECT_H2 * h * h, 0.0):
                errors.append(f"k={k:.6g}: delta_{n} {got[n - 1]:.12g} vs direct "
                              f"{want:.12g} (tolerance {DIRECT_H2 * h * h:.3g})")
        values = compute_hierarchy(ref, config.U, config.max_order).values_at_zero
        for n in range(1, config.max_order + 1):
            want = log_expansion_reference(values, n)
            rounding = ((partition_count(n) + 2 * n) * sys.float_info.epsilon
                        * magnitude_sum(values, n))
            if not _close(got[n - 1], want, rounding):
                errors.append(f"k={k:.6g}: delta_{n} {got[n - 1]:.12g} vs log "
                              f"recurrence {want:.15g}")
    if len(rows) != len(config.k_values):
        errors.append(f"{len(rows)} rows for {len(config.k_values)} k values")
    return errors


_CHECKS = {"sweep": _check_sweep, "converge": _check_converge, "phases": _check_phases}


def check_output(doc: dict, text: str) -> list:
    """Error messages for the CSV `text` job `doc` wrote; empty when it is right."""
    rows = _rows(text)
    if not rows:
        return ["empty CSV"]
    return _CHECKS[doc["command"]](doc, rows)


def converge_fail_rows(text: str) -> int:
    """FAIL and INCONCLUSIVE rows of a converge CSV (scientific output, not errors)."""
    return sum(r["status"] in ("FAIL", "INCONCLUSIVE") for r in _rows(text))


def check_pass(path: Path) -> dict:
    """Check every job of one pass directory that wrote a CSV.

    Returns the slots whose check failed, their error messages, and the
    converge FAIL/INCONCLUSIVE row count.
    """
    bad, errors, converge_rows = [], [], 0
    for config_path in sorted(path.glob("job*.json")):
        out_path = config_path.with_suffix(".csv")
        if not out_path.is_file():  # never ran, or its run failed
            continue
        slot = int(config_path.stem[len("job"):])
        doc = json.loads(config_path.read_text())
        text = out_path.read_text()
        try:
            problems = check_output(doc, text)
        except Exception:  # malformed output fails its check; the other jobs go on
            problems = ["output could not be checked\n" + traceback.format_exc()]
        if problems:
            bad.append(slot)
            errors.extend(f"slot {slot}: {problem}" for problem in problems)
        if doc["command"] == "converge" and not problems:
            converge_rows += converge_fail_rows(text)
    return {"bad": bad, "errors": errors, "converge_fail_rows": converge_rows}
