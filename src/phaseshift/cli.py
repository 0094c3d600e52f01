"""Config-driven batch front end.

Reads a JSON job description, runs one of four commands, and writes a CSV
report (12 significant digits, deterministic byte-for-byte):

* ``phases``   — one row per wavenumber: background phase, corrections,
  divergence flag.
* ``sweep``    — one row per coupling: truncated series values, the exact
  oracle phase, and the remainders.
* ``converge`` — empirical remainder orders per truncation.
* ``selftest`` — the built-in invariant suite, one PASS/FAIL row per check.

Exit codes: 0 success; 1 a numerical guard tripped, printed on stderr as
``ComputationFailed: <error type>: <message>``; 2 an invalid config or an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cross_check import NestedIntegrandSet, delta2_direct, nested_integral
from .errors import ConfigInvalid, DegenerateSweep, PhaseshiftError
from .partitions import MAX_ORDER, enumerate_partitions
from .potential import DEFAULT_TAIL_EPS, Grid, PotentialSpec
from .refwave import (
    DEFAULT_WRONSKIAN_TOL,
    analytic_free_reference,
    solve_reference,
)
from .oracle import (convergence_order_check, halving_ladder, solve_exact,
                     sweep_series)
from .series import (assemble_corrections, assemble_series, divergence_flag,
                     evaluate_truncated, log_expansion_reference)

COMMANDS = ("phases", "sweep", "converge", "selftest")

RADIANS_PER_DEGREE = math.pi / 180.0

#: largest grid a config may ask for; the oracle integrates on a finer one
#: (:func:`oracle.sweep_series`)
MAX_POINTS = 1_000_001


@dataclass(frozen=True)
class JobConfig:
    """Validated job description; see README for the JSON schema."""

    command: str
    k_values: tuple
    couplings: tuple
    max_order: int
    grid: Grid | None
    V: PotentialSpec
    U: PotentialSpec
    output_path: str | None
    tol_wronskian: float


def _as_float(value, key) -> float:
    # a JSON integer can lie beyond the double range, and a document built
    # in Python can hold NaN or an infinity
    try:
        number = float(value)
    except OverflowError:
        raise ConfigInvalid(f"'{key}' is beyond the double range") from None
    if not math.isfinite(number):
        raise ConfigInvalid(f"'{key}' must be finite, got {number}")
    return number


def _require_number(doc, key):
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"'{key}' must be a number")
    number = _as_float(value, key)
    if not number > 0:
        raise ConfigInvalid(f"'{key}' must be positive")
    return number


def _number_list(value, key):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        raise ConfigInvalid(f"'{key}' must be a number or a non-empty list of numbers")
    return tuple(_as_float(v, key) for v in value)


def _parse_potential(doc, key, grid, eps_tail) -> PotentialSpec:
    sub = doc.get(key)
    if sub is None:
        return PotentialSpec.zero()
    if not isinstance(sub, dict) or "kind" not in sub:
        raise ConfigInvalid(f"'{key}' must be an object with a 'kind'")
    kind = sub["kind"]
    try:
        if kind == "piecewise_constant":
            return PotentialSpec.piecewise_constant(sub.get("segments", []))
        if kind == "gaussian_sum":
            return PotentialSpec.gaussian_sum(sub.get("bumps", []),
                                              eps_tail=eps_tail)
        if kind == "tabulated":
            if grid is None:
                raise ConfigInvalid("tabulated potentials need a grid")
            return PotentialSpec.tabulated(sub.get("samples", []), grid,
                                           eps_tail=eps_tail)
    except (PhaseshiftError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"'{key}': {exc}") from exc
    raise ConfigInvalid(f"'{key}': unknown potential kind {kind!r}")


def parse_config(doc: dict, command: str | None = None) -> JobConfig:
    """Validate a JSON job document into a :class:`JobConfig`.

    `command` (from the command line) overrides-and-must-match the optional
    "command" key in the document.

    Raises
    ------
    ConfigInvalid
        On any structural or range problem.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be an object")
    known = {"command", "k", "lambda", "max_order", "grid", "V", "U",
             "output_path", "tolerances"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")

    doc_command = doc.get("command")
    if doc_command is not None and doc_command not in COMMANDS:
        raise ConfigInvalid(f"command must be one of {COMMANDS}")
    if command is not None and doc_command is not None and command != doc_command:
        raise ConfigInvalid(
            f"config says command={doc_command!r} but {command!r} was requested"
        )
    effective = command or doc_command
    if effective is None:
        raise ConfigInvalid("no command given")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigInvalid("'tolerances' must be an object")
    extra = set(tolerances) - {"tol_wronskian", "eps_tail"}
    if extra:
        raise ConfigInvalid(f"unknown tolerance keys: {sorted(extra)}")
    tol_wronskian = (_require_number(tolerances, "tol_wronskian")
                     if "tol_wronskian" in tolerances else DEFAULT_WRONSKIAN_TOL)
    eps_tail = (_require_number(tolerances, "eps_tail")
                if "eps_tail" in tolerances else DEFAULT_TAIL_EPS)

    grid = None
    if "grid" in doc:
        gdoc = doc["grid"]
        if not isinstance(gdoc, dict) or set(gdoc) != {"x_max", "n_points"}:
            raise ConfigInvalid("'grid' must be {\"x_max\": ..., \"n_points\": ...}")
        x_max = _require_number(gdoc, "x_max")
        n_points = gdoc["n_points"]
        if isinstance(n_points, bool) or not isinstance(n_points, int):
            raise ConfigInvalid("'n_points' must be an integer")
        if n_points > MAX_POINTS:
            raise ConfigInvalid(f"'n_points' must be at most {MAX_POINTS}")
        try:
            grid = Grid(x_max, n_points)
        except (PhaseshiftError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc

    needs_run = effective != "selftest"
    if needs_run and grid is None:
        raise ConfigInvalid(f"'{effective}' needs a grid")

    max_order = doc.get("max_order", 0)
    if needs_run:
        if isinstance(max_order, bool) or not isinstance(max_order, int):
            raise ConfigInvalid("'max_order' must be an integer")
        if not 1 <= max_order <= MAX_ORDER:
            raise ConfigInvalid(
                f"'max_order' must be in 1..{MAX_ORDER}, got {max_order}")

    k_values: tuple = ()
    if needs_run:
        if "k" not in doc:
            raise ConfigInvalid(f"'{effective}' needs 'k'")
        k_values = _number_list(doc["k"], "k")
        if any(k <= 0 for k in k_values):
            raise ConfigInvalid("'k' values must be positive")
        if effective in ("sweep", "converge") and len(k_values) != 1:
            raise ConfigInvalid(f"'{effective}' uses a single k")

    couplings: tuple = ()
    if "lambda" in doc:
        couplings = _number_list(doc["lambda"], "lambda")
    if effective == "sweep" and not couplings:
        raise ConfigInvalid("'sweep' needs 'lambda'")
    if effective == "converge":
        try:
            couplings = halving_ladder(couplings)
        except DegenerateSweep as exc:
            raise ConfigInvalid(f"'lambda': {exc}") from exc
    if effective == "phases":
        if len(couplings) > 1:
            raise ConfigInvalid("'phases' uses a single lambda")
        couplings = couplings or (1.0,)  # where the divergence flag is evaluated

    V = _parse_potential(doc, "V", grid, eps_tail)
    U = _parse_potential(doc, "U", grid, eps_tail)
    if grid is not None:
        for name, spec in (("V", V), ("U", U)):
            if spec.support_hi > grid.x_max:
                raise ConfigInvalid(
                    f"'{name}' support extends to {spec.support_hi:g}, "
                    f"beyond x_max = {grid.x_max:g}"
                )

    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigInvalid("'output_path' must be a string")

    return JobConfig(
        command=effective,
        k_values=k_values,
        couplings=couplings,
        max_order=max_order if needs_run else 0,
        grid=grid,
        V=V,
        U=U,
        output_path=output_path,
        tol_wronskian=tol_wronskian,
    )


# ---------------------------------------------------------------------------
# command implementations


def _series(config: JobConfig, k: float):
    # an identically-zero background has an exact reference wave; use it
    if config.V.support_hi == 0.0:
        ref = analytic_free_reference(k, config.grid)
    else:
        ref = solve_reference(config.V, k, config.grid, config.tol_wronskian)
    return assemble_series(ref, config.U, config.max_order)


def _rows_phases(config: JobConfig):
    header = (["k", "delta0"]
              + [f"delta_{n}" for n in range(1, config.max_order + 1)]
              + ["divergence_flag"])
    rows = []
    for k in config.k_values:
        series = _series(config, k)
        rows.append([k, series.delta0, *series.corrections,
                     int(divergence_flag(series, config.couplings[0]))])
    return header, rows


def _rows_sweep(config: JobConfig):
    series = _series(config, config.k_values[0])
    exact = sweep_series(series, config.V, config.U, config.couplings,
                         config.tol_wronskian)
    orders = range(config.max_order + 1)
    header = (["lambda"]
              + [f"delta_trunc_{n}" for n in orders]
              + ["delta_exact"]
              + [f"remainder_{n}" for n in orders])
    rows = []
    for res in exact:
        truncated = [evaluate_truncated(series, res.coupling, n) for n in orders]
        rows.append([res.coupling, *truncated, res.delta_exact,
                     *(res.delta_exact - t for t in truncated)])
    return header, rows


def _rows_converge(config: JobConfig):
    series = _series(config, config.k_values[0])
    report = convergence_order_check(series, config.V, config.U,
                                     config.couplings,
                                     tol_wronskian=config.tol_wronskian)
    header = (["truncation", "p_hat", "status"]
              + [f"remainder_{i + 1}" for i in range(len(report.couplings))])
    rows = [[c.truncation, c.p_hat, c.status, *c.remainders]
            for c in report.checks]
    return header, rows


def _rows_selftest(config: JobConfig):
    del config
    rows = []
    passed = 0
    for name, check in _SELFTESTS:
        try:
            ok = bool(check())
        except Exception:  # a crashing check is a failing check
            ok = False
        passed += ok
        rows.append([name, "PASS" if ok else "FAIL"])
    rows.append(["summary",
                 f"passed={passed} failed={len(_SELFTESTS) - passed}"])
    return ["check", "status"], rows


# ---------------------------------------------------------------------------
# built-in selftest suite


def _check_free_wave_consistency() -> bool:
    grid = Grid(5.0, 2001)
    solved = solve_reference(PotentialSpec.zero(), 1.0, grid)
    exact = analytic_free_reference(1.0, grid)
    return float(np.max(np.abs(solved.psi - exact.psi))) <= 1e-10


def _check_ratio_shift_origin() -> bool:
    ref = analytic_free_reference(1.3, Grid(2.0, 101))
    return ref.ratio_shift[0] == 0.0


def _check_wronskian_free() -> bool:
    return analytic_free_reference(2.0, Grid(5.0, 1001)).wronskian_residual < 1e-12


def _check_partition_counts() -> bool:
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    return all(len(enumerate_partitions(n)) == expected[n - 1]
               for n in range(1, 13))


def _check_partition_order4() -> bool:
    got = [t.multiplicities for t in enumerate_partitions(4)]
    return got == [(0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 0, 0), (2, 1, 0, 0),
                   (4, 0, 0, 0)]


def _check_partition_coefficients() -> bool:
    coeff = {t.multiplicities: t.coefficient
             for n in (1, 2, 3) for t in enumerate_partitions(n)}
    return (coeff[(1,)] == 1.0 and coeff[(0, 1)] == 1.0
            and coeff[(2, 0)] == -0.5 and coeff[(0, 0, 1)] == 1.0
            and coeff[(1, 1, 0)] == -1.0
            and abs(coeff[(3, 0, 0)] - 1.0 / 3.0) < 1e-15)


def _check_partition_vs_recurrence() -> bool:
    # the all-orders partition sum that assemble_series uses
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = [complex(a, b) for a, b in rng.uniform(-1, 1, size=(8, 2))]
        for n, delta in enumerate(assemble_corrections(f, 8), start=1):
            if abs(delta - log_expansion_reference(f, n)) > 1e-12:
                return False
    return True


_BARRIER = PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)])
FIRST_ORDER_BARRIER = -(1.0 - math.sin(2.0) / 2.0)


def _barrier_reference():
    return analytic_free_reference(1.0, Grid(2.0, 16001))


def _check_first_order_anchor() -> bool:
    series = assemble_series(_barrier_reference(), _BARRIER, 1)
    return abs(series.corrections[0] - FIRST_ORDER_BARRIER) < 1e-8


def _check_second_order_cross_path() -> bool:
    ref = _barrier_reference()
    series = assemble_series(ref, _BARRIER, 2)
    return abs(series.corrections[1] - delta2_direct(ref, _BARRIER)) < 1e-8


def _check_zero_perturbation() -> bool:
    ref = analytic_free_reference(1.0, Grid(2.0, 201))
    series = assemble_series(ref, PotentialSpec.zero(), 3)
    return series.corrections == (0.0, 0.0, 0.0)


def _check_simplex_identity() -> bool:
    grid = Grid(2.0, 101)
    one = np.ones(grid.n_points - 1)
    value = nested_integral(NestedIntegrandSet(grid, ((one, one),) * 2))
    return abs(value - 2.0) < 1e-12


def _check_oracle_background_limit() -> bool:
    grid = Grid(5.0, 801)
    barrier03 = PotentialSpec.piecewise_constant([(0.0, 1.0, 0.3)])
    ref = solve_reference(barrier03, 1.0, grid)
    res = solve_exact(barrier03, _BARRIER, 0.0, 1.0, grid)
    return abs(res.delta_exact - ref.delta0) < 1e-12


_SELFTESTS = (
    ("free_wave_rk4_vs_analytic", _check_free_wave_consistency),
    ("ratio_shift_zero_at_origin", _check_ratio_shift_origin),
    ("wronskian_free_wave", _check_wronskian_free),
    ("partition_counts_through_12", _check_partition_counts),
    ("partition_tuples_order_4", _check_partition_order4),
    ("partition_coefficients", _check_partition_coefficients),
    ("partition_vs_log_recurrence", _check_partition_vs_recurrence),
    ("first_order_barrier_anchor", _check_first_order_anchor),
    ("second_order_cross_path", _check_second_order_cross_path),
    ("zero_perturbation_series", _check_zero_perturbation),
    ("ordered_double_integral_identity", _check_simplex_identity),
    ("oracle_background_limit", _check_oracle_background_limit),
)


# ---------------------------------------------------------------------------
# output

_ANGLE_PREFIXES = ("delta", "remainder")


def _format_cell(value, column: str, degrees: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if degrees and column.startswith(_ANGLE_PREFIXES):
        value /= RADIANS_PER_DEGREE
    return "%.12g" % value


def render_csv(header, rows, degrees: bool = False) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v, c, degrees)
                              for v, c in zip(row, header)))
    return "\n".join(lines) + "\n"


_DISPATCH = {
    "phases": _rows_phases,
    "sweep": _rows_sweep,
    "converge": _rows_converge,
    "selftest": _rows_selftest,
}


def run(config: JobConfig, degrees: bool = False,
        out_override: str | None = None) -> int:
    """Execute a validated job; returns the process exit code."""
    try:
        header, rows = _DISPATCH[config.command](config)
    except PhaseshiftError as exc:
        print(f"ComputationFailed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1

    text = render_csv(header, rows, degrees)
    path = out_override or config.output_path
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no access
            print(f"ConfigInvalid: cannot write output: {exc}", file=sys.stderr)
            return 2

    if config.command == "selftest":
        failed = any(row[1] == "FAIL" for row in rows)
        return 1 if failed else 0
    return 0


def _finite_float(token: str) -> float:
    # json.load takes NaN and Infinity, and 1e999 parses to inf: refuse them
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


# built once: parsing reads the parser and never changes it
_PARSER = argparse.ArgumentParser(
    prog="phaseshift",
    description="Perturbative phase shifts for 1-D scattering problems.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True,
                     help="path to the JSON job description")
_PARSER.add_argument("--out", help="override the config's output_path")
_PARSER.add_argument("--degrees", action="store_true",
                     help="report angle columns in degrees")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh, parse_constant=_finite_float,
                            parse_float=_finite_float)
    # JSONDecodeError is a ValueError; nesting deeper than the interpreter's
    # recursion limit is a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        print(f"ConfigInvalid: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(doc, command=args.command)
    except ConfigInvalid as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return 2

    return run(config, degrees=args.degrees, out_override=args.out)


if __name__ == "__main__":
    # The package imports this module, so runpy would execute a second copy
    # of it here; refuse loudly rather than exit 0 having done nothing.
    print("phaseshift.cli is not a script; run `python -m phaseshift`",
          file=sys.stderr)
    raise SystemExit(2)
