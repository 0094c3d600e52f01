"""Bit-identity probe of the wave and oracle entries: a base revision against
this checkout, stdlib and numpy only.

Extracts the base revision with ``tools/pairs.py``'s ``extract`` (``git
archive``, no network) into a temporary directory, then runs the same
seeded cases on each side, each side in a fresh interpreter with its own
``src`` first on the path.  The cases call only entries whose signatures
have stayed put across revisions: ``integrate_wave_inward`` (on samples
from ``sample_potential``), ``solve_reference``,
``analytic_free_reference``, ``solve_exact`` and ``sweep_exact``.  They
cover grids of 3 to 16001 points; piecewise-constant, gaussian, tabulated
and zero specs, and a few that cannot be sampled; k of 0, -1, NaN and
1e308 beside ordinary ones; couplings of +-0, +-inf, NaN, 1e6 and +-1e308;
tolerances of 1e-8, 1e6 and inf; and each case again with
``refwave._SCAN_SLOTS`` set to 1, 64, 1024 and 2**18 where the side has it.

Each case is hashed (SHA-256) from its entry, its wave bytes (psi and psi'
of ``integrate_wave_inward``; psi, density and ratio shift of a reference
wave), residuals and phases, or from its error's type and text.  Warnings are not part of the hash.  Prints one digest per side,
how many calls returned rather than raised, and the first case that
differs.

Usage, from anywhere:

    python tools/bits.py --base HEAD~1 [--cases 600] [--seed 0]

Exit code 0 when the two digests are equal, 1 when they differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: values of refwave._SCAN_SLOTS each case runs under, in order
SLOTS = (1, 64, 1024, 1 << 18)
POINTS = (3, 5, 17, 33, 35, 401, 1025, 1027, 2001, 4001, 4003, 8001, 16001)
BAD_K = (0.0, -1.0, math.nan, 1e308)
ODD_COUPLINGS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e6, 1e308, -1e308)


def _spec(rng: random.Random, grid, ps):
    """A random potential on `grid`: its description and the spec."""
    kind = rng.choices(("zero", "piecewise", "gaussian", "tabulated", "bad"),
                       (2, 6, 4, 4, 1))[0]
    if kind == "zero":
        return "zero", ps.PotentialSpec.zero()
    if kind == "piecewise":
        edges = sorted({rng.choice((float(rng.randrange(grid.n_points)) * grid.step,
                                    rng.uniform(0.0, grid.x_max)))
                        for _ in range(2 * rng.randint(1, 3))})
        segments = [(lo, hi, rng.choice((rng.uniform(-3.0, 3.0), 0.0, 1e6)))
                    for lo, hi in zip(edges[::2], edges[1::2]) if hi > lo]
        return f"piecewise {segments}", ps.PotentialSpec.piecewise_constant(segments)
    if kind == "gaussian":
        bumps = [(rng.uniform(0.0, grid.x_max), rng.uniform(0.05, 0.8),
                  rng.uniform(-2.0, 2.0)) for _ in range(rng.randint(1, 3))]
        return f"gaussian {bumps}", ps.PotentialSpec.gaussian_sum(bumps)
    cells = grid.n_points - 1
    if kind == "tabulated":
        coarse = rng.choice([c for c in range(2, min(cells, 64) + 1, 2)
                             if cells % c == 0])
        declared = ps.Grid(grid.x_max, coarse + 1)
        scale, top = rng.uniform(-2.0, 2.0), rng.uniform(0.0, grid.x_max)
        table = [scale * math.sin(3.0 * x) if x < top else 0.0
                 for x in declared.nodes.tolist()]
        return (f"tabulated on {coarse} cells, {scale!r} up to {top!r}",
                ps.PotentialSpec.tabulated(table, declared))
    # what cannot be sampled on the grid: a table on a grid it does not
    # refine, or a plain array
    if rng.random() < 0.5:
        declared = ps.Grid(grid.x_max, cells + 3)
        return "tabulated on a grid not refined", ps.PotentialSpec.tabulated(
            [0.5] * declared.n_points, declared)
    return "plain array", [0.0] * grid.n_points


def cases(seed: int, count: int, ps):
    """Yield (description, call) for `count` seeded cases, the same on any
    revision: a call runs one entry and returns what it returned."""
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        grid = ps.Grid(rng.choice((1.0, 2.0, 5.0)), rng.choice(POINTS))
        k = rng.choice(BAD_K) if rng.random() < 0.1 else rng.uniform(0.3, 3.0)
        (v_text, V), (u_text, U) = _spec(rng, grid, ps), _spec(rng, grid, ps)
        couplings = [rng.choice(ODD_COUPLINGS) if rng.random() < 0.15
                     else rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, 5))]
        tol = rng.choice((1e-8, 1e-8, 1e6, math.inf))
        seed_delta = rng.uniform(-1.0, 1.0)
        entry = rng.choice(("integrate_wave_inward", "solve_reference",
                            "analytic_free_reference", "solve_exact",
                            "sweep_exact", "sweep_exact"))
        calls = {
            "integrate_wave_inward": lambda: ps.refwave.integrate_wave_inward(
                k, grid, ps.sample_potential(V, grid)),
            "solve_reference": lambda: ps.solve_reference(V, k, grid, tol),
            "analytic_free_reference": lambda: ps.analytic_free_reference(k, grid),
            "solve_exact": lambda: ps.solve_exact(
                V, U, couplings[0] if couplings else 0.5, k, grid, tol),
            "sweep_exact": lambda: ps.sweep_exact(V, U, couplings, k, grid,
                                                  seed_delta, tol),
        }
        yield (f"{entry} k={k!r} {grid} V: {v_text} U: {u_text} "
               f"couplings={couplings!r} tol={tol!r}", calls[entry])


def _feed(h, value) -> None:
    """Hash `value` by its bits: arrays, numbers, results and containers."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, complex, np.floating, np.complexfloating)):
        value = complex(value)
        h.update(struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif hasattr(value, "delta0"):  # a ReferenceWave
        # its node arrays are bare, or wrapped with `.values` in older revisions
        arrays = (value.psi, value.density, value.ratio_shift)
        _feed(h, (value.k, *(getattr(a, "values", a) for a in arrays),
                  value.delta0, value.wronskian_residual))
    elif hasattr(value, "delta_exact"):  # an OracleResult
        _feed(h, (value.coupling, value.delta_exact, value.psi_at_zero,
                  value.wronskian_residual))
    else:
        h.update(repr(value).encode())


def run_side(seed: int, count: int) -> None:
    """Print, as JSON lines, the digest and outcome of every case under each
    of SLOTS, with the phaseshift the path finds first."""
    import phaseshift as ps
    from phaseshift import refwave

    warnings.simplefilter("ignore")
    print(json.dumps({"package": ps.__file__}))
    for slots in SLOTS:
        if hasattr(refwave, "_SCAN_SLOTS"):
            refwave._SCAN_SLOTS = slots
        for text, call in cases(seed, count, ps):
            h = hashlib.sha256()
            try:
                result = call()
            except Exception as error:  # its type and text are the outcome
                outcome = f"{type(error).__name__}: {error}"
                h.update(outcome.encode())
            else:
                outcome = "returned"
                h.update(b"ok")
                _feed(h, result)
            print(json.dumps({"case": f"slots={slots} {text}",
                              "digest": h.hexdigest(), "outcome": outcome}))


def side(tree: Path, seed: int, count: int) -> list:
    """The case lines of a run of this file's cases on the package in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side",
         "--seed", str(seed), "--cases", str(count)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    head, *lines = (json.loads(line) for line in done.stdout.splitlines())
    if Path(head["package"]).resolve().parents[1] != (tree / "src").resolve():
        raise RuntimeError(f"ran {head['package']}, not the package in {tree}")
    return lines


def digest(lines: list) -> str:
    return hashlib.sha256("".join(line["digest"] for line in lines).encode()
                          ).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="the git revision to compare with")
    parser.add_argument("--cases", type=int, default=600,
                        help="seeded cases under each value of _SCAN_SLOTS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        run_side(args.seed, args.cases)
        return 0
    if args.base is None:
        parser.error("--base is required")
    sys.path.insert(0, str(ROOT / "tools"))
    from pairs import extract

    with tempfile.TemporaryDirectory(prefix="bits-") as tmp:
        base = side(extract(args.base, Path(tmp) / "a"), args.seed, args.cases)
    change = side(ROOT, args.seed, args.cases)
    for label, lines in ((f"base {args.base}", base), ("this checkout", change)):
        returned = sum(line["outcome"] == "returned" for line in lines)
        print(f"{label}: {digest(lines)}  ({len(lines)} calls, {returned} "
              f"returned, the rest raised)")
    for index, (was, now) in enumerate(zip(base, change)):
        if was["digest"] != now["digest"]:
            print(f"first case that differs, #{index}: {now['case']}\n"
                  f"  base: {was['outcome']}\n  this checkout: {now['outcome']}")
            return 1
    print("equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
