"""Mutation probe of one module of ``src/phaseshift``, stdlib only.

Finds the mutation sites of the module with ``ast``:

* a comparison operator (``<`` to ``<=``, ``==`` to ``!=``, ``in`` to
  ``not in``, ...);
* an arithmetic operator, also in ``x op= y`` (``+`` to ``-``, ``*`` to
  ``/``, ``**`` to ``*``, ...);
* the operators of an ``and`` / ``or`` chain, all swapped at once;
* a ``not``, dropped;
* a ``raise`` statement, replaced by ``pass``.

It draws a seeded sample of those sites and, one mutant at a time, writes
the mutated module into a temporary copy of the repository and runs tests
there with a timeout.  The working tree is never written.  A mutant is
killed when its set of failing tests differs from that of the unmutated
copy (so a test that already fails needs no deselection), when the run
times out, or when pytest writes no report because the tests cannot even
be collected; otherwise it survives.  Each operator is rewritten in the
source text itself, so comments, layout and line numbers stay as they are.

Each mutant first runs the module's own test files (``tests/test_<module>.py``
and ``tests/test_<module>_*.py``), under a short timeout taken from their
unmutated run time, so a mutant that makes a loop endless is killed in
seconds.  Only a mutant that survives its own tests gets the full tier-1
run, under ``--timeout``.  A mutant that fails its own tests fails them in
tier-1 too, which holds them, so it gets the verdict tier-1 would give; one
that runs past the short timeout is killed as a timeout, as tier-1 kills an
endless loop.

Usage, from anywhere:

    python tools/mutate.py hierarchy                  # 10 sites, seed 0
    python tools/mutate.py src/phaseshift/oracle.py --sample 0  # every site

Prints one line per mutant, with the tests whose outcome it changed, and
the score.  A mutant's run stops at its first failure beyond the unmutated
run's count, since its set already differs then.  Exit code 0 unless the
unmutated copy's test run itself times out; if it writes no report, the
probe stops with :class:`NoReport`.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaseshift"
OPTIONS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIER1 = [*OPTIONS, "tests"]
# what the copy leaves out: version control, caches, build and bench output
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".benchmarks", ".bench_work",
                              ".bench_out", "build", "*.egg-info")

SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "is": "is not", "is not": "is", "in": "not in", "not in": "in",
    "+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "%": "//",
    "**": "*", "@": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
    "**=": "*=", "//=": "/=", "%=": "//=",
    "and": "or", "or": "and",
}


@dataclass(frozen=True)
class Site:
    """One mutation: replace each byte span in `spans` by `new`."""

    line: int
    col: int
    kind: str
    old: str
    new: str
    spans: tuple  # ((start, stop), ...) byte offsets into the source

    def label(self) -> str:
        return (f"{self.line}:{self.col}: {self.kind} "
                f"{self.old!r} -> {self.new!r}")


class _Source:
    """A module's bytes, and the byte offset of an ast (line, column)."""

    def __init__(self, data: bytes):
        self.data = data
        self.starts = [0]
        for line in data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col

    def column(self, offset: int) -> tuple:
        """(line, column) of a byte offset, both counted from 1."""
        line = next(i for i, s in enumerate(self.starts) if s > offset)
        return line, offset - self.starts[line - 1] + 1

    def start(self, node) -> int:
        return self.offset(node.lineno, node.col_offset)

    def end(self, node) -> int:
        return self.offset(node.end_lineno, node.end_col_offset)

    def operator(self, lo: int, hi: int) -> tuple:
        """(text, start, stop) of the operator between two operands: the
        tokens of bytes lo..hi that are neither brackets nor comments."""
        found = []
        text = self.data[lo:hi].decode()
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if ((tok.type == tokenize.OP and tok.string not in "()[]{}")
                        or tok.string in ("not", "in", "is", "and", "or")):
                    found.append(tok)
        except tokenize.TokenError:
            pass  # an unclosed bracket at the end of the slice
        if not found:
            raise ValueError(f"no operator in {text!r}")
        lines = text.splitlines(keepends=True)

        def at(row, col):
            return lo + len("".join(lines[:row - 1]).encode()) + len(
                lines[row - 1][:col].encode())

        return (" ".join(t.string for t in found), at(*found[0].start),
                at(*found[-1].end))


def sites(path: Path) -> list:
    """Every mutation site of the module at `path`, in source order."""
    src = _Source(path.read_bytes())
    found = []

    def add(kind, old, new, spans):
        found.append(Site(*src.column(spans[0][0]), kind, old, new,
                          tuple(spans)))

    def swap(kind, pairs):
        spans, old = [], None
        for left, right in pairs:
            old, lo, hi = src.operator(src.end(left), src.start(right))
            spans.append((lo, hi))
        if old in SWAPS:
            add(kind, old, SWAPS[old], spans)

    for node in ast.walk(ast.parse(src.data, str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for pair in zip(operands, operands[1:]):
                swap("compare", [pair])
        elif isinstance(node, ast.BinOp):
            swap("arithmetic", [(node.left, node.right)])
        elif isinstance(node, ast.AugAssign):
            swap("arithmetic", [(node.target, node.value)])
        elif isinstance(node, ast.BoolOp):
            swap("boolean", list(zip(node.values, node.values[1:])))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            add("not", "not", "", [(src.start(node), src.start(node) + 3)])
        elif isinstance(node, ast.Raise):
            add("raise", "raise", "pass", [(src.start(node), src.end(node))])
    return sorted(found, key=lambda s: s.spans)


def mutated(data: bytes, site: Site) -> bytes:
    new = site.new.encode()
    for lo, hi in sorted(site.spans, reverse=True):
        data = data[:lo] + new + data[hi:]
    return data


class NoReport(RuntimeError):
    """pytest ended without writing its report, as it does when the tests
    cannot even be collected; `code` is its exit code."""

    def __init__(self, code: int):
        super().__init__(f"pytest wrote no report (exit {code})")
        self.code = code


def own_tests(module: Path) -> list:
    """The test files of the module at `module`, relative to the root."""
    tests = ROOT / "tests"
    found = [tests / f"test_{module.stem}.py",
             *sorted(tests.glob(f"test_{module.stem}_*.py"))]
    return [str(path.relative_to(ROOT)) for path in found if path.is_file()]


def failing_tests(copy: Path, timeout: float, maxfail: int = 0,
                  tests: list = TIER1) -> set | None:
    """Ids of the tests that fail or error in `copy`, the run of the pytest
    arguments `tests` stopping after `maxfail` of them (0: never); None on
    a timeout.  Raises :class:`NoReport` when pytest writes no report."""
    report = copy / ".mutate-report.xml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p),
        PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", *tests, f"--junitxml={report}",
         f"--maxfail={maxfail}"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:  # also on an interrupt: the tests run in their own session
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not report.exists():
        raise NoReport(proc.returncode)
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    report.unlink()
    return failed


def mutant_verdict(copy: Path, runs: list) -> str:
    """How the mutant in `copy` fares in `runs`, a list of (pytest
    arguments, timeout, the unmutated run's failing tests), run in turn
    until one kills it."""
    for tests, timeout, baseline in runs:
        try:
            # one failure more than the unmutated run already differs
            failed = failing_tests(copy, timeout, len(baseline) + 1, tests)
        except NoReport as error:
            # the tests could not start, e.g. conftest could not import the package
            return f"killed (no report, exit {error.code})"
        if failed is None:
            return "killed (timeout)"
        if failed != baseline:
            return "killed (" + ", ".join(sorted(failed ^ baseline)) + ")"
    return "SURVIVED"


def module_path(name: str) -> Path:
    path = Path(name)
    if not path.suffix:
        path = PACKAGE / f"{name}.py"
    return path.resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module name of src/phaseshift, "
                        "or the path of its file")
    parser.add_argument("--sample", type=int, default=10,
                        help="number of sites to mutate; 0 for every site")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds for one tier-1 run")
    args = parser.parse_args(argv)

    path = module_path(args.module)
    every = sites(path)
    chosen = every
    if 0 < args.sample < len(every):
        chosen = sorted(random.Random(args.seed).sample(every, args.sample),
                        key=lambda s: s.spans)
    rel = path.relative_to(ROOT)
    print(f"{rel}: {len(chosen)} of {len(every)} sites, seed {args.seed}")
    # a SIGTERM unwinds like Ctrl-C, so the copy and the tests go with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / rel
        original = target.read_bytes()
        runs = []
        own = own_tests(path)
        for name, tests in ([(" ".join(own), [*OPTIONS, *own])] if own else []) + [
                ("tier-1", TIER1)]:
            started = time.monotonic()
            baseline = failing_tests(copy, args.timeout, tests=tests)
            if baseline is None:
                print("the unmutated tests time out; raise --timeout")
                return 1
            elapsed = time.monotonic() - started
            # the own tests' short timeout, with slack for a loaded machine
            timeout = args.timeout if tests is TIER1 else min(args.timeout,
                                                              3 * elapsed + 10)
            runs.append((tests, timeout, baseline))
            print(f"unmutated {name}: {len(baseline)} failing, {elapsed:.0f} s")
        killed = 0
        for site in chosen:
            target.write_bytes(mutated(original, site))
            try:
                verdict = mutant_verdict(copy, runs)
            finally:
                target.write_bytes(original)
            killed += verdict != "SURVIVED"
            print(f"  {rel}:{site.label()}: {verdict}", flush=True)
    print(f"{rel}: {killed} of {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
