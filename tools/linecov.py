"""Statement coverage of ``src/phaseshift`` under the tests, stdlib only.

Runs pytest in this process under a ``sys.settrace`` tracer that records the
lines executed in the package's own files, then prints each statement no
test executed, as ``path:line`` and the statement's first line, and a count
per module.  A simple statement counts as executed when a line event fired
on any of its lines; a compound one (``if``, ``for``, ``with``, ``def``...)
when one fired on its header.  Docstrings and ``try`` hold no code of their
own and are not counted.  Code that runs only in a child process, such as
``python -m phaseshift``, counts as missed.

Usage, from anywhere:

    python tools/linecov.py [pytest arguments]

The pytest arguments default to the tier-1 run of ``tests``.  The exit code
is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phaseshift"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "tests"]


def statements(path: Path) -> dict:
    """{first line: the lines whose execution counts for it} of each
    statement of `path`."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    found = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, ast.Try)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = set(range(first, max(last, node.lineno) + 1))
    return found


def trace(argv: list) -> tuple[int, dict]:
    """Run pytest with `argv`; (exit code, {path: executed lines})."""
    hits = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    files: dict = {}  # co_filename -> its set in `hits`, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = hits.get(os.path.realpath(name))
        lines = files[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    code, hits = trace(list(sys.argv[1:] if argv is None else argv) or TIER1)
    total = missed = 0
    report = []
    for name, executed in hits.items():
        path = Path(name)
        source = path.read_text().splitlines()
        found = statements(path)
        gaps = sorted(line for line, lines in found.items()
                      if not lines & executed)
        total += len(found)
        missed += len(gaps)
        rel = path.relative_to(ROOT)
        report.append(f"{rel}: {len(found)} statements, {len(gaps)} missed")
        report += [f"  {rel}:{line}  {source[line - 1].strip()}" for line in gaps]
    print("\n".join(["", "statements no test executes:", *report,
                     f"total: {total} statements, {missed} missed"]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
