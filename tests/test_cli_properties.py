"""Property test: any JSON job document ends in exit code 0, 1 or 2.

Each document is written to disk as JSON text and run through ``cli.main``
in process, so a raw exception fails the test, and Tier-1's
``error::RuntimeWarning`` turns a leaked numpy warning into a failure too.
Documents mix well-formed jobs with the tokens ``NaN`` and ``Infinity``,
wrong types, missing and unknown keys, unknown potential kinds, extreme and
huge numbers, truncated text and output paths that cannot be written.

Examples are drawn from a fixed seed (``derandomize``) and nothing is kept
between runs, so every run checks the same documents.  Grids have at most
401 points.  The module is skipped where hypothesis is not installed; the
rest of the suite needs only pytest.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift.cli import COMMANDS, main  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))

#: numbers that can land in any numeric place of a document
EXTREME = st.sampled_from([
    0.0, -0.0, 5e-324, -1e-300, 1e-300, 1e-160, 1e300, -1e300,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
    10 ** 400, -10 ** 400, 2 ** 64, -1, 0, 7,
])

#: replacements that change a value's type or a potential's kind; the
#: containers are new objects, since a later fault may edit inside them
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.builds(list), st.builds(dict), st.builds(lambda: [1.0, "x"]),
                 st.sampled_from(("square_well", "tabulated", "gaussian_sum",
                                  "piecewise_constant", "selftest")))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _potential(draw, x_max, n_points):
    """A potential document whose support stays inside [0, x_max)."""
    kind = draw(st.sampled_from(
        ("piecewise_constant", "gaussian_sum", "tabulated")))
    if kind == "piecewise_constant":
        cuts = sorted(draw(st.sets(_finite(0.0, 0.9 * x_max), max_size=4)))
        edges = cuts[:len(cuts) // 2 * 2]
        return {"kind": kind, "segments": [
            [lo, hi, draw(_finite(-3.0, 3.0))]
            for lo, hi in zip(edges[::2], edges[1::2])]}
    if kind == "gaussian_sum":
        # a bump reaches at most 8.1 widths past its centre at the default
        # tail tolerance, so it ends before 0.91 x_max
        return {"kind": kind, "bumps": draw(st.lists(st.tuples(
            _finite(0.0, 0.5 * x_max), _finite(0.01, 0.05 * x_max),
            _finite(-2.0, 2.0)).map(list), max_size=2))}
    # a few drawn entries; the last node stays zero
    samples = [0.0] * n_points
    for index, value in draw(st.lists(st.tuples(
            st.integers(0, n_points - 2), _finite(-2.0, 2.0)), max_size=3)):
        samples[index] = value
    return {"kind": kind, "samples": samples}


@st.composite
def _valid_document(draw, command):
    if command == "selftest":
        return {"command": command}
    x_max = draw(_finite(1.0, 5.0))
    n_points = 2 * draw(st.integers(1, 200)) + 1
    ladder = (0.2, 0.1, 0.05) if command == "converge" else (0.4, 0.1)
    doc = {
        "command": command,
        "k": draw(st.one_of(_finite(0.2, 3.0),
                            st.lists(_finite(0.2, 3.0), min_size=1,
                                     max_size=1 if command != "phases" else 3))),
        "lambda": list(ladder[:1 if command == "phases"
                              else draw(st.integers(2, len(ladder)))]),
        "max_order": draw(st.integers(1, 20)),
        "grid": {"x_max": x_max, "n_points": n_points},
    }
    for key in ("V", "U"):
        if draw(st.booleans()):
            doc[key] = draw(_potential(x_max, n_points))
    if draw(st.booleans()):
        doc["tolerances"] = {"tol_wronskian": draw(_finite(1e-10, 1e-6)),
                             "eps_tail": draw(_finite(1e-14, 1e-8))}
    return doc


def _places(value, prefix=()):
    """The key or index path of every entry inside `value`."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    places = []
    for key, item in items:
        places.append(prefix + (key,))
        places += _places(item, prefix + (key,))
    return places


@st.composite
def job_documents(draw):
    """(command, document, --out choice, output_path choice, truncate, flags).

    A valid job for the command, then up to three faults: an entry replaced
    by an extreme number or a wrong type, an entry deleted, an unknown key.
    """
    command = draw(st.sampled_from(COMMANDS))
    doc = draw(_valid_document(command))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))):
        fault = draw(st.sampled_from(("extreme", "junk", "delete", "unknown")))
        places = _places(doc)
        if fault == "unknown" or not places:
            doc[draw(st.sampled_from(("mystery", "lambda", "grid", "V")))] = 1
            continue
        *parents, last = draw(st.sampled_from(places))
        target = doc
        for key in parents:
            target = target[key]
        if fault == "delete":
            del target[last]
        else:
            target[last] = draw(EXTREME if fault == "extreme" else JUNK)
    if draw(st.integers(0, 19)) == 7:
        doc = draw(st.sampled_from((3, "job", None)) | st.builds(list))
    writable = ("file", "missing directory", "directory")
    out = draw(st.sampled_from((None, None, "file") + writable))
    output_path = draw(st.sampled_from((None, None, "file") + writable))
    truncate = draw(st.integers(0, 19)) == 7
    flags = ["--degrees"] if draw(st.booleans()) else []
    return command, doc, out, output_path, truncate, flags


def _path(tmp, choice):
    return {"file": tmp / "out.csv", "missing directory": tmp / "no" / "x.csv",
            "directory": tmp}[choice]


@PROPERTY_SETTINGS
@given(case=job_documents())
def test_any_document_ends_in_an_exit_code_without_a_traceback(case):
    command, doc, out, output_path, truncate, flags = case
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        if output_path is not None and isinstance(doc, dict):
            doc["output_path"] = str(_path(tmp, output_path))
        text = json.dumps(doc)  # writes NaN and Infinity as bare tokens
        if truncate:
            text = text[:len(text) // 2]
        config = tmp / "job.json"
        config.write_text(text)
        argv = [command, "--config", str(config), *flags]
        if out is not None:
            argv += ["--out", str(_path(tmp, out))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("ConfigInvalid: "), err
    elif code == 1:
        # a tripped guard, or a selftest whose FAIL rows are in the CSV
        assert err.startswith("ComputationFailed: ") or not err, err
    else:
        assert not err, err
