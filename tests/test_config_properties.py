"""Property test: serialize_config and parse_config invert each other.

Examples are drawn from a fixed seed (``derandomize``) and nothing is kept
between runs, so every run checks the same documents.  Grids stay small
(at most 101 points) and no job is run.  The module is skipped where
hypothesis is not installed; the rest of the suite needs only pytest.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift.cli import COMMANDS, parse_config, serialize_config  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _potential(draw, x_max, n_points):
    """A potential document whose support stays inside [0, x_max]."""
    kind = draw(st.sampled_from(
        ("none", "piecewise_constant", "gaussian_sum", "tabulated")))
    if kind == "none":
        return None
    if kind == "piecewise_constant":
        cuts = sorted(draw(st.sets(_finite(0.0, x_max), max_size=6)))
        edges = cuts[:len(cuts) // 2 * 2]
        return {"kind": kind, "segments": [
            [lo, hi, draw(_finite(-5.0, 5.0))]
            for lo, hi in zip(edges[::2], edges[1::2])]}
    if kind == "gaussian_sum":
        # a bump reaches at most 8.1 widths past its centre for the tail
        # tolerances drawn below, so it ends before 0.91 x_max
        return {"kind": kind, "bumps": draw(st.lists(st.tuples(
            _finite(0.0, 0.5 * x_max), _finite(0.01, 0.05 * x_max),
            _finite(-2.0, 2.0)).map(list), max_size=3))}
    return {"kind": kind, "samples": draw(st.lists(
        _finite(-3.0, 3.0), min_size=n_points, max_size=n_points))}


@st.composite
def job_documents(draw):
    command = draw(st.sampled_from(COMMANDS))
    doc = {"command": command}
    if command == "selftest":
        return doc
    x_max = draw(_finite(0.5, 10.0))
    n_points = 2 * draw(st.integers(1, 50)) + 1
    doc["grid"] = {"x_max": x_max, "n_points": n_points}
    doc["max_order"] = draw(st.integers(1, 20))
    single = command in ("sweep", "converge")
    ks = draw(st.lists(_finite(1e-3, 1e3), min_size=1,
                       max_size=1 if single else 4))
    doc["k"] = ks[0] if len(ks) == 1 and draw(st.booleans()) else ks
    if command == "converge":
        top = draw(_finite(1e-3, 1.0))
        doc["lambda"] = [top / 2 ** j for j in range(draw(st.integers(2, 4)))]
    elif command == "sweep" or draw(st.booleans()):
        doc["lambda"] = draw(st.lists(_finite(-1.0, 1.0), min_size=1,
                                      max_size=1 if command == "phases" else 4))
    tolerances = {}
    if draw(st.booleans()):
        tolerances["tol_wronskian"] = draw(_finite(1e-12, 1e-2))
    if draw(st.booleans()):
        tolerances["eps_tail"] = draw(_finite(1e-14, 1e-6))
    if tolerances:
        doc["tolerances"] = tolerances
    for name in ("V", "U"):
        potential = draw(_potential(x_max, n_points))
        if potential is not None:
            doc[name] = potential
    if draw(st.booleans()):
        doc["output_path"] = draw(st.text(max_size=12))
    return doc


def _same_potential(a, b):
    return (a.kind == b.kind and a.segments == b.segments
            and a.bumps == b.bumps and a.support_hi == b.support_hi
            and a.eps_tail == b.eps_tail and a.declared_grid == b.declared_grid
            and (a.samples is None) == (b.samples is None)
            and (a.samples is None or np.array_equal(a.samples, b.samples)))


@PROPERTY_SETTINGS
@given(job_documents())
def test_serialized_config_parses_back_to_the_same_config(doc):
    config = parse_config(doc)
    serialized = serialize_config(config)
    # through JSON text, as a config file would carry it
    again = parse_config(json.loads(json.dumps(serialized)))
    assert serialize_config(again) == serialized
    for field in ("command", "k_values", "couplings", "max_order", "grid",
                  "output_path", "tol_wronskian", "eps_tail"):
        assert getattr(again, field) == getattr(config, field)
    assert _same_potential(again.V, config.V)
    assert _same_potential(again.U, config.U)
