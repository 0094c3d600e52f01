import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import phaseshift
from phaseshift import ConfigInvalid, cli
from phaseshift.cli import (MAX_POINTS, main, parse_config, render_csv, run,
                            serialize_config)
from phaseshift.series import assemble_corrections

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name):
    with open(CONFIG_DIR / name) as fh:
        return json.load(fh)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_selftest_passes(tmp_path):
    out = tmp_path / "selftest.csv"
    config = parse_config(load_config("selftest.json"))
    assert run(config, out_override=str(out)) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["check", "status"]
    assert len(rows) == 13  # 12 checks + summary
    assert all(status == "PASS" for _, status in rows[:-1])
    assert rows[-1] == ["summary", "passed=12 failed=0"]


def test_phases_zero_perturbation_gives_zero_columns(tmp_path):
    out = tmp_path / "phases.csv"
    config = parse_config({
        "command": "phases",
        "k": [0.5, 1.0],
        "max_order": 3,
        "grid": {"x_max": 2.0, "n_points": 2001},
        "V": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 0.3]]},
    })
    assert run(config, out_override=str(out)) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["k", "delta0", "delta_1", "delta_2", "delta_3",
                      "divergence_flag"]
    assert len(rows) == 2
    for row in rows:
        assert [float(c) for c in row[2:5]] == [0.0, 0.0, 0.0]
        assert row[5] == "0"
        assert float(row[1]) != 0.0  # background phase itself is not zero


def test_tabulated_background_nonzero_only_at_the_origin_is_solved(tmp_path):
    # V = 0.5 at node 0 only: its interpolant reaches x = step, so the
    # background is solved by RK4, not taken as the free wave (delta0 0)
    grid = phaseshift.Grid(2.0, 2001)
    samples = [0.5] + [0.0] * 2000
    path = tmp_path / "origin.json"
    path.write_text(json.dumps({
        "command": "phases", "k": 1.0, "max_order": 1,
        "grid": {"x_max": 2.0, "n_points": 2001},
        "V": {"kind": "tabulated", "samples": samples}}))
    out = tmp_path / "origin.csv"
    assert main(["phases", "--config", str(path), "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    want = phaseshift.solve_reference(
        phaseshift.PotentialSpec.tabulated(samples, grid), 1.0, grid).delta0
    assert -1e-10 < want < -5e-11  # -8.3e-11
    assert rows[0][header.index("delta0")] == "%.12g" % want


def test_degrees_flag_converts_only_angle_columns(tmp_path):
    config = parse_config({
        "command": "phases",
        "k": 1.0,
        "max_order": 2,
        "grid": {"x_max": 2.0, "n_points": 2001},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]},
    })
    rad_file = tmp_path / "rad.csv"
    deg_file = tmp_path / "deg.csv"
    assert run(config, out_override=str(rad_file)) == 0
    assert run(config, degrees=True, out_override=str(deg_file)) == 0
    _, rad_rows = parse_csv(rad_file.read_text())
    _, deg_rows = parse_csv(deg_file.read_text())
    rad, deg = rad_rows[0], deg_rows[0]
    assert deg[0] == rad[0]      # k untouched
    assert deg[-1] == rad[-1]    # divergence flag untouched
    scale = 180.0 / math.pi
    for rcell, dcell in zip(rad[1:4], deg[1:4]):
        # both cells carry 12 significant digits, so allow two roundings
        want = float(rcell) * scale
        assert abs(float(dcell) - want) <= 5e-12 * max(1.0, abs(want))


def test_sweep_remainders_drop_with_order(tmp_path):
    out = tmp_path / "sweep.csv"
    config = parse_config(load_config("sweep.json"))
    assert run(config, out_override=str(out)) == 0
    header, rows = parse_csv(out.read_text())
    i1 = header.index("remainder_1")
    i4 = header.index("remainder_4")
    iex = header.index("delta_exact")
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row[i4])) < abs(float(row[i1]))
        assert abs(float(row[iex])) > 0.0


def test_converge_report(tmp_path):
    out = tmp_path / "converge.csv"
    config = parse_config(load_config("converge.json"))
    assert run(config, out_override=str(out)) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["truncation", "p_hat", "status", "remainder_1",
                      "remainder_2"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    for n, row in enumerate(rows):
        assert row[2] == "PASS"
        assert abs(float(row[1]) - (n + 1)) < 0.1
        # the remainder at the smaller coupling is the smaller one
        assert abs(float(row[4])) < abs(float(row[3]))


def test_repeated_runs_are_byte_identical(tmp_path):
    config = parse_config(load_config("converge.json"))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(config, out_override=str(first)) == 0
    assert run(config, out_override=str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_serialize_parse_round_trip():
    for name in ("selftest.json", "phases.json", "sweep.json",
                 "converge.json"):
        doc = load_config(name)
        once = serialize_config(parse_config(doc))
        twice = serialize_config(parse_config(once))
        assert once == twice
        assert once["command"] == doc["command"]


def test_command_override_and_defaults():
    config = parse_config({
        "k": 1.0,
        "max_order": 2,
        "grid": {"x_max": 2.0, "n_points": 101},
    }, command="phases")
    assert config.command == "phases"
    assert config.couplings == (1.0,)  # divergence flag evaluation point
    assert config.V.support_hi == 0.0
    assert config.U.support_hi == 0.0
    assert config.output_path is None


BAD_DOCS = (
    ("root not an object", [1, 2, 3]),
    ("unknown top-level key", {"command": "selftest", "mystery": 1}),
    ("bad command name", {"command": "solve"}),
    # complete but for the command, so only the command's check refuses it
    ("bad command name, full job", {"command": "solve", "k": 1.0, "max_order": 1,
                                    "grid": {"x_max": 1.0, "n_points": 11}}),
    ("no command anywhere", {"k": 1.0}),
    ("phases without k", {"command": "phases", "max_order": 1,
                          "grid": {"x_max": 1.0, "n_points": 11}}),
    ("sweep without lambda", {"command": "sweep", "k": 1.0, "max_order": 1,
                              "grid": {"x_max": 1.0, "n_points": 11}}),
    ("converge with one lambda", {"command": "converge", "k": 1.0,
                                  "lambda": 0.1, "max_order": 1,
                                  "grid": {"x_max": 1.0, "n_points": 11}}),
    ("sweep with several k", {"command": "sweep", "k": [1.0, 2.0],
                              "lambda": 0.1, "max_order": 1,
                              "grid": {"x_max": 1.0, "n_points": 11}}),
    ("phases with several lambda", {"command": "phases", "k": 1.0,
                                    "lambda": [0.5, 2.0], "max_order": 1,
                                    "grid": {"x_max": 1.0, "n_points": 11}}),
    ("missing grid", {"command": "phases", "k": 1.0, "max_order": 1}),
    ("even n_points", {"command": "phases", "k": 1.0, "max_order": 1,
                       "grid": {"x_max": 1.0, "n_points": 10}}),
    ("fractional n_points", {"command": "phases", "k": 1.0, "max_order": 1,
                             "grid": {"x_max": 1.0, "n_points": 10.5}}),
    ("grid with wrong keys", {"command": "phases", "k": 1.0, "max_order": 1,
                              "grid": {"x_max": 1.0}}),
    ("max_order zero", {"command": "phases", "k": 1.0, "max_order": 0,
                        "grid": {"x_max": 1.0, "n_points": 11}}),
    ("max_order too big", {"command": "phases", "k": 1.0, "max_order": 21,
                           "grid": {"x_max": 1.0, "n_points": 11}}),
    ("boolean max_order", {"command": "phases", "k": 1.0, "max_order": True,
                           "grid": {"x_max": 1.0, "n_points": 11}}),
    ("boolean k", {"command": "phases", "k": True, "max_order": 1,
                   "grid": {"x_max": 1.0, "n_points": 11}}),
    ("negative k", {"command": "phases", "k": -1.0, "max_order": 1,
                    "grid": {"x_max": 1.0, "n_points": 11}}),
    ("unknown tolerance key", {"command": "selftest",
                               "tolerances": {"tol_phase": 1e-6}}),
    ("unknown potential kind", {"command": "phases", "k": 1.0, "max_order": 1,
                                "grid": {"x_max": 1.0, "n_points": 11},
                                "U": {"kind": "square_well"}}),
    ("potential not an object", {"command": "phases", "k": 1.0,
                                 "max_order": 1,
                                 "grid": {"x_max": 1.0, "n_points": 11},
                                 "V": 3}),
    ("tabulated without grid", {"command": "selftest",
                                "V": {"kind": "tabulated",
                                      "samples": [0.0, 1.0, 0.0]}}),
    ("support beyond x_max", {"command": "phases", "k": 1.0, "max_order": 1,
                              "grid": {"x_max": 1.0, "n_points": 11},
                              "U": {"kind": "piecewise_constant",
                                    "segments": [[0.0, 1.5, 1.0]]}}),
    ("non-string output_path", {"command": "selftest", "output_path": 7}),
    ("converge ladder that does not halve",
     {"command": "converge", "k": 1.0, "lambda": [0.1, 0.06], "max_order": 1,
      "grid": {"x_max": 1.0, "n_points": 11}}),
    ("converge ladder increasing", {"command": "converge", "k": 1.0,
                                    "lambda": [0.05, 0.1], "max_order": 1,
                                    "grid": {"x_max": 1.0, "n_points": 11}}),
    ("converge ladder not positive", {"command": "converge", "k": 1.0,
                                      "lambda": [0.1, -0.05], "max_order": 1,
                                      "grid": {"x_max": 1.0, "n_points": 11}}),
)


def test_invalid_configs_are_rejected():
    for label, doc in BAD_DOCS:
        with pytest.raises(ConfigInvalid):
            parse_config(doc)
        print(f"rejected: {label}")


def test_a_refused_potential_is_reported_with_its_reason():
    # the spec constructor's own reason reaches the message, under the key
    grid = {"x_max": 1.0, "n_points": 11}
    for key, sub, reason in (
            ("U", {"kind": "piecewise_constant", "segments": [[0.5, 0.25, 1.0]]},
             "bad segment bounds"),
            ("V", {"kind": "gaussian_sum", "bumps": [[0.5, 0.0, 1.0]]},
             "gaussian width"),
            ("U", {"kind": "tabulated", "samples": [0.0, 1.0]},
             "samples of shape")):
        doc = {"command": "phases", "k": 1.0, "max_order": 1, "grid": grid,
               key: sub}
        with pytest.raises(ConfigInvalid, match=f"^'{key}': {reason}"):
            parse_config(doc)


def test_converge_ladder_ending_in_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "zero_ladder.json"
    path.write_text(json.dumps({
        "command": "converge", "k": 1.0, "lambda": [0.2, 0.1, 0.0],
        "max_order": 1, "grid": {"x_max": 2.0, "n_points": 101},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]}}))
    assert main(["converge", "--config", str(path)]) == 2
    assert "positive" in capsys.readouterr().err


def test_command_mismatch_rejected():
    doc = load_config("sweep.json")
    with pytest.raises(ConfigInvalid):
        parse_config(doc, command="phases")


def test_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["phases", "--config", str(missing)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["phases", "--config", str(broken)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "command": "phases", "k": 1.0, "max_order": 0,
        "grid": {"x_max": 1.0, "n_points": 11},
    }))
    assert main(["phases", "--config", str(invalid)]) == 2

    # a barrier this strong cannot be certified on a 41-point grid
    guarded = tmp_path / "guarded.json"
    guarded.write_text(json.dumps({
        "command": "phases", "k": 1.0, "max_order": 1,
        "grid": {"x_max": 2.0, "n_points": 41},
        "V": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 50.0]]},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]},
    }))
    assert main(["phases", "--config", str(guarded)]) == 1
    assert "WronskianViolation" in capsys.readouterr().err

    # waves that overflow to NaN must fail the certificate, not crash
    overflow = {
        "sweep": {"lambda": [1e6],
                  "U": {"kind": "piecewise_constant",
                        "segments": [[0.0, 1.0, 1.0]]}},
        "phases": {"V": {"kind": "piecewise_constant",
                         "segments": [[0.0, 1.0, 1e6]]},
                   "U": {"kind": "piecewise_constant",
                         "segments": [[0.0, 1.0, 1.0]]}},
    }
    for command, extra in overflow.items():
        path = tmp_path / f"overflow_{command}.json"
        path.write_text(json.dumps({
            "command": command, "k": 1.0, "max_order": 1,
            "grid": {"x_max": 2.0, "n_points": 401}, **extra,
        }))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ComputationFailed: WronskianViolation" in err
        assert "Traceback" not in err

    # at order 20 the series overflows: a typed error, not a traceback
    series_overflow = tmp_path / "overflow_series.json"
    series_overflow.write_text(json.dumps({
        "command": "phases", "k": 1.0, "max_order": 20,
        "grid": {"x_max": 2.0, "n_points": 401},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1e40]]},
    }))
    assert main(["phases", "--config", str(series_overflow)]) == 1
    err = capsys.readouterr().err
    assert "ComputationFailed: NonFiniteResult" in err
    assert "Traceback" not in err

    # k x_max beyond the double range: the state at x_max is not finite
    barrier = {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]}
    for command in ("phases", "sweep"):
        path = tmp_path / f"huge_k_{command}.json"
        path.write_text(json.dumps({
            "command": command, "k": 1e308, "max_order": 1,
            "grid": {"x_max": 2.0, "n_points": 101}, "lambda": [0.1],
            "V": barrier, "U": barrier,
        }))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ComputationFailed: NonFiniteResult" in err
        assert "Traceback" not in err

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({
        "command": "phases", "k": 1.0, "max_order": 1,
        "grid": {"x_max": 2.0, "n_points": 201},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 0.2]]},
        "output_path": str(tmp_path / "ok.csv"),
    }))
    assert main(["phases", "--config", str(ok)]) == 0
    assert (tmp_path / "ok.csv").exists()


def _number_doc():
    # a valid phases job with a number at each place _NUMBER_PLACES names
    samples = [0.0] * 201
    samples[10] = 0.1
    return {
        "command": "phases", "k": 1.0, "lambda": 0.1, "max_order": 1,
        "grid": {"x_max": 2.0, "n_points": 201},
        "V": {"kind": "tabulated", "samples": samples},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]},
        "tolerances": {"eps_tail": 1e-12},
    }


_NUMBER_PLACES = {
    "k": ("k",),
    "x_max": ("grid", "x_max"),
    "segment value": ("U", "segments", 0, 2),
    "tabulated sample": ("V", "samples", 5),
    "lambda": ("lambda",),
    "eps_tail": ("tolerances", "eps_tail"),
}


def _assert_refused(tmp_path, capsys, places, tokens, doc=None):
    # put each token literally at each place: exit 2, ConfigInvalid, no traceback
    doc = _number_doc() if doc is None else doc
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["phases", "--config", str(path), "--out",
                 str(tmp_path / "ok.csv")]) == 0
    for place, (*parents, last) in places.items():
        for token in tokens:
            marked = json.loads(json.dumps(doc))
            target = marked
            for key in parents:
                target = target[key]
            target[last] = "@"
            path.write_text(json.dumps(marked).replace('"@"', token))
            assert main(["phases", "--config", str(path)]) == 2, (place, token)
            err = capsys.readouterr().err
            assert err.startswith("ConfigInvalid: "), (place, token, err)
            assert "Traceback" not in err


def test_non_finite_json_numbers_are_config_errors(tmp_path, capsys):
    # json.load accepts NaN and Infinity, and 1e999 parses to inf; each must
    # end in exit code 2 wherever it appears
    _assert_refused(tmp_path, capsys, _NUMBER_PLACES,
                    ("NaN", "Infinity", "-Infinity", "1e999", "-1e999"))


def test_non_numbers_and_nonpositive_extents_are_config_errors(tmp_path, capsys):
    # x_max and the tolerances must be positive numbers, and 'tolerances'
    # an object
    _assert_refused(tmp_path, capsys,
                    {"x_max": ("grid", "x_max"),
                     "tol_wronskian": ("tolerances", "tol_wronskian"),
                     "eps_tail": ("tolerances", "eps_tail")},
                    ('"2.0"', "null", "0", "-1.5"))
    _assert_refused(tmp_path, capsys, {"tolerances": ("tolerances",)},
                    ("[]", '"tight"', "1e-8"))


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # json.load recurses once per nesting level: past the interpreter's
    # recursion limit it raised RecursionError, a traceback with exit code 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["selftest", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalid: cannot read config: ")
    assert "Traceback" not in err


def test_parse_config_refuses_non_finite_numbers():
    # a document built in Python skips the JSON hooks in main, so
    # parse_config itself refuses NaN and the infinities
    phases = _number_doc()
    phases["k"] = [1.0, 1.5]
    phases["tolerances"]["tol_wronskian"] = 1e-8
    # phases takes a single lambda, sweep a single k
    sweep = dict(phases, command="sweep", k=1.0)
    sweep["lambda"] = [0.1, 0.2]
    cases = (
        (phases, {("k",): "k", ("k", 1): "k", ("lambda",): "lambda",
                  ("grid", "x_max"): "x_max",
                  ("tolerances", "tol_wronskian"): "tol_wronskian",
                  ("tolerances", "eps_tail"): "eps_tail"}),
        (sweep, {("lambda",): "lambda", ("lambda", 1): "lambda"}))
    for doc, places in cases:
        parse_config(doc)
        for (*parents, last), key in places.items():
            for bad in (math.nan, math.inf, -math.inf):
                marked = json.loads(json.dumps(doc))
                target = marked
                for name in parents:
                    target = target[name]
                target[last] = bad
                with pytest.raises(ConfigInvalid, match=f"'{key}' must be finite"):
                    parse_config(marked)


def test_huge_integers_are_config_errors(tmp_path, capsys):
    # JSON integers have no range: beyond the double range float() raised
    # OverflowError, and a huge odd n_points failed when the grid's arrays
    # were allocated.  Every value here is refused before any array exists.
    huge = "1" + "0" * 400
    _assert_refused(tmp_path, capsys, _NUMBER_PLACES, (huge, "-" + huge))
    doc = _number_doc()
    doc["V"] = {"kind": "gaussian_sum", "bumps": [[0.8, 0.1, 0.5]]}
    bumps = {f"bump {i}": ("V", "bumps", 0, i) for i in range(3)}
    _assert_refused(tmp_path, capsys, bumps, (huge, "-" + huge), doc=doc)
    n_points = {"n_points": ("grid", "n_points")}
    _assert_refused(tmp_path, capsys, n_points,
                    (str(MAX_POINTS + 2), "100000000001", huge))


def test_huge_couplings_flag_divergence_without_a_traceback(tmp_path, capsys):
    # coupling ** n overflowed in divergence_flag and ended in a traceback
    for coupling in (1e300, -1e300, 1e100):
        for u, flag in (({"kind": "piecewise_constant",
                          "segments": [[0.0, 1.0, 0.2]]}, "1"), (None, "0")):
            doc = {"command": "phases", "k": 1.0, "lambda": coupling,
                   "max_order": 4, "grid": {"x_max": 2.0, "n_points": 201}}
            if u is not None:
                doc["U"] = u
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(doc))
            assert main(["phases", "--config", str(path)]) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            header, rows = parse_csv(captured.out)
            assert header[-1] == "divergence_flag"
            assert rows[0][-1] == flag, coupling


# coupling ** n overflows to inf where a correction has underflowed to 0.0:
# the sweep printed nan cells (inf times 0.0), and converge ended in an
# OverflowError from the noise floor's coupling ** n, with U or without it
TINY_BARRIER = {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1e-300]]}
OVERFLOWING_TRUNCATIONS = {
    "sweep": ("sweep", [1e155, 1e100], 4, TINY_BARRIER),
    "converge": ("converge", [1e200, 5e199], 3, TINY_BARRIER),
    "converge without U": ("converge", [1e200, 5e199], 3, None),
}


@pytest.mark.parametrize("case", OVERFLOWING_TRUNCATIONS)
def test_overflowing_truncations_give_finite_cells_without_a_traceback(
        case, tmp_path, capsys):
    command, couplings, max_order, u = OVERFLOWING_TRUNCATIONS[case]
    doc = {"command": command, "k": 1.0, "lambda": couplings,
           "max_order": max_order, "grid": {"x_max": 2.0, "n_points": 101}}
    if u is not None:
        doc["U"] = u
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    header, rows = parse_csv(captured.out)
    if command == "converge":
        # the floor saturates to inf, so no remainder is measurable
        assert [row.pop(2) for row in rows] == ["INCONCLUSIVE"] * 4
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_converge_without_perturbation_is_inconclusive(tmp_path, capsys):
    # U omitted: every remainder sits below the noise floor, so the check is
    # vacuous, not an error
    doc = load_config("converge.json")
    del doc["U"]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header[:3] == ["truncation", "p_hat", "status"]
    assert [row[2] for row in rows] == ["INCONCLUSIVE"] * 3


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    # a missing directory or a directory as the file: exit 2, no traceback,
    # whether the path comes from --out or from output_path
    selftest = tmp_path / "selftest.json"
    selftest.write_text(json.dumps({"command": "selftest"}))
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["selftest", "--config", str(selftest),
                     "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: cannot write output: "), err
        assert "Traceback" not in err

        configured = tmp_path / "configured.json"
        configured.write_text(json.dumps({
            "command": "phases", "k": 1.0, "max_order": 1,
            "grid": {"x_max": 2.0, "n_points": 101},
            "output_path": str(bad)}))
        assert main(["phases", "--config", str(configured)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: cannot write output: "), err
        assert "Traceback" not in err


def test_extreme_gaussian_bumps_end_without_warnings(tmp_path, capsys):
    # Tier-1 turns a RuntimeWarning into an error, so running these in
    # process also proves that no warning leaks
    cases = (((1.0, 1e-300, 0.5), 2), ((1.0, 1e-160, 0.5), 0),
             ((1e300, 0.2, 0.5), 2), ((-1e300, 0.2, 0.5), 0))
    for bump, code in cases:
        path = tmp_path / "bump.json"
        path.write_text(json.dumps({
            "command": "phases", "k": 1.0, "max_order": 2,
            "grid": {"x_max": 2.0, "n_points": 201},
            "U": {"kind": "gaussian_sum", "bumps": [list(bump)]}}))
        assert main(["phases", "--config", str(path)]) == code, bump
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.err.startswith("ConfigInvalid: "), captured.err
        else:
            assert captured.out.startswith("k,delta0,delta_1,delta_2,")


def test_extreme_wavenumbers_and_extents_are_typed_errors(tmp_path, capsys):
    # k x or step/k beyond the double range gives NaN or inf: a typed error,
    # never a RuntimeWarning (which Tier-1 turns into a failure)
    barrier = {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 1.0]]}
    for command in ("phases", "sweep", "converge"):
        for k, x_max, code in ((5e-324, 2.0, 1), (1e-300, 1e300, 1),
                               (1e300, 1e300, 1), (sys.float_info.max, 2.0, 1),
                               (1.0, sys.float_info.max, 2)):
            path = tmp_path / "extreme.json"
            path.write_text(json.dumps({
                "command": command, "k": k,
                "lambda": [0.2] if command == "phases" else [0.2, 0.1],
                "max_order": 2, "grid": {"x_max": x_max, "n_points": 101},
                "U": barrier}))
            assert main([command, "--config", str(path)]) == code, (command, k)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith("ComputationFailed: " if code == 1
                                  else "ConfigInvalid: "), err


def test_missing_config_flag_is_a_usage_error(capsys):
    for _ in range(2):  # one parser serves every call
        with pytest.raises(SystemExit) as exc:
            main(["phases"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: the following arguments are required: --config" in err


def test_stdout_fallback(capsys):
    config = parse_config({
        "command": "phases",
        "k": 1.0,
        "max_order": 1,
        "grid": {"x_max": 2.0, "n_points": 201},
        "U": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, 0.2]]},
    })
    assert run(config) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,delta0,delta_1,divergence_flag\n")


def test_render_csv_formats():
    text = render_csv(["a", "delta_x"], [[1, 0.5], ["note", 1.25e-3]])
    assert text == "a,delta_x\n1,0.5\nnote,0.00125\n"


def test_console_script(tmp_path):
    # Runs the console-script entry point in a fresh process without needing
    # an install: `python -m phaseshift` calls the same `cli.main` that the
    # `phaseshift` script is mapped to, and PYTHONPATH puts the package this
    # test imported first (the child's working directory, which `-m` also
    # searches, is the empty tmp_path), so the child runs the very same code.
    pyproject = (CONFIG_DIR.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'phaseshift = "phaseshift.cli:main"' in scripts

    package_root = str(Path(phaseshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "phaseshift", "phases", "--config",
         str(CONFIG_DIR / "phases.json"), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    header, rows = parse_csv(out.read_text())
    assert header[:2] == ["k", "delta0"]
    assert len(rows) == 3

    # a fresh process reproduces the in-process bytes
    config = parse_config(load_config("phases.json"))
    out2 = tmp_path / "inproc.csv"
    assert run(config, out_override=str(out2)) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cli_module_refuses_to_run_as_script(tmp_path):
    # `python -m phaseshift` is the one module entry.  Run as a script,
    # `phaseshift.cli` must fail with exit code 2 and a pointer to it, not
    # exit 0 having written nothing.
    package_root = str(Path(phaseshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "phaseshift.cli", "selftest", "--config",
         str(CONFIG_DIR / "selftest.json"), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "run `python -m phaseshift`" in proc.stderr
    assert not out.exists()


def test_a_wrong_partition_coefficient_fails_selftest(tmp_path, monkeypatch):
    # the check must fail when any one coefficient is off: perturb that of
    # (3, 0, 0), which every other partition check ignores
    original = cli.enumerate_partitions

    def perturbed(n):
        return tuple(replace(t, coefficient=t.coefficient + 1e-3)
                     if t.multiplicities == (3, 0, 0) else t
                     for t in original(n))

    monkeypatch.setattr(cli, "enumerate_partitions", perturbed)
    assert cli._check_partition_coefficients() is False
    out = tmp_path / "selftest.csv"
    assert main(["selftest", "--config", str(CONFIG_DIR / "selftest.json"),
                 "--out", str(out)]) == 1
    _, rows = parse_csv(out.read_text())
    assert [name for name, status in rows if status == "FAIL"] == [
        "partition_coefficients"]


def _selftest_failures(tmp_path):
    # run the selftest config: it must exit 1; the checks that read FAIL
    out = tmp_path / "selftest.csv"
    assert main(["selftest", "--config", str(CONFIG_DIR / "selftest.json"),
                 "--out", str(out)]) == 1
    _, rows = parse_csv(out.read_text())
    return [name for name, status in rows if status == "FAIL"]


def test_a_selftest_check_that_raises_reads_fail(tmp_path, monkeypatch):
    def crashing(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "log_expansion_reference", crashing)
    assert _selftest_failures(tmp_path) == ["partition_vs_log_recurrence"]


def test_a_partition_sum_off_the_log_recurrence_fails_selftest(tmp_path,
                                                               monkeypatch):
    # one correction of the all-orders partition sum is off by 1e-9
    def perturbed(f, n):
        return [d + (1e-9 if order == 5 else 0.0)
                for order, d in enumerate(assemble_corrections(f, n), start=1)]

    monkeypatch.setattr(cli, "assemble_corrections", perturbed)
    assert cli._check_partition_vs_recurrence() is False
    assert _selftest_failures(tmp_path) == ["partition_vs_log_recurrence"]
