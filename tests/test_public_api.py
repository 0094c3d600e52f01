import ast
import importlib
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import phaseshift


def test_every_exported_name_resolves():
    assert [n for n in phaseshift.__all__ if not hasattr(phaseshift, n)] == []
    namespace = {}
    exec("from phaseshift import *", namespace)
    assert set(phaseshift.__all__) <= set(namespace)


def test_import_loads_no_scipy():
    # importing scipy.linalg alone takes longer than a whole CLI set-up
    package_root = str(Path(phaseshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys, phaseshift; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "[]"


# The benchmark under bench/ reaches into the library by name: it imports
# functions and rebinds the traced ones listed in bench/spans.py TARGETS.
# These tests read bench/ as text, so a rename or a deletion in the library
# shows up here instead of as a broken benchmark run.
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_library_name_the_benchmark_imports_resolves():
    imported, missing = set(), []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "phaseshift"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.add((node.module, alias.name))
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert ("phaseshift.refwave", "integrate_wave_inward") in imported
    assert missing == []


def _traced_targets():
    """(module, function, parameters its span reads) of each TARGETS entry."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"])
    for entry in table.elts:
        module, function, _, keep = entry.elts
        read = set()
        if isinstance(keep, ast.Lambda):
            getter = keep.args.args[0].arg
            read = {call.args[0].value for call in ast.walk(keep.body)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == getter}
        yield module.value, function.value, read


def test_every_function_the_benchmark_traces_resolves():
    targets = list(_traced_targets())
    assert len(targets) >= 15
    missing = []
    for module, function, read in targets:
        original = getattr(importlib.import_module(f"phaseshift.{module}"),
                           function, None)
        if not callable(original):
            missing.append(f"{module}.{function}")
            continue
        parameters = inspect.signature(original).parameters
        missing += [f"{module}.{function}({name})" for name in sorted(read)
                    if name not in parameters]
    assert missing == []


def test_the_certificate_trace_point_sees_every_coupling(monkeypatch):
    # bench/spans.py times the certificate (refwave.certify_ms) and reads
    # its margin (refwave.cert_margin_max) by rebinding
    # refwave.wronskian_residual at module level.  A sweep must call it on
    # every coupling's own nodes, and its largest result is the largest
    # certified residual, or those metrics silently read 0 or wrong.
    from phaseshift import Grid, PotentialSpec, refwave, sweep_exact

    seen = []
    original = refwave.wronskian_residual

    def traced(k, psi, dpsi):
        result = original(k, psi, dpsi)
        seen.append((len(psi), result))
        return result

    monkeypatch.setattr(refwave, "wronskian_residual", traced)
    grid = Grid(2.0, 401)
    couplings = (0.4, 0.2, 0.1, 0.05)
    results = sweep_exact(PotentialSpec.zero(),
                          PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)]),
                          couplings, 1.0, grid)
    # U covers the bottom 100 cells: 7 blocks of 16 of each coupling's own
    # nodes, and the 289 nodes above them once
    assert [n for n, _ in seen].count(112) == len(couplings)
    assert sum(n for n, _ in seen) == len(couplings) * 112 + 289
    assert max(r for _, r in seen) == max(r.wronskian_residual for r in results)


# Only refwave decides how the chains of a scan are laid out: every other
# module asks it for waves and never names the layout, its node buffer or
# the uncertified scan.
LAYOUT_NAMES = {"ChainLayout", "_solve"}


def _names(path, definitions=True):
    """Every identifier `path` names: variables, attributes, imports and,
    unless `definitions` is false, the names that functions, classes and
    assignments define."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not definitions and (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                or isinstance(getattr(node, "ctx", None), ast.Store)):
            continue
        for field in ("id", "attr", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                names.add(value.split(".")[-1])
    return names


def test_only_refwave_names_the_chain_layout():
    package = Path(phaseshift.__file__).resolve().parent
    assert LAYOUT_NAMES <= _names(package / "refwave.py")
    leaks = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
             if path.name != "refwave.py"
             for name in sorted(_names(path) & LAYOUT_NAMES)]
    assert leaks == []


# Only series decides how the partition sum is laid out: partitions hands out
# the tuples and their coefficients, and no other module names the plan.
PLAN_NAMES = {"_partition_plan", "_PartitionPlan"}


def test_only_series_names_the_partition_plan():
    package = Path(phaseshift.__file__).resolve().parent
    assert PLAN_NAMES <= _names(package / "series.py")
    leaks = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
             if path.name != "series.py"
             for name in sorted(_names(path) & PLAN_NAMES)]
    assert leaks == []
    assert {"numpy", "np"} & _names(package / "partitions.py") == set()


# One owner for each decision on the way into an exact solve: only oracle
# picks the oracle's grid (oracle.sweep_series), and only refwave._top_state
# checks k.
def _raisers(path, error):
    """Names of the functions of `path` whose body raises `error`."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                exc = getattr(node, "exc", None)
                if isinstance(node, ast.Raise) and isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == error:
                    found.append(f"{path.stem}.{function.name}")
    return found


def test_one_owner_of_the_oracle_grid_and_of_the_k_check():
    package = Path(phaseshift.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert "ORACLE_REFINEMENT" in _names(package / "oracle.py")
    assert [path.name for path in modules if path.name != "oracle.py"
            and "ORACLE_REFINEMENT" in _names(path)] == []
    assert [name for path in modules
            for name in _raisers(path, "NonpositiveK")] == ["refwave._top_state"]


# A potential enters a certified solve as a spec, sampled into the thread's
# kept memory by refwave itself, and the sum V + c U has one formula,
# potential.combine_cells.
def test_specs_are_the_one_way_into_a_certified_solve():
    package = Path(phaseshift.__file__).resolve().parent
    assert "sample_potential" not in _names(package / "refwave.py")
    assert "combine_samples" not in phaseshift.__all__
    assert not hasattr(phaseshift.potential, "combine_samples")


# Samples have one format, the (3, cells) rows lower, mid and upper of
# potential.sample_cells, which sample_potential hands out read-only.  The
# hierarchy and the closed forms sample U through sample_potential by name,
# the function bench/spans.py traces as potential.sample.
def test_samples_are_one_read_only_array_of_three_rows(monkeypatch):
    from phaseshift import cross_check, hierarchy, potential
    assert "PotentialSamples" not in phaseshift.__all__
    assert not hasattr(potential, "PotentialSamples")
    grid = phaseshift.Grid(2.0, 11)
    specs = (phaseshift.PotentialSpec.piecewise_constant([(0.0, 0.5, 1.0)]),
             phaseshift.PotentialSpec.gaussian_sum([(0.7, 0.2, -0.4)]))
    for spec in specs:
        samples = potential.sample_potential(spec, grid)
        assert type(samples) is np.ndarray and samples.dtype == np.float64
        assert samples.shape == (3, grid.n_points - 1)
        assert not samples.flags.writeable
        assert samples.tobytes() == potential.sample_cells(spec, grid).tobytes()
    calls = []

    def recorded(*args):
        calls.append(args)
        return potential.sample_potential(*args)

    ref = phaseshift.analytic_free_reference(1.0, grid)
    for module in (hierarchy, cross_check):
        monkeypatch.setattr(module, "sample_potential", recorded)
    phaseshift.compute_hierarchy(ref, specs[0], 3)
    assert calls == [(specs[0], grid)]
    phaseshift.delta1_direct(ref, specs[1])
    assert calls[1:] == [(specs[1], grid)]


# Exported code that only tests call is code to delete, not to keep: each
# exported name is used outside its own definition by the library, the
# benchmark or the tools.  simpson_weights pins the odd-n_points rule every
# grid is checked against, and step_by_double_integral is the checker the
# hierarchy is verified against; both are read by tests alone on purpose.
CHECKERS = {"simpson_weights", "step_by_double_integral"}


def test_every_exported_name_is_used_outside_the_tests():
    package = Path(phaseshift.__file__).resolve().parent
    tools = BENCH.parent / "tools"
    paths = ([path for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"]
             + sorted(BENCH.glob("*.py")) + sorted(tools.glob("*.py")))
    assert len(paths) > 15
    used = set().union(*(_names(path, definitions=False) for path in paths))
    assert sorted(set(phaseshift.__all__) - used) == sorted(CHECKERS)


def test_the_config_serializer_is_gone():
    from phaseshift import cli
    assert "serialize_config" not in phaseshift.__all__
    assert not hasattr(cli, "serialize_config")
    assert not hasattr(cli, "_potential_doc")
    assert "eps_tail" not in {f.name for f in fields(cli.JobConfig)}


# Node arrays have one format, the bare read-only complex arrays a
# ReferenceWave holds on its own grid, and results store each value once:
# no grid-function wrapper, no unread psi', no order stored beside the
# corrections it counts.
def test_node_arrays_have_one_format():
    package = Path(phaseshift.__file__).resolve().parent
    for name in ("ComplexGridFunction", "require_same_grid"):
        assert name not in phaseshift.__all__
        assert not hasattr(phaseshift, name)
        assert [path.name for path in sorted(package.glob("*.py"))
                if name in _names(path)] == []
    assert [f.name for f in fields(phaseshift.ReferenceWave)] == [
        "k", "grid", "psi", "density", "ratio_shift", "delta0",
        "wronskian_residual"]
    assert [f.name for f in fields(phaseshift.PhaseSeries)] == [
        "k", "grid", "delta0", "corrections"]
