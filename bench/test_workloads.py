"""Tests of the benchmark's own generators and checks.

Run from the repository root:

    python3 -m pytest bench/test_workloads.py -q
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from phaseshift import cli  # noqa: E402
from phaseshift.potential import Grid  # noqa: E402

SEEDS = range(8)
PASSES = range(3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_job_is_accepted(workload):
    for seed in SEEDS:
        for pass_index in PASSES:
            docs = workloads.generate(workload, seed, pass_index)
            assert len(docs) == workloads.JOBS_PER_LIST
            for doc in docs:
                config = cli.parse_config(doc)  # raises ConfigInvalid on a refused job
                for spec in (config.V, config.U):
                    assert spec.support_hi < config.grid.x_max


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert workloads.generate(workload, 5, 2) == workloads.generate(workload, 5, 2)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


def _shape(doc):
    """What a slot keeps from pass to pass: command, sizes and counts."""
    return (doc["command"], tuple(doc["grid"].items()), doc["max_order"],
            len(doc.get("lambda", doc["k"] if isinstance(doc["k"], list) else [])),
            len(doc.get("V", {}).get("segments", [])),
            len(doc["U"].get("bumps", doc["U"].get("segments", []))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_is_new_inputs_of_the_same_shapes(workload):
    passes = [workloads.generate(workload, 3, p) for p in PASSES]
    for slot in range(workloads.JOBS_PER_LIST):
        docs = [jobs[slot] for jobs in passes]
        assert len({_shape(doc) for doc in docs}) == 1
        assert all(a != b for i, a in enumerate(docs) for b in docs[i + 1:])


def _edges(doc):
    for key in ("V", "U"):
        for lo, hi, _ in doc.get(key, {}).get("segments", []):
            yield doc["grid"], lo
            yield doc["grid"], hi


@pytest.mark.parametrize("workload", ("oracle_sweep", "background_scan"))
def test_segment_edges_are_grid_nodes(workload):
    grids = {}
    for seed in SEEDS:
        for doc in workloads.generate(workload, seed):
            for grid, x in _edges(doc):
                for n_points in (grid["n_points"], 4 * (grid["n_points"] - 1) + 1):
                    key = (grid["x_max"], n_points)
                    g = grids.setdefault(key, Grid(*key))
                    assert g.nodes[round(x / g.step)] == x


def test_oracle_sweep_interleave_and_window():
    for seed in SEEDS:
        docs = workloads.generate("oracle_sweep", seed)
        assert [d["command"] for d in docs[:4]] == ["sweep", "sweep", "sweep", "converge"]
        for doc in docs:
            if doc["command"] != "converge":
                continue
            big, small = doc["lambda"]
            assert big == 2.0 * small
            (_, width, height), = doc["U"]["segments"]
            assert big * abs(workloads.born_delta1_barrier(height, width, doc["k"])) < 0.1


def test_born_first_order_matches_the_unit_barrier_anchor():
    assert workloads.born_delta1_barrier(1.0, 1.0, 1.0) == pytest.approx(
        -(1.0 - math.sin(2.0) / 2.0), rel=1e-15)


def test_closed_form_phase_of_zero_potential_is_zero():
    assert checks.closed_form_phase([], 1.3, 2.0) == 0.0


def test_partition_count_and_magnitude_sum():
    assert [checks.partition_count(n) for n in range(1, 13)] == [
        1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert checks.partition_count(20) == 627
    # with every |f_p| = 1 the absolute partition sum of -log(1 - x/(1-x)) is (2^n - 1)/n
    assert checks.magnitude_sum([1.0] * 6, 6) == pytest.approx((2 ** 6 - 1) / 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_real_output_and_catch_a_wrong_digit(workload, tmp_path):
    job = workloads.prepare(workload, 0, tmp_path)[3]  # a converge job in oracle_sweep
    doc = job.doc
    assert cli.main(job.argv) == 0
    text = job.out_path.read_text()
    assert checks.check_output(doc, text) == []
    header, first, *rest = text.splitlines()
    column = {"sweep": "delta_exact", "converge": "remainder_1",
              "phases": "delta_1"}[doc["command"]]
    cells = first.split(",")
    i = header.split(",").index(column)
    cells[i] = repr(float(cells[i]) * (1 + 1e-6))
    broken = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert checks.check_output(doc, broken) != []
