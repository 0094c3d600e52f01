"""Benchmark of the phaseshift pipeline through its real CLI path.

Run from the repository root:

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job is ``phaseshift.cli.main``
called in-process on a generated config with ``--out`` to a CSV file, and the
next job starts when the previous one returns.  The jobs come from the seed
(see ``workloads.py``) in passes of ``JOBS_PER_LIST`` slots, every pass a new
set of inputs; the loop runs passes for ``--seconds`` and at least
``MIN_PASSES`` passes, and a slot's time is the best over the passes.  The
outputs of every pass are checked (see ``checks.py``) in a child process,
every ``CHECK_EVERY`` passes and at the end, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
twice, untraced and traced in alternating order, and prints the per-layer
metrics of the traced runs (see ``spans.py``) with the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed and 1 otherwise; 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: every slot runs at least this many times; its time is the best of them
MIN_PASSES = 5
#: nearest rank 8 of the JOBS_PER_LIST = 8 slot times, the largest; each slot
#: time is the best of about a hundred runs, so one slow run cannot set it.
#: On oracle_sweep it falls on a converge slot
TAIL_PERCENTILE = 90
#: passes whose outputs one child process checks at a time
CHECK_EVERY = 16
#: traced mode runs at least this many untraced/traced pairs
MIN_PAIRS = 8
#: fresh set-up processes measured per run, spread over the timed loop
#: (after one unmeasured warm-up)
SETUP_PROBES = 12
#: the layers each workload was chosen to exercise; the traced run fails
#: when one of them recorded no spans
CHOSEN_LAYERS = {
    "oracle_sweep": ("refwave", "oracle", "potential"),
    "high_order_series": ("partitions", "series", "hierarchy", "potential"),
    "background_scan": ("refwave", "hierarchy", "potential", "series"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and parse the first pass, run its "
                             "first job, then exit (the process whose wall time is "
                             "setup_s)")
    parser.add_argument("--check-pass", type=Path, nargs="+", metavar="DIR",
                        help="check the outputs in these pass directories and "
                             "print the results as a JSON list")
    return parser.parse_args(argv)


def _import_program():
    """Import phaseshift from this checkout's src/, never from elsewhere."""
    if not (SRC / "phaseshift" / "__init__.py").is_file():
        raise ImportError(f"no phaseshift package under {SRC}")
    sys.path.insert(0, str(SRC))
    import phaseshift
    if Path(phaseshift.__file__).resolve().parent != SRC / "phaseshift":
        raise ImportError(f"phaseshift imported from {phaseshift.__file__}, not {SRC}")


def _workdir(workload: str, seed: int) -> Path:
    path = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_baselines() -> dict:
    """The two fixed kernels the project's roadmap quotes as its baselines."""
    import numpy as np
    from phaseshift.potential import Grid, PotentialSpec, sample_potential
    from phaseshift.refwave import integrate_wave_inward
    from phaseshift.series import assemble_delta_n

    grid = Grid(2.0, 16001)
    samples = sample_potential(PotentialSpec.piecewise_constant([(0.0, 1.0, 1.0)]), grid)
    rk4 = _median_time(lambda: integrate_wave_inward(1.0, grid, samples))
    rng = np.random.default_rng(0)
    values = [complex(a, b) for a, b in rng.uniform(-1, 1, size=(20, 2))]
    assemble = _median_time(lambda: [assemble_delta_n(values, n) for n in range(1, 21)])
    return {"baseline.rk4_ns_per_cell": (1e9 * rk4 / (grid.n_points - 1), "ns"),
            "baseline.assemble_1_20_ms": (1e3 * assemble, "ms")}


class SetupProbe:
    """Times fresh processes that set up a run and do its first job.

    Each process imports the program, generates, writes and parses the first
    pass, and runs its first job through ``cli.main``.  Work the program
    defers to its first call, such as a table filled lazily, so lands in
    setup_s, as it does in every run of the real CLI.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.times = []
        self.run()  # warm-up: also compiles bytecode; not measured
        self.times.clear()

    def run(self) -> float:
        t0 = time.perf_counter()
        done = subprocess.run(self.argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError("set-up process failed: " + done.stderr.decode()[-2000:])
        self.times.append(elapsed)
        return elapsed


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


class Runner:
    """Makes the passes, runs jobs through cli.main and books their results."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from phaseshift import cli
        self.cli = cli
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.passes = []  # the directory of every pass made so far
        self.checked = 0  # passes[:checked] have been checked
        self.runs = []    # (pass, slot, ok) per counted run
        self.bad = set()  # (pass, slot) whose output check failed
        self.converge_fail_rows = 0
        self.errors = []

    def make_pass(self, index: int) -> list:
        """Generate, write and parse the jobs of pass `index` (not timed)."""
        import workloads
        path = self.workdir / f"pass{index:03d}"
        self.passes.append(path)
        return workloads.prepare(self.workload, self.seed, path, index)

    def call(self, job) -> int:
        try:
            return self.cli.main(job.argv)
        except Exception:  # a raw traceback is a program failure, not a crash of the benchmark
            self.errors.append(f"{_name(job)}: uncaught exception\n{traceback.format_exc()}")
            return -1

    def record(self, job, code: int, expect: bytes | None = None) -> bytes | None:
        """Book one run: its exit code and, given `expect`, whether its CSV repeats it.

        Returns the CSV bytes when the run succeeded.
        """
        data = job.out_path.read_bytes() if code == 0 and job.out_path.is_file() else None
        if data is None:
            self.errors.append(f"{_name(job)}: exit code {code}"
                               + ("" if code else ", but no CSV written"))
        elif expect is not None and data != expect:
            self.errors.append(f"{_name(job)}: CSV bytes differ from an earlier "
                               "run of the same input")
            data = None
        self.runs.append((job.pass_index, job.slot, data is not None))
        return data

    def check_pending(self) -> None:
        """Check the outputs of the passes not yet checked, in one child process.

        Not timed.  The child keeps the checks' memory out of this process's
        peak RSS.  The converge rows are counted on the first pass only, so
        that the count does not grow with the number of passes a run manages.
        """
        first, last = self.checked, len(self.passes)
        if first == last:
            return
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload,
             "--seed", str(self.seed), "--check-pass",
             *(str(path) for path in self.passes[first:last])],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"checking passes {first}-{last - 1} failed: "
                               f"{done.stderr[-2000:]}")
        for index, result in enumerate(json.loads(done.stdout), start=first):
            self.bad.update((index, slot) for slot in result["bad"])
            self.errors.extend(f"pass {index} {error}" for error in result["errors"])
            if index == 0:
                self.converge_fail_rows = result["converge_fail_rows"]
        self.checked = last

    def failed(self) -> int:
        return sum((not ok) or (p, s) in self.bad for p, s, ok in self.runs)


def _name(job) -> str:
    return f"pass {job.pass_index} slot {job.slot}"


def run_untraced(runner: Runner, first: list, repeat: bytes | None,
                 seconds: float, probe: SetupProbe) -> dict:
    """The measured loop: timed jobs, with the untimed work between them.

    Runs pass after pass for `seconds` and at least MIN_PASSES passes.
    Making and checking passes and the set-up probes run between jobs and
    are not timed.  A slot's time is the best over the passes: every pass
    draws new physics values into the same shapes and sizes, so a slot does
    the same work in each, while other tenants of a shared machine slow a
    varying share of the runs.  Percentiles and throughput are taken over
    the slot times.  The timed run of the first job is compared byte for
    byte with `repeat`, the CSV of its untimed warm-up run.
    """
    best = [math.inf] * len(first)
    busy = 0.0
    jobs, index = first, 0
    t_start = time.perf_counter()
    while True:
        for job in jobs:
            due = len(probe.times) * seconds / SETUP_PROBES
            if len(probe.times) < SETUP_PROBES and time.perf_counter() - t_start >= due:
                probe.run()
            t0 = time.perf_counter()
            code = runner.call(job)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            best[job.slot] = min(best[job.slot], elapsed)
            runner.record(job, code, repeat if (index, job.slot) == (0, 0) else None)
        index += 1
        if index >= MIN_PASSES and time.perf_counter() - t_start >= seconds:
            break
        if index % CHECK_EVERY == 0:
            runner.check_pending()
        jobs = runner.make_pass(index)
    runner.check_pending()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probe.times) < SETUP_PROBES:
        probe.run()
    print(f"{index} passes of {len(first)} slots, {1e3 * busy / index / len(first):.1f} ms "
          f"per job on average; setup_s probes: "
          + " ".join(f"{t:.3f}" for t in sorted(probe.times)))
    return {
        "setup_s": (min(probe.times), "s"),
        "jobs_per_s": (len(best) / sum(best), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(best), "ms"),
        "job_tail_ms": (1e3 * percentile(best, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner, first: list, seconds: float, tracer) -> tuple:
    """Run each job untraced and traced, alternating which goes first.

    Returns (traced/untraced time ratios, number of traced jobs).  The two
    runs of a job must write the same bytes.
    """
    ratios = []
    t_start = time.perf_counter()
    jobs, index = first, 0
    while True:
        for job in jobs:
            if len(ratios) >= MIN_PAIRS and time.perf_counter() - t_start >= seconds:
                runner.check_pending()
                return ratios, len(ratios)
            elapsed, data = {}, None
            for traced in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                code = (tracer.job(len(ratios), lambda: runner.call(job)) if traced
                        else runner.call(job))
                elapsed[traced] = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                data = runner.record(job, code, data)
            ratios.append(elapsed[True] / elapsed[False])
        runner.check_pending()
        index += 1
        jobs = runner.make_pass(index)


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.check_pass:
        import checks
        print(json.dumps([checks.check_pass(path) for path in args.check_pass]))
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = _workdir(args.workload, args.seed)
    try:
        if args.setup_only:
            from phaseshift import cli
            jobs = workloads.prepare(args.workload, args.seed, workdir, 0)
            return 0 if cli.main(jobs[0].argv) == 0 else 1
        return _benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _benchmark(args, workdir: Path) -> int:
    machine = _machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    runner = Runner(args.workload, args.seed, workdir)
    first = runner.make_pass(0)
    print(f"workload {args.workload} seed {args.seed}: passes of {len(first)} new jobs, "
          f"closed loop, 1 client, {args.seconds:g} s")
    # warm-up, booked but not timed: lazy imports and first allocations
    repeat = runner.record(first[0], runner.call(first[0]))

    if args.trace:
        from phaseshift.refwave import DEFAULT_WRONSKIAN_TOL
        from spans import Tracer, layer_metrics, nesting_errors
        tracer = Tracer()
        ratios, traced_jobs = run_traced(runner, first, args.seconds, tracer)
        metrics = layer_metrics(tracer.spans, traced_jobs, DEFAULT_WRONSKIAN_TOL)
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
        metrics["trace.missing_targets"] = (float(len(tracer.missing)), "count")
        runner.errors.extend(f"trace: {e}" for e in nesting_errors(tracer.spans))
        seen = {span.layer for span in tracer.spans}
        silent = [layer for layer in CHOSEN_LAYERS[args.workload] if layer not in seen]
        runner.errors.extend(f"trace: chosen layer {layer} recorded no spans"
                             for layer in silent)
        print("trace self-check: "
              + (f"no spans from {', '.join(silent)}" if silent
                 else "every chosen layer recorded spans")
              + "".join(f"; {m} not found, not traced" for m in tracer.missing))
        out = ROOT / ".bench_out" / f"spans-{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.dump()))
    else:
        metrics = run_untraced(runner, first, repeat, args.seconds,
                               SetupProbe(args.workload, args.seed))

    # after the loop, so that its arrays do not set the loop's peak RSS
    baselines = kernel_baselines()
    print("roadmap baselines (about 1300 ns per RK4 cell, about 33 ms for orders 1-20):")
    _print_metrics(baselines)
    attempted = len(runner.runs)
    failed = runner.failed()
    if args.trace:
        metrics.update(baselines)
        metrics["check.failed_ratio"] = (failed / attempted, "ratio")
        metrics["check.converge_fail_rows"] = (float(runner.converge_fail_rows), "count")
    else:
        print(f"check.failed_ratio {failed / attempted:g}  "
              f"check.converge_fail_rows {runner.converge_fail_rows}  "
              f"job_tail_ms is p{TAIL_PERCENTILE} of {len(first)} slot times, "
              f"each the best over {len(runner.passes)} passes")
    for error in runner.errors[:20]:
        print("FAIL " + error.rstrip(), file=sys.stderr)
    correct = not runner.errors and failed == 0
    print("checks: " + ("PASS" if correct else f"FAIL ({len(runner.errors)} problems)"))
    _print_metrics(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
