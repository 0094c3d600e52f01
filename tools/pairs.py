"""Paired benchmark runs of a base revision against this checkout, stdlib only.

Extracts the base revision with ``git archive`` (no network) and copies this
checkout's working tree, each into a sibling directory of one temporary
directory, so both sides run from paths of the same length.  It then runs
``bench/run.py`` on the two sides in turn, ``--pairs`` times, and alternates
which side runs first; the run that goes second in a pair tends to read
slower, so ``--pairs`` must be even, and each side goes first in half of the
pairs.  It also runs one A/A pair: the base against a second extract of the
base, which shows how far two copies of one commit read apart on this
machine.

For each end-to-end metric of ``BENCHMARK.json`` it prints every pair, each
side's median and quartiles, the ratio of the medians (change / base), the
pairs the change wins, and whether the change is better in at least nine
pairs of ten with a median gap larger than the base's interquartile range.
Beside the ratio of the medians it prints the median change / base ratio
of the pairs the base ran first in (``base 1st``) and of those the change
ran first in (``change 1st``), so a bias from the run order shows.
Quartiles are those of ``statistics.quantiles`` (exclusive method).  The
same goes for ``minflt``, the minor page faults of each whole run (its own
and those of the processes it waits for), so that a change in how the heap
is reused shows up as faults and not only as time.

Usage, from anywhere:

    python tools/pairs.py --base HEAD~1 --workload oracle_sweep --pairs 10 \\
        --seconds 55 --seed 41

Each run starts in a session of its own.  On SIGTERM or Ctrl-C the script
ends the running process group, waits for it and removes its temporary
directory before it exits.

Exit code 0 unless a run fails its checks or writes no result (1) or
``--pairs`` is not a positive even number (2).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the row of the page faults of a run, beside those of BENCHMARK.json
FAULTS = {"name": "minflt", "better": "lower"}
# what the copy of the working tree leaves out: version control, caches,
# build and bench output
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".benchmarks", ".bench_work",
                              ".bench_out", "build", "*.egg-info")


class RunFailed(RuntimeError):
    """A benchmark run failed its checks or wrote no result line."""


def extract(rev: str, dest: Path) -> Path:
    """The files of `rev`, from ``git archive``, in the new directory `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    with tempfile.TemporaryFile() as tar:
        tar.write(archive)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as files:
            files.extractall(dest, filter="data")
    return dest


def run_bench(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """{metric: value} of one untraced ``bench/run.py`` run in `tree`, and
    its minor page faults under FAULTS' name."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:  # also on an interrupt: the run and its children are one group
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{tree.name}: no result line\n{stderr[-2000:]}") from None
    if not result["correct"] or proc.returncode != 0:
        raise RunFailed(f"{tree.name}: checks failed ({result['failed']} of "
                        f"{result['attempted']})\n{stderr[-2000:]}")
    return {**{name: entry["value"] for name, entry in result["metrics"].items()},
            FAULTS["name"]: faults}


def quartiles(values: list) -> tuple:
    """(q1, median, q3); for one value, that value three times."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def better(value: float, than: float, direction: str) -> bool:
    return value < than if direction == "lower" else value > than


def pair_line(label: str, metrics: list, base: dict, change: dict) -> str:
    def show(value):  # counts in full
        return str(value) if isinstance(value, int) else f"{value:.4g}"

    return f"{label}: " + "  ".join(
        f"{m['name']} {show(base[m['name']])} -> {show(change[m['name']])}"
        for m in metrics)


def report(metrics: list, pairs: list, aa: tuple) -> None:
    """Print the summary of each metric over `pairs`, and the A/A ratio.

    The base ran first in the even-numbered pairs and the change in the
    odd-numbered ones."""
    print(f"{'metric':<12} {'base q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'ratio':>7} {'base 1st':>8} {'change 1st':>10} {'wins':>6} "
          f"{'A/A':>7}  claim")
    for m in metrics:
        name = m["name"]
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        ratios = [c / b for b, c in zip(base, change)]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum(better(c, b, m["better"]) for b, c in zip(base, change))
        gap = abs(cq[1] - bq[1])
        holds = (better(cq[1], bq[1], m["better"]) and wins >= 0.9 * len(pairs)
                 and gap > bq[2] - bq[0])
        print(f"{name:<12} {bq[0]:>8.4g} {bq[1]:>8.4g} {bq[2]:>8.4g} "
              f"{cq[0]:>8.4g} {cq[1]:>8.4g} {cq[2]:>8.4g} "
              f"{cq[1] / bq[1]:>7.3f} {statistics.median(ratios[::2]):>8.3f} "
              f"{statistics.median(ratios[1::2]):>10.3f} {wins:>3}/{len(pairs):<2} "
              f"{aa[1][name] / aa[0][name]:>7.3f}  {'holds' if holds else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        print(f"--pairs must be a positive even number, so that each side runs "
              f"first equally often; got {args.pairs}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"] + [FAULTS]
    # a SIGTERM unwinds like Ctrl-C, so the running group and the
    # temporary directory go with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base = extract(args.base, Path(tmp) / "a")
        again = extract(args.base, Path(tmp) / "b")
        change = Path(tmp) / "c"
        shutil.copytree(ROOT, change, ignore=SKIP)

        def run(tree):
            return run_bench(tree, args.workload, args.seconds, args.seed)

        print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s runs, base {args.base} -> this checkout; "
              f"A/A is the base -> a second extract of it", flush=True)
        try:
            pairs = []
            for index in range(args.pairs):
                if index % 2:
                    after = run(change)
                    pairs.append((run(base), after))
                else:
                    pairs.append((run(base), run(change)))
                print(pair_line(f"pair {index}", metrics, *pairs[-1]), flush=True)
            aa = (run(base), run(again))
            print(pair_line("A/A", metrics, *aa), flush=True)
        except RunFailed as failed:
            print(f"FAIL {failed}", file=sys.stderr)
            return 1
    report(metrics, pairs, aa)
    return 0


if __name__ == "__main__":
    sys.exit(main())
