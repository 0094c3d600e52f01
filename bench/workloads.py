"""Seeded job generators for the benchmark workloads.

A generator turns a seed into job lists of JSON documents in the schema the
``phaseshift`` CLI reads; the program only ever sees those documents.  The
timed loop runs the list in passes, and every pass is a new list: slot j of
pass p is drawn from (workload, seed, p, j), so no input repeats and a cache
keyed on a job's input cannot turn later passes into hits.  Sizes (grids,
orders, number of k values and couplings) are fixed per workload, and the
shape of a slot (its command, number of gaussian bumps and of background
segments) is drawn from (workload, seed, j) alone, so slot j costs about the
same in every pass and every seed; only the physics values change.

Every emitted job is one the program accepts and computes without a guard
tripping.  A refused job is a generator bug, so the generators enforce the
program's own preconditions by construction:

* gaussian support ``center + width * sqrt(2 ln(|h| / eps_tail)) < x_max``;
* segment and barrier edges on exact grid nodes (dyadic values on grids
  whose nodes are exact), which also keeps the RK4 oracle at full order;
* converge couplings that halve exactly and sit in the perturbative window
  ``|c0 * delta_1| < 0.1`` with margin.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from phaseshift.cli import parse_config
from phaseshift.potential import DEFAULT_TAIL_EPS, Grid

WORKLOADS = ("oracle_sweep", "high_order_series", "background_scan")

#: job slots per pass
JOBS_PER_LIST = 8

#: edges are multiples of this (dyadic, so exactly representable)
EDGE = 1.0 / 16.0

#: the perturbative window convergence_order_check enforces is 0.1; keep a margin
WINDOW = 0.08

#: job sizes are chosen so a job takes about 20-50 ms: an 8-job pass then
#: takes about 0.3 s and every slot runs about 100 times in a 55 s run
SWEEP_GRID = {"x_max": 2.0, "n_points": 1001}      # oracle on 4001 points
CONVERGE_GRID = {"x_max": 2.0, "n_points": 4001}   # oracle on 16001 points
HIGH_ORDER_GRID = {"x_max": 5.0, "n_points": 4001}
BACKGROUND_GRID = {"x_max": 4.0, "n_points": 8001}


@dataclass(frozen=True)
class Job:
    """One generated CLI job: its document, config file and CSV destination."""

    pass_index: int
    slot: int
    command: str
    doc: dict
    config_path: Path
    out_path: Path

    @property
    def argv(self) -> list:
        return [self.command, "--config", str(self.config_path),
                "--out", str(self.out_path)]


def born_delta1_barrier(height: float, width: float, k: float) -> float:
    """First-order phase of a barrier of `height` on [0, width], free reference."""
    return -(height / k) * (width - math.sin(2.0 * k * width) / (2.0 * k))


@lru_cache(maxsize=None)
def _node_edges(x_max: float, n_points: int, refinement: int = 4) -> frozenset:
    """Multiples of EDGE that are exact nodes of the grid and of its oracle grid."""
    edges = {m * EDGE for m in range(int(x_max / EDGE) + 1)}
    for n in (n_points, refinement * (n_points - 1) + 1):
        edges &= set(Grid(x_max, n).nodes.tolist())
    return frozenset(edges)


def _edge(rng: random.Random, lo: float, hi: float, grid: dict) -> float:
    """A seeded dyadic edge in [lo, hi] that lies exactly on grid nodes."""
    nodes = _node_edges(grid["x_max"], grid["n_points"])
    choices = sorted(x for x in nodes if lo <= x <= hi)
    if not choices:
        raise ValueError(f"no node-aligned edge in [{lo}, {hi}]")
    return rng.choice(choices)


def _gaussian_bumps(rng: random.Random, x_max: float, count: int,
                    center_lo: float = 0.2) -> list:
    """`count` gaussian bumps whose clipped support ends before x_max."""
    bumps = []
    for _ in range(count):
        height = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5)
        width = rng.uniform(0.1, 0.3)
        radius = width * math.sqrt(2.0 * math.log(abs(height) / DEFAULT_TAIL_EPS))
        center = rng.uniform(center_lo, x_max - radius - 0.1)
        bumps.append([center, width, height])
    return bumps


def _ks(rng: random.Random, count: int, lo: float, hi: float) -> list:
    return sorted(rng.uniform(lo, hi) for _ in range(count))


def _barrier(rng: random.Random, grid: dict, couplings_max: float) -> tuple:
    """Seeded (height, width, k) of a barrier inside the perturbative window."""
    while True:
        height = rng.uniform(0.3, 1.5)
        width = _edge(rng, 0.5, 1.5, grid)
        k = rng.uniform(0.6, 1.6)
        if couplings_max * abs(born_delta1_barrier(height, width, k)) < WINDOW:
            return height, width, k


def oracle_sweep_doc(slot: int, shape: random.Random, rng: random.Random) -> dict:
    """Three `sweep` slots then one `converge` slot, repeated."""
    if slot % 4 == 3:
        c0 = rng.uniform(0.05, 0.1)
        height, width, k = _barrier(rng, CONVERGE_GRID, c0)
        return {"command": "converge", "k": k,
                "lambda": [c0, c0 / 2.0], "max_order": 4,
                "grid": CONVERGE_GRID,
                "U": {"kind": "piecewise_constant",
                      "segments": [[0.0, width, height]]}}
    c0 = rng.uniform(0.2, 0.4)
    height, width, k = _barrier(rng, SWEEP_GRID, c0)
    return {"command": "sweep", "k": k,
            "lambda": [c0 / 2.0 ** j for j in range(4)],
            "max_order": 4, "grid": SWEEP_GRID,
            "U": {"kind": "piecewise_constant",
                  "segments": [[0.0, width, height]]}}


def high_order_series_doc(slot: int, shape: random.Random, rng: random.Random) -> dict:
    """An order-20 `phases` job on a zero background (analytic reference)."""
    return {"command": "phases", "k": _ks(rng, 1, 0.5, 2.0), "max_order": 20,
            "grid": HIGH_ORDER_GRID,
            "U": {"kind": "gaussian_sum",
                  "bumps": _gaussian_bumps(rng, HIGH_ORDER_GRID["x_max"],
                                           shape.randint(1, 3))}}


def _background_segments(rng: random.Random, grid: dict, count: int) -> list:
    """`count` ordered, non-overlapping constant segments on node-aligned edges in [0, 2]."""
    nodes = sorted(x for x in _node_edges(grid["x_max"], grid["n_points"]) if x <= 2.0)
    cuts = sorted(rng.sample(nodes, 2 * count))
    return [[cuts[2 * j], cuts[2 * j + 1], rng.uniform(-0.4, 0.6)] for j in range(count)]


def background_scan_doc(slot: int, shape: random.Random, rng: random.Random) -> dict:
    """An order-8 `phases` job on a piecewise-constant background (RK4 reference)."""
    segments, bumps = shape.randint(1, 3), shape.randint(1, 2)
    return {"command": "phases", "k": _ks(rng, 2, 0.5, 2.0), "max_order": 8,
            "grid": BACKGROUND_GRID,
            "V": {"kind": "piecewise_constant",
                  "segments": _background_segments(rng, BACKGROUND_GRID, segments)},
            "U": {"kind": "gaussian_sum",
                  "bumps": _gaussian_bumps(rng, BACKGROUND_GRID["x_max"], bumps)}}


_GENERATORS = {
    "oracle_sweep": oracle_sweep_doc,
    "high_order_series": high_order_series_doc,
    "background_scan": background_scan_doc,
}


def generate(workload: str, seed: int, pass_index: int = 0) -> list:
    """The job documents of one pass; the same arguments give the same documents."""
    make = _GENERATORS[workload]
    return [make(slot, random.Random(f"{workload}:{seed}:{slot}"),
                 random.Random(f"{workload}:{seed}:{pass_index}:{slot}"))
            for slot in range(JOBS_PER_LIST)]


def prepare(workload: str, seed: int, workdir: Path, pass_index: int = 0) -> list:
    """Generate, write and parse the job list of one pass into `workdir`.

    Raises ``phaseshift.errors.ConfigInvalid`` if any generated job is one
    the program refuses.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for slot, doc in enumerate(generate(workload, seed, pass_index)):
        parse_config(doc)  # a refused job is a generator bug: fail set-up
        config_path = workdir / f"job{slot:03d}.json"
        config_path.write_text(json.dumps(doc))
        jobs.append(Job(pass_index, slot, doc["command"], doc, config_path,
                        workdir / f"job{slot:03d}.csv"))
    return jobs
