"""Span tracing of ``phaseshift`` from outside the program.

The tracer rebinds each traced public function at every place it is
reachable by name: the defining module and every ``phaseshift`` module that
imported it with ``from .x import name``.  While installed, each call
records a span (name, parent, start, end, and an optional raw value such
as a grid size or an order) in memory; :meth:`Tracer.uninstall` puts the
original functions back.  No code of the program is edited, and the
untraced benchmark runs the original functions with no wrapper in the way.

Layer names are the module names: a span ``refwave.integrate`` belongs to
layer ``refwave``.  A job's root span is ``cli.job``; its self time (job time
no other span covers) is reported as ``cli.other_ms``.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from checks import partition_count

LAYERS = ("potential", "refwave", "hierarchy", "partitions", "series", "oracle", "cli")

#: (module, function, span name, what a span keeps).  The last is None or a
#: function of an argument getter and the call's result that returns an O(1)
#: raw value; counts derived from it (such as p(n)) are worked out by
#: layer_metrics after the run, so they are not charged to the caller's span.
TARGETS = (
    ("potential", "sample_potential", "potential.sample", None),
    ("potential", "cumulative_from_right", "potential.cumtrapz", None),
    ("refwave", "integrate_wave_inward", "refwave.integrate",
     lambda arg, result: arg("grid").n_points - 1),                  # cells
    ("refwave", "wronskian_residual", "refwave.certify",
     lambda arg, result: result / arg("k")),                         # residual per k
    ("refwave", "solve_reference", "refwave.reference", None),
    ("refwave", "analytic_free_reference", "refwave.reference", None),
    ("hierarchy", "compute_hierarchy", "hierarchy.compute",
     lambda arg, result: arg("order") * arg("ref").grid.n_points),   # point steps
    ("partitions", "enumerate_partitions", "partitions.enumerate",
     lambda arg, result: (arg("n"), len(result))),                   # (order, tuples)
    ("series", "assemble_series", "series.assemble", None),
    ("series", "assemble_delta_n", "series.delta_n",
     lambda arg, result: arg("n")),                                  # order
    ("oracle", "solve_exact", "oracle.solve", None),
    ("oracle", "sweep_exact", "oracle.sweep", None),
    ("oracle", "convergence_order_check", "oracle.converge", None),
    ("cli", "parse_config", "cli.parse", None),
    ("cli", "render_csv", "cli.render", None),
)


@dataclass(slots=True)
class Span:
    job: int
    name: str
    parent: int  # index into Tracer.spans, -1 for a job's root span
    start: float
    end: float = 0.0
    kept: object = None  # the raw value TARGETS says the span keeps

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; install() rebinds the targets, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []   # targets the program no longer has
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original)
        self._job = -1

    def _wrapper(self, original, name, keep):
        positions = {p: i for i, p in enumerate(inspect.signature(original).parameters)}
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(self._job, name, stack[-1] if stack else -1, time.perf_counter())
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep is not None:
                def arg(param):
                    i = positions[param]
                    return args[i] if i < len(args) else kwargs[param]
                span.kept = keep(arg, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "phaseshift" or n.startswith("phaseshift.")]
        self.missing = []
        for module_name, attr, name, keep in TARGETS:
            home = sys.modules.get(f"phaseshift.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._wrapper(original, name, keep)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def job(self, index: int, call):
        """Run `call()` as traced job `index` under a ``cli.job`` root span."""
        self._job = index
        root = len(self.spans)
        self.spans.append(Span(index, "cli.job", -1, time.perf_counter()))
        self._stack.append(root)
        try:
            return call()
        finally:
            self.spans[root].end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list:
        return [[s.job, s.name, s.parent, s.start, s.end] for s in self.spans]


@lru_cache(maxsize=None)
def _terms(n: int) -> int:
    return partition_count(n)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def nesting_errors(spans: list) -> list:
    """Spans that are unclosed or stick out of their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end or s.job != p.job:
                errors.append(f"span {i} {s.name} is outside its parent {p.name}")
    return errors


def _has_ancestor(spans: list, span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans: list, jobs: int, tol_wronskian: float) -> dict:
    """Per-job per-layer metrics (times in ms) from the spans of `jobs` traced jobs."""
    own = self_times(spans)
    total = {}   # name -> inclusive seconds
    own_total = {}  # name -> self seconds
    calls = {}   # name -> number of spans
    counted = {}  # name -> summed work count
    layer_self = dict.fromkeys(LAYERS, 0.0)
    oracle_cells = 0.0
    margin = 0.0
    orders_per_job = {}

    def count(name, value):
        counted[name] = counted.get(name, 0.0) + value

    for s, self_s in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own_total[s.name] = own_total.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] += self_s
        if s.name in ("refwave.integrate", "hierarchy.compute"):
            count(s.name, s.kept)
        if s.name == "refwave.integrate" and _has_ancestor(spans, s, "oracle.solve"):
            oracle_cells += s.kept
        if s.name == "refwave.certify":
            margin = max(margin, s.kept / tol_wronskian)
        if s.name == "partitions.enumerate":
            order, tuples = s.kept
            count(s.name, tuples)
            orders_per_job.setdefault(s.job, set()).add(order)
        if s.name == "series.delta_n":
            count(s.name, _terms(s.kept))

    def per_job(value):
        return value / jobs

    def ms(name):
        return per_job(1e3 * total.get(name, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    job_s = total.get("cli.job", 0.0)
    cells = counted.get("refwave.integrate", 0.0)
    point_steps = counted.get("hierarchy.compute", 0.0)
    terms = counted.get("series.delta_n", 0.0)
    series_self = layer_self["series"]
    metrics = {
        "refwave.integrate_ms": (ms("refwave.integrate"), "ms"),
        "refwave.cells": (per_job(cells), "count"),
        "refwave.ns_per_cell": (ratio(1e9 * total.get("refwave.integrate", 0.0), cells), "ns"),
        "refwave.certify_ms": (ms("refwave.certify"), "ms"),
        "refwave.reference_ms": (per_job(1e3 * own_total.get("refwave.reference", 0.0)), "ms"),
        "refwave.cert_margin_max": (margin, "ratio"),
        "oracle.solves": (per_job(calls.get("oracle.solve", 0)), "count"),
        "oracle.cells": (per_job(oracle_cells), "count"),
        "oracle.solve_ms": (ms("oracle.solve"), "ms"),
        "oracle.sweep_ms": (ms("oracle.sweep"), "ms"),
        "oracle.converge_ms": (ms("oracle.converge"), "ms"),
        "potential.sample_calls": (per_job(calls.get("potential.sample", 0)), "count"),
        "potential.sample_ms": (ms("potential.sample"), "ms"),
        "potential.cumtrapz_calls": (per_job(calls.get("potential.cumtrapz", 0)), "count"),
        "potential.cumtrapz_ms": (ms("potential.cumtrapz"), "ms"),
        "hierarchy.ms": (ms("hierarchy.compute"), "ms"),
        "hierarchy.point_steps": (per_job(point_steps), "count"),
        "hierarchy.ns_per_point_step": (
            ratio(1e9 * total.get("hierarchy.compute", 0.0), point_steps), "ns"),
        "partitions.enumerate_ms": (ms("partitions.enumerate"), "ms"),
        "partitions.tuples": (per_job(counted.get("partitions.enumerate", 0.0)), "count"),
        "partitions.useful_ratio": (ratio(sum(len(v) for v in orders_per_job.values()),
                                          calls.get("partitions.enumerate", 0)), "ratio"),
        "series.assemble_ms": (per_job(1e3 * series_self), "ms"),
        "series.terms": (per_job(terms), "count"),
        "series.ns_per_term": (ratio(1e9 * series_self, terms), "ns"),
        "cli.parse_ms": (ms("cli.parse"), "ms"),
        "cli.render_ms": (ms("cli.render"), "ms"),
        "cli.other_ms": (per_job(1e3 * own_total.get("cli.job", 0.0)), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (100.0 * ratio(layer_self[layer], job_s), "%")
    return metrics
