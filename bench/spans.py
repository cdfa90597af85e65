"""Per-layer spans, recorded from outside the program.

The traced run installs wrappers around the module functions that
``z2covers.cli`` calls (the names it imported, plus ``serialize.dumps``
and ``serialize.loads``, which it reaches through the module), and the
benchmark wraps its own call to ``cli.main``.  Nothing inside ``src/`` is
changed: calls that one module makes into another below the CLI, such as
the re-verification inside ``invariants``, are counted in the caller's span.

A span is (name, start, end, parent, job, count).  ``count`` is the unit
of work the call did, taken from its argument or its result.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

from z2covers import cli, serialize

# (name in the CLI's namespace, span name, count) for each wrapped call.
_CLI_CALLS = (
    ("verify_report", "cli.verify_report", None),
    ("construct_family", "construction.construct_family", None),
    ("verify_relations", "cover.verify_relations", lambda args, r: r.pairs_checked),
    ("verify_smoothness", "cover.verify_smoothness", lambda args, r: len(args[0].points_c)),
    ("compute_invariants", "invariants.compute_invariants", None),
    ("canonical_map_degree", "invariants.canonical_map_degree", None),
    ("find_assignment", "curve_oracle.find_assignment", None),
    ("realize", "curve_oracle.realize", lambda args, r: r.relations_checked),
)
_SERIALIZE_CALLS = (
    ("dumps", "serialize.dumps", lambda args, r: len(r)),
    ("loads", "serialize.loads", lambda args, r: len(args[0])),
)

# Per-layer metric names and units; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.main.self.s": "s",
    "cli.verify_report.s": "s",
    "construction.construct_family.s": "s",
    "serialize.dumps.s": "s",
    "serialize.loads.s": "s",
    "serialize.bytes": "B",
    "serialize.dumps.peak_mb": "MB",
    "serialize.loads.peak_mb": "MB",
    "cover.verify_relations.s": "s",
    "cover.verify_relations.pairs": "count",
    "cover.verify_smoothness.s": "s",
    "cover.verify_smoothness.points": "count",
    "invariants.compute_invariants.s": "s",
    "invariants.canonical_map_degree.s": "s",
    "curve_oracle.points.s": "s",
    "curve_oracle.group_structure.s": "s",
    "curve_oracle.find_assignment.s": "s",
    "curve_oracle.realize.s": "s",
    "curve_oracle.curve_points": "count",
    "curve_oracle.realize.relations_checked": "count",
    "trace.overhead.s": "s",
    "trace.unspanned.s": "s",
}

# Span names whose counts feed a metric of their own.
_COUNTS = {
    "cover.verify_relations": "cover.verify_relations.pairs",
    "cover.verify_smoothness": "cover.verify_smoothness.points",
    "curve_oracle.points": "curve_oracle.curve_points",
    "curve_oracle.realize": "curve_oracle.realize.relations_checked",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    job: int
    count: int = 0


class Tracer:
    """Keeps spans in memory.  Wrapped calls record only while a job is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None

    @contextlib.contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        self._job = job_id
        try:
            yield
        finally:
            self._job = None
            self._stack.clear()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    def _curve_factory(self, curve_class: type) -> Callable:
        """Build the curve, then enumerate its points under their own span, so
        that group_structure and find_assignment later find them cached."""

        def make(*args, **kwargs):
            curve = curve_class(*args, **kwargs)
            self.wrap("curve_oracle.points", curve.points, lambda a, r: len(r))()
            curve.group_structure = self.wrap(
                "curve_oracle.group_structure", curve.group_structure
            )
            return curve

        return make

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the CLI's calls into each module for the duration of the block."""
        saved = [(cli, attr, getattr(cli, attr)) for attr, _, _ in _CLI_CALLS]
        saved += [(serialize, attr, getattr(serialize, attr)) for attr, _, _ in _SERIALIZE_CALLS]
        saved.append((cli, "CurveOverFp", cli.CurveOverFp))
        try:
            for module, calls in ((cli, _CLI_CALLS), (serialize, _SERIALIZE_CALLS)):
                for attr, name, count in calls:
                    setattr(module, attr, self.wrap(name, getattr(module, attr), count))
            cli.CurveOverFp = self._curve_factory(cli.CurveOverFp)
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def layer_metrics(spans: list[Span], job_seconds: dict[int, float]) -> dict[str, float]:
    """Summed seconds and counts per layer, from the spans of a traced run.

    ``job_seconds`` maps each traced job to its wall time;
    ``trace.unspanned.s`` is the median over jobs of that time minus the
    time under its root spans.
    """
    metrics = {name: 0.0 if unit in ("s", "MB") else 0 for name, unit in LAYER_UNITS.items()}
    child_time = [0.0] * len(spans)
    root_time = {job: 0.0 for job in job_seconds}
    for span in spans:
        duration = span.end - span.start
        metrics[f"{span.name}.s"] += duration
        if span.parent >= 0:
            child_time[span.parent] += duration
        else:
            root_time[span.job] += duration
        if span.name in _COUNTS:
            metrics[_COUNTS[span.name]] += span.count
        if span.name.startswith("serialize."):
            metrics["serialize.bytes"] += span.count
    metrics["cli.main.self.s"] = sum(
        span.end - span.start - child_time[i] for i, span in enumerate(spans)
        if span.name == "cli.main"
    )
    if job_seconds:
        metrics["trace.unspanned.s"] = statistics.median(
            job_seconds[job] - root_time[job] for job in job_seconds
        )
    return metrics
