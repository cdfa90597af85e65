"""Verdict benchmark for z2covers: seeded workloads through the real CLI entry point.

    python3 bench/run.py --workload family --seed 1 --seconds 40 --trace 0

One process, one thread, one client in a closed loop: each job calls
``z2covers.cli.main`` in-process, one CLI step after the other, and the
next job starts when the previous one has returned.  Inputs come from
``workloads.py`` (seeded, independent of the program); every verdict is
checked against its known answer outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
jobs twice, untraced for half of ``--seconds`` and then traced, prints
the per-layer metrics and writes the spans to ``bench/out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC)

try:
    from z2covers import cli
except ImportError as exc:  # the checkout must hold the program's source
    raise SystemExit(f"error: cannot import z2covers from {SRC}: {exc}") from exc
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"error: z2covers was imported from {cli.__file__}, not from {SRC}")

from z2covers.serialize import dumps, loads  # noqa: E402

import check  # noqa: E402  (needs SRC on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DOC, Job  # noqa: E402

SETUP_SPAWNS = 11
P90_MIN_JOBS = 100

E2E_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "doc_kb.mean": "kB",
}


@dataclass
class Record:
    """One job as run: wall seconds (until it returned or raised), bytes read, problems."""

    job: Job
    seconds: float
    doc_bytes: int
    problems: list[str]


def spawn_import() -> float:
    """Wall time of one fresh interpreter running ``import z2covers``.

    No timeout: with one, Popen.wait polls with sleeps of up to 50 ms, and
    the measured time snaps to that grid.
    """
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import z2covers"], env=dict(os.environ, PYTHONPATH=SRC), check=True
    )
    return perf_counter() - start


def _call(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_job(job: Job, workdir: str, main: Callable[[list[str]], int]) -> Record:
    """Write the job's input, time its CLI steps, then check the answer."""
    path = os.path.join(workdir, f"job{job.id}.json")
    if job.doc is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(job.doc)
    argvs = [[path if arg == DOC else arg for arg in step] for step in job.steps]
    codes = []
    output = ""
    start = perf_counter()
    try:
        for argv in argvs:
            code, output = _call(main, argv)
            codes.append(code)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return Record(job, perf_counter() - start, 0, [f"raised {type(exc).__name__}: {exc}"])
    seconds = perf_counter() - start
    text = None
    if os.path.exists(path):  # absent only when a construct step failed
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(path)
    size = len(text.encode()) if text is not None else 0
    return Record(job, seconds, size, check.problems(job.expect, codes, output, text))


def run_for(
    stream: Iterator[list[Job]],
    seconds: float,
    run: Callable[[Job], Record],
    between: Callable[[float], None] = lambda busy: None,
) -> list[Record]:
    """Whole cycles, until the jobs have been busy for ``seconds``.

    ``between`` is called with the busy time so far before each cycle.
    """
    records: list[Record] = []
    busy = 0.0
    while busy < seconds:
        between(busy)
        for job in next(stream):
            records.append(run(job))
            busy += records[-1].seconds
    return records


def quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density.

    A single order statistic jumps when jobs of one size straddle two host
    speeds (a shared host alternates between them); this estimate moves
    smoothly with the share of jobs run at each speed.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # midpoint rule over [i/n, (i+1)/n]
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in points
        ))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    return {
        "setup_s": setup_s,
        "job_s.p50": quantile(times, 0.5),
        "job_s.p90": quantile(times, 0.9),
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "doc_kb.mean": statistics.fmean(r.doc_bytes for r in records) / 1000,
    }


def _peak_mb(call: Callable[[], object]) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def serialize_peaks(records: list[Record]) -> dict[str, float]:
    """tracemalloc peaks of dumps and loads on the run's largest document.

    The benchmark makes these calls itself, after the traced run.  dumps is
    measured only where the workload's jobs call it (they construct).
    """
    biggest = max(records, key=lambda r: r.doc_bytes).job
    if biggest.doc is not None:
        text = biggest.doc
    else:  # constructed by the job: render the same document independently
        step = biggest.steps[0]
        halving = [int(c) for c in step[step.index("--halving") + 1].split(",")]
        text = workloads.family_doc(biggest.size, halving)
    constructs = any(step[0] == "construct" for r in records for step in r.job.steps)
    bd = loads(text)
    return {
        "serialize.dumps.peak_mb": _peak_mb(lambda: dumps(bd)) if constructs else 0.0,
        "serialize.loads.peak_mb": _peak_mb(lambda: loads(text)),
    }


def traced_run(
    records: list[Record], workdir: str, spans_path: str
) -> tuple[list[Record], dict[str, float]]:
    """Replay the jobs of an untraced run with spans; derive per-layer metrics."""
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", cli.main)

    def run(job: Job) -> Record:
        with tracer.job(job.id):
            return run_job(job, workdir, main)

    with tracer.installed():
        traced = [run(r.job) for r in records]
    seconds = {r.job.id: r.seconds for r in traced}
    metrics = spans.layer_metrics(tracer.spans, seconds)
    metrics["trace.overhead.s"] = (
        quantile([r.seconds for r in traced], 0.5) - quantile([r.seconds for r in records], 0.5)
    )
    metrics.update(serialize_peaks(records))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return traced, metrics


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(
    args: argparse.Namespace, records: list[Record], metrics: dict[str, float], units: dict[str, str]
) -> dict:
    failed = [r for r in records if r.problems]
    for r in failed[:5]:
        print(f"job {r.job.id} failed: {'; '.join(r.problems)}", file=sys.stderr)
    jobs = len(records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs sha256 {workloads.digest(args.workload, args.seed)} "
          f"(first {workloads.DIGEST_CYCLES} cycles)  jobs timed {jobs}")
    print(f"failed_share {len(failed)}/{len(records)} = {len(failed) / len(records):.4g}")
    for name, value in metrics.items():
        note = ""
        if name.startswith("job_s."):
            note = f"  (n = {jobs})"
            if name == "job_s.p90" and jobs < P90_MIN_JOBS:
                note += f"  fewer than {P90_MIN_JOBS} jobs: under 10 samples lie beyond"
        print(f"  {name:<40} {_format(value):>12} {units[name]}{note}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


class Stopped(BaseException):
    """SIGTERM arrived.  Not an Exception, so no job counts it as its own
    failure; on its way out the work directory is removed, and subprocess.run
    kills a spawned interpreter."""


def _stop(signum: int, frame: object) -> None:
    raise Stopped(signum)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    stream = workloads.cycles(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR)
    try:
        def run(job: Job) -> Record:
            return run_job(job, workdir, cli.main)

        if args.trace:
            untraced = run_for(stream, args.seconds / 2, run)
            spans_path = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.json")
            traced, metrics = traced_run(untraced, workdir, spans_path)
            result = report(args, untraced + traced, metrics, spans.LAYER_UNITS)
        else:
            spawn_import()  # writes the bytecode cache, as any earlier CLI run would
            setup: list[float] = []

            def spawn_on_schedule(busy: float) -> None:
                # Spread the spawns over the run, so that they meet the same
                # machine as the jobs do.
                if busy >= len(setup) * args.seconds / SETUP_SPAWNS:
                    setup.append(spawn_import())

            records = run_for(stream, args.seconds, run, spawn_on_schedule)
            while len(setup) < SETUP_SPAWNS:
                setup.append(spawn_import())
            metrics = end_to_end(records, statistics.median(setup))
            result = report(args, records, metrics, E2E_UNITS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Stopped as stop:
        sys.exit(128 + stop.args[0])
