"""Smoke test for the benchmark itself, on a few small jobs per workload.

    python3 bench/smoke.py

Checks that the seeded generator reproduces the program's own documents,
that every workload's known answers hold (failed_share == 0), that a
planted wrong expectation is counted as a failure, that the traced run
reports every per-layer metric, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (puts the program's source on sys.path)
import workloads  # noqa: E402
from z2covers import cli, construct_etale, construct_family, serialize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def small_jobs(workload: str, seed: int = 7) -> list[workloads.Job]:
    """A few cheap jobs from the first cycle, mutants included where there are any."""
    cycle = next(workloads.cycles(workload, seed))
    if workload == "oracle":
        accepting = [j for j in cycle if j.expect.ok]
        mutant = [j for j in cycle if not j.expect.ok]
        return [min(accepting, key=lambda j: j.expect.oracle[0])] + mutant[:1]
    if workload == "reject":
        return [j for j in cycle if j.doc and '"rank": 0' in j.doc][:2] + [
            j for j in cycle if j.doc and '"rank": 0' not in j.doc][:2]
    return sorted(cycle, key=lambda j: j.size)[:4]


def run_all(jobs: list[workloads.Job]) -> list[run.Record]:
    workdir = tempfile.mkdtemp(prefix="work-smoke-", dir=BENCH_DIR)
    try:
        return [run.run_job(job, workdir, cli.main) for job in jobs]
    finally:
        shutil.rmtree(workdir)


def summarize(workload: str, records: list[run.Record], metrics: dict, units: dict) -> dict:
    args = argparse.Namespace(workload=workload, seed=7, trace=0)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.report(args, records, metrics, units)


class GeneratorTest(unittest.TestCase):
    def test_family_documents_match_the_constructor(self):
        for n, halving in ((2, [0, 0]), (3, [1, 2, 3]), (7, [3, 0, 1, 2, 0, 1, 3])):
            with self.subTest(n=n):
                self.assertEqual(
                    workloads.family_doc(n, halving),
                    serialize.dumps(construct_family(n, halving)),
                )

    def test_identity_etale_documents_match_the_constructor(self):
        for k in (3, 4, 5):
            identity = [1 << (k - 1 - i) for i in range(k)]
            with self.subTest(k=k):
                self.assertEqual(
                    workloads.etale_doc(identity, [2] * k),
                    serialize.dumps(construct_etale(k)),
                )

    def test_digest_follows_the_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.digest(workload, 3), workloads.digest(workload, 3))
                self.assertNotEqual(workloads.digest(workload, 3), workloads.digest(workload, 4))


class QuantileTest(unittest.TestCase):
    def test_harrell_davis_agrees_with_order_statistics_on_smooth_data(self):
        values = [i / 1000 for i in range(1001)]
        self.assertAlmostEqual(run.quantile(values, 0.5), 0.5, places=3)
        self.assertAlmostEqual(run.quantile(values, 0.9), 0.9, places=3)
        self.assertEqual(run.quantile([0.25], 0.9), 0.25)


class KnownAnswerTest(unittest.TestCase):
    def test_every_workload_passes(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                records = run_all(small_jobs(workload))
                result = summarize(workload, records, run.end_to_end(records, 0.1), run.E2E_UNITS)
                self.assertEqual(result["failed"], 0, [r.problems for r in records])
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_planted_wrong_expectation_is_a_failure(self):
        job = small_jobs("family")[0]
        k2, p_g, chi, q = job.expect.invariants
        wrong = dataclasses.replace(job.expect, invariants=(k2 + 1, p_g, chi, q))
        records = run_all([job, dataclasses.replace(job, id=job.id + 1, expect=wrong)])
        result = summarize("family", records, run.end_to_end(records, 0.1), run.E2E_UNITS)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertIn("(K^2, p_g, chi, q)", records[1].problems[0])

    def test_planted_wrong_oracle_verdict_is_a_failure(self):
        mutant = next(j for j in small_jobs("oracle") if not j.expect.ok)
        order, factors, _ = mutant.expect.oracle
        wrong = dataclasses.replace(mutant.expect, oracle=(order, factors, True))
        (record,) = run_all([dataclasses.replace(mutant, expect=wrong)])
        self.assertEqual(record.problems, ["oracle.ok = False, expected True"])


class TracedRunTest(unittest.TestCase):
    # Layers that must show work on each workload's small jobs.
    BUSY = {
        "family": ("construction.construct_family.s", "serialize.dumps.s",
                   "cover.verify_smoothness.points", "invariants.compute_invariants.s"),
        "etale": ("cover.verify_relations.pairs", "invariants.canonical_map_degree.s"),
        "reject": ("cover.verify_relations.s", "serialize.loads.peak_mb"),
        "oracle": ("curve_oracle.points.s", "curve_oracle.group_structure.s",
                   "curve_oracle.find_assignment.s", "curve_oracle.realize.relations_checked"),
    }

    def test_traced_run_reports_every_layer(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload, busy in self.BUSY.items():
            with self.subTest(workload=workload):
                records = run_all(small_jobs(workload))
                workdir = tempfile.mkdtemp(prefix="work-smoke-", dir=BENCH_DIR)
                try:
                    traced, metrics = run.traced_run(
                        records, workdir, os.path.join(workdir, "spans.json"))
                    with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as handle:
                        written = json.load(handle)
                finally:
                    shutil.rmtree(workdir)
                self.assertTrue(all(not r.problems for r in traced))
                self.assertEqual(sorted(metrics), sorted(names))
                for name in busy:
                    self.assertGreater(metrics[name], 0, name)
                self.assertEqual(metrics["invariants.compute_invariants.s"] > 0,
                                 workload != "reject")
                self.assertEqual({s["job"] for s in written}, {r.job.id for r in records})
                # The root spans cover each job's time up to the harness's own steps.
                self.assertLess(abs(metrics["trace.unspanned.s"]), 1e-3)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_the_source(self):
        bare = tempfile.mkdtemp(prefix="work-smoke-", dir=BENCH_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("work-*", "out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "etale", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
