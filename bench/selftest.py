"""The benchmark's own test.

    python3 bench/selftest.py

Run from the root of a checkout.  Runs every workload at the tiny size on
seed 1, traced and untraced, and checks the seed corpora, the reference
check and the tracer on their own.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

SECOND_SEED = 1


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def shape(job):
    """The job with each polynomial matrix replaced by its entries' lengths."""

    def lengths(matrix):
        return [[len(entry) for entry in row] for row in matrix]

    out = dict(job)
    if "curve" in job:
        out["curve"] = lengths(job["curve"])
    if "seeds" in job:
        out["seeds"] = {k: lengths(v) for k, v in job["seeds"].items()}
    return out


class Corpus(unittest.TestCase):
    def test_second_seed_has_the_same_shape_and_other_inputs(self):
        for workload in corpus.WORKLOADS:
            for size in corpus.SIZES:
                base = corpus.make_jobs(workload, 0, size)
                other = corpus.make_jobs(workload, SECOND_SEED, size)
                self.assertEqual([shape(j) for j in base], [shape(j) for j in other], workload)
                self.assertNotEqual(base, other, workload)
                self.assertEqual(other, corpus.make_jobs(workload, SECOND_SEED, size))


class Check(unittest.TestCase):
    def setUp(self):
        doc = json.loads((BENCH / "reference" / "exact-corpus-tiny.json").read_text(encoding="utf-8"))
        self.ref = doc["jobs"][0]
        self.report = {
            "mode": self.ref["mode"],
            "summary": dict(self.ref["summary"]),
            "points": [dict(p, residuals={"b_solve": 1e-15}) for p in self.ref["points"]],
        }

    def test_matching_report_passes(self):
        tally = check.Tally()
        tally.check("job", self.report, self.ref)
        self.assertTrue(tally.correct)
        self.assertEqual(tally.points_failed, 0)

    def test_value_off_by_more_than_the_tolerance_fails(self):
        point = self.report["points"][0]
        name = next(iter(point["values"]))
        point["values"] = dict(point["values"], **{name: point["values"][name] * (1 + 1e-6) + 1e-6})
        tally = check.Tally()
        tally.check("job", self.report, self.ref)
        self.assertFalse(tally.correct)
        self.assertEqual(tally.points_failed, 1)

    def test_exact_field_mismatch_fails_every_point(self):
        self.report["summary"]["partition"] = [9]
        tally = check.Tally()
        tally.check("job", self.report, self.ref)
        self.assertFalse(tally.correct)
        self.assertEqual(tally.points_failed, len(self.ref["points"]))

    def test_residual_over_tolerance_fails_the_point_not_the_job(self):
        self.report["points"][0]["residuals"] = {"b_solve": math.nan}
        tally = check.Tally()
        tally.check("job", self.report, self.ref)
        self.assertTrue(tally.correct)
        self.assertEqual(tally.points_failed, 1)


class Tracer(unittest.TestCase):
    def test_missing_names_give_absent_metrics(self):
        from todaframes import cli, frenet, toda, wirtinger

        removed = {}
        for module, name in ((wirtinger, "memoized"), (frenet, "memoized"), (toda, "memoized"), (frenet, "frame_at"), (cli, "frame_at")):
            removed[module, name] = getattr(module, name)
            delattr(module, name)
        tracer = spans.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            for (module, name), value in removed.items():
                setattr(module, name, value)
        metrics = tracer.metrics()
        self.assertNotIn("wirtinger.evals_per_point", metrics)
        self.assertNotIn("frenet.frame_at_calls", metrics)
        self.assertIn("toda.solve_calls", metrics)

    def test_uninstall_restores_every_name(self):
        from todaframes import cli, poly, toda

        before = (cli.solve, toda.solve, poly.PolyMatrix.det, toda.memoized)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(cli.solve, before[0])
        self.assertIs(cli.solve, toda.solve)
        tracer.uninstall()
        self.assertEqual(before, (cli.solve, toda.solve, poly.PolyMatrix.det, toda.memoized))


class Runs(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", str(SECOND_SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_untraced(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_workload(workload, 0)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
                for name, v in metrics.items():
                    self.assertTrue(math.isfinite(v["value"]) and v["value"] > 0, name)

    def test_traced_layer_self_times_add_up(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_workload(workload, 1)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
                total = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
                self.assertAlmostEqual(total, metrics["trace.job_s"]["value"], delta=1e-9)

    def test_refuses_without_package_source(self):
        bare = BENCH / ".work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "exact-corpus", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
