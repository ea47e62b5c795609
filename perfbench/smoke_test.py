"""Smoke test of the benchmark itself: tiny workloads, and wrong outputs that must count as failed.

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sparse-analyze": {"r": 3, "n": 10, "degree": 4},
    "dense-io": {"r": 3, "n": 5},
    "certify-search": {"trials": 2, "budget": 20_000},
}


class SmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        base = run.ROOT / ".perfbench_out"
        base.mkdir(exist_ok=True)
        self.out_root = Path(tempfile.mkdtemp(prefix="smoke-", dir=base))
        self.addCleanup(shutil.rmtree, self.out_root)

    def run_tiny(self, name: str, trace: bool = False) -> dict:
        with contextlib.redirect_stdout(io.StringIO()) as report:
            result = run.run_workload(name, 7, 0, trace, self.out_root, **TINY[name])
        self.report = report.getvalue()
        return result

    def test_tiny_workloads_pass_and_report_end_to_end_metrics(self) -> None:
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = self.run_tiny(name)
                self.assertTrue(result["correct"], self.report)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.metric_units("end_to_end")))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_exact_layer_counts(self) -> None:
        result = self.run_tiny("certify-search", trace=True)
        self.assertTrue(result["correct"], self.report)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(run.metric_units("per_layer")))
        # (3,4,2) and (4,4,3) certify after a fixed number of sets; the budget row uses all of its budget
        self.assertEqual(metrics["oracle.sets_examined"]["value"], 143_334 + 29_462 + 20_000)
        self.assertEqual(metrics["graph.bridges.calls"]["value"], 0)
        result = self.run_tiny("dense-io", trace=True)
        metrics = result["metrics"]
        # analyze scans bridges 8 times, generate's report twice
        self.assertEqual(metrics["graph.bridges.calls"]["value"], 10)
        self.assertEqual(metrics["graph.local_edges.calls"]["value"], 2)
        self.assertIn("metrics.build_report.self_s", self.report)

    def test_only_traced_calls_record_spans(self) -> None:
        workload = workloads.dense_io(3, self.out_root, **TINY["dense-io"])
        generate = workload.calls[1]
        plain = run.run_call(generate, self.out_root / "plain", "0:generate", False, run.child_env())
        traced = run.run_call(generate, self.out_root / "traced", "1:generate", True, run.child_env())
        self.assertIsNone(plain.error)
        self.assertIsNone(traced.error)
        self.assertEqual(plain.spans, [])
        self.assertLessEqual({"cli.main", "constructions.build", "fileio.write_graph"}, {span[1] for span in traced.spans})
        self.assertEqual(plain.digest, traced.digest)

    def test_wrong_outputs_count_as_failed(self) -> None:
        def corrupt(check):
            def wrong_certificate(code, stdout, out_dir):
                payload = json.loads(stdout)
                payload["certificate"]["b"] += 1
                return check(code, json.dumps(payload), out_dir)

            return wrong_certificate

        def broken_dense_io(seed, work_dir, **sizes):
            workload = workloads.dense_io(seed, work_dir, **sizes)
            analyze, generate = workload.calls
            missing = tuple(a if a != analyze.argv[2] else str(work_dir / "missing.txt") for a in analyze.argv)
            workload.calls = [
                dataclasses.replace(analyze, check=corrupt(analyze.check)),
                generate,
                dataclasses.replace(analyze, label="analyze-missing-file", argv=missing),
            ]
            return workload

        with mock.patch.dict(run.WORKLOADS, {"dense-io": broken_dense_io}):
            result = self.run_tiny("dense-io")
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 3 * run.MIN_OPS)
        self.assertEqual(result["failed"], 2 * run.MIN_OPS)
        self.assertRegex(self.report, r"failed_ratio\s+0\.666667")

    def test_fails_without_the_package_sources(self) -> None:
        bare = self.out_root / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "dense-io", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
