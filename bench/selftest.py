#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of leechlab).

    python3 bench/selftest.py

The two tamper tests run bench/run.py on a copy of bench/ in a temporary
directory, next to a link to this checkout's src/, so the committed files are
never modified. The reference test runs one full census pass (about 10 s).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import workloads

BENCH = workloads.BENCH
ROOT = workloads.ROOT
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_copy(tamper, workload: str) -> subprocess.CompletedProcess:
    """run.py on a tampered copy of the benchmark; returns the finished process."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        (root / "src").symlink_to(workloads.SRC.resolve(), target_is_directory=True)
        tamper(root / "bench" / "data")
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=170,
        )


class MetricNames(unittest.TestCase):
    def test_names_match_pattern_and_are_unique(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_declared_workloads_are_the_runnable_ones(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from run import EXPECTED_LAYERS

        self.assertEqual([w["name"] for w in spec["workloads"]], list(EXPECTED_LAYERS))

    def test_traced_metrics_are_the_declared_per_layer_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from spans import layer_metrics

        emitted = set(layer_metrics([])) | {"pool.cpu_util", "trace.overhead_s"}
        self.assertEqual(emitted, {m["name"] for m in spec["per_layer"]})

    def test_result_line_carries_every_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "geodesic-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))


class Gates(unittest.TestCase):
    def test_tampered_corpus_byte_fails_the_run(self):
        def flip_byte(data: Path):
            body = bytearray((data / workloads.CORPUS).read_bytes())
            body[1] = ord("@") if body[1] != ord("@") else ord("?")
            (data / workloads.CORPUS).write_bytes(bytes(body))

        proc = run_copy(flip_byte, "census-order6")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("sha256", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_tampered_reference_verdict_fails_the_run(self):
        def flip_verdict(data: Path):
            path = data / "reference.json"
            ref = json.loads(path.read_text())
            ref["census-order6"]["verdicts"]["E?Bw"] = "leech"
            path.write_text(json.dumps(ref))

        proc = run_copy(flip_verdict, "census-order6")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("E?Bw", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_node_limited_row_counts_as_failed(self):
        workloads.import_leechlab()
        lines = workloads.read_corpus()[:3]
        rows = subprocess.run(
            [sys.executable, "-m", "leechlab.cli", "census", "-", "--workers", "1", "--node-limit", "1"],
            input="\n".join(lines) + "\n", capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(workloads.SRC)},
        ).stdout.splitlines()
        rows = [json.loads(line) for line in rows][:-1]
        self.assertEqual(len(rows), 3)
        self.assertEqual(workloads.count_failures(rows), 3)
        self.assertEqual(workloads.count_failures([{"verdict": "leech"}, {"verdict": "error"}]), 1)


if __name__ == "__main__":
    unittest.main()
