#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark through run.py, as any caller would, and check that
the request generators are deterministic in the seed, that a short mode of
every workload runs clean, and that the metric names printed are exactly
those BENCHMARK.json declares.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the runner has; BENCHMARK.json declares those whose
# end-to-end figures are steady enough to gate on (see NOTES.md).
WORKLOADS = ("aco_tsp", "tenants", "replay_1m", "tenants_durable")
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run(*args, root=ROOT):
    """run.py from the checkout at `root`, run there."""
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=900)


class RequestStreams(unittest.TestCase):
    def dump(self, workload, seed):
        path = BUILD / f"requests-{workload}-{seed}.bin"
        done = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", "0", "--ops", "4", "--dump-requests", str(path))
        self.assertEqual(done.returncode, 0, done.stderr)
        return path.read_bytes()

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertGreater(len(first), 0)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertNotEqual(first, self.dump(workload, 8))


class ShortMode(unittest.TestCase):
    def check(self, trace, section):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                done = run("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", trace, "--ops", "3")
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stdout)
                self.assertGreaterEqual(result["attempted"], 3)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m["name"] for m in SPEC[section]))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], UNITS[name], name)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check("0", "end_to_end")

    def test_traced_prints_every_per_layer_metric_and_a_trace(self):
        self.check("1", "per_layer")
        trace = BUILD / "work" / "trace-tenants_durable-seed3.json"
        events = json.loads(trace.read_text())["traceEvents"]
        self.assertTrue(any(e["name"] == "persist.sync" for e in events))


class MissingSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = BUILD / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run("--workload", "tenants", "--seed", "1", "--seconds", "1",
                   "--trace", "0", root=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
