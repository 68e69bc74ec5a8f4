#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, must emit exactly the metrics BENCHMARK.json declares, with every
oracle passing.

    python3 galbench/smoke_test.py      (from the repository root)
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "galbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


# Per-layer metrics each workload must move: the layers it exists for.
EXERCISED = {
    "memory": ["tlav.messages", "frontier.edges_scanned", "cluster.cross_msgs",
               "graph.intersection_ops", "tlag.tasks", "match.search_nodes",
               "tensor.gemm_share", "dist.halo_rows", "cluster.checkpoint_mb",
               "cluster.restored_mb", "cluster.recomputed_rounds", "test_acc",
               "pagerank.share", "wcc.share", "bfs.share", "triangles.share",
               "match.share", "train.share", "wire_mb"],
    "ooc": ["ooc.shard_loads", "ooc.io_share", "ooc.load_share",
            "graph.intersection_ops", "pagerank.share", "wcc.share",
            "triangles.share"],
}


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-2000:])
        self.assertGreaterEqual(len(lines), 2)
        config = json.loads(lines[-2])["config"]
        for key in ("threads", "nproc", "simd_isa", "seed"):
            self.assertIn(key, config)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            metric = result["metrics"][m["name"]]
            self.assertEqual(metric["unit"], m["unit"])
            self.assertTrue(math.isfinite(metric["value"]), m["name"])
            if not trace:
                self.assertGreater(metric["value"], 0, m["name"])
        if trace:
            for name in EXERCISED[workload]:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        # A time metric is measured on every workload, never a constant 0.
        for m in declared:
            if m["unit"] == "s" and m["name"] != "trace.overhead_s":
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])

    def test_every_workload(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_bad_arguments_fail_without_result(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
