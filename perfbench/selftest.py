"""The benchmark's own tests.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They run every workload at its smoke size (about half a minute), so they are
kept out of the repository's default pytest collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from typing import Dict

import run

SMOKE: Dict[str, Dict[str, tuple]] = {}


def smoke_output() -> Dict[str, Dict[str, tuple]]:
    """``{workload: {metric: (value, unit)}}`` printed by one ``--smoke`` run."""
    if not SMOKE:
        result = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke", "--seed", "5"],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise AssertionError(f"--smoke exited {result.returncode}:\n{result.stderr}")
        for line in result.stdout.splitlines():
            fields = line.split()
            if len(fields) >= 4 and fields[0] in run.WORKLOADS:
                SMOKE.setdefault(fields[0], {})[fields[1]] = (float(fields[2]), fields[3])
    return SMOKE


def flip_one_byte(out_dir: str) -> None:
    path = os.path.join(out_dir, sorted(os.listdir(out_dir))[0])
    with open(path, "r+b") as handle:
        handle.seek(100)
        byte = handle.read(1)
        handle.seek(100)
        handle.write(bytes([byte[0] ^ 0x01]))


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = run.load_spec()
        printed = smoke_output()
        self.assertEqual(set(printed), set(run.WORKLOADS))
        for workload, metrics in printed.items():
            for entry in spec["end_to_end"] + spec["per_layer"]:
                with self.subTest(workload=workload, metric=entry["name"]):
                    self.assertIn(entry["name"], metrics)
                    self.assertEqual(metrics[entry["name"]][1], entry["unit"])
            self.assertEqual(metrics["failed_share"][0], 0.0)

    def test_layers_move_only_where_predicted(self):
        printed = smoke_output()
        for workload, metrics in printed.items():
            with self.subTest(workload=workload):
                self.assertEqual(metrics["scenarios.transform_s"][0] > 0,
                                 workload == "grid-whatifs")
                self.assertEqual(metrics["checkpoint.save_s"][0] > 0, workload == "cold-stream")
                self.assertEqual(metrics["columnar.kernel_s"][0] == 0,
                                 workload == "object-sweep")
                self.assertEqual(metrics["quic.handshakes"][0] > 0, workload == "object-sweep")
                self.assertLessEqual(metrics["trace.unattributed_share"][0],
                                     run.UNATTRIBUTED_BOUND)
        warm, cold = printed["warm-stream"], printed["cold-stream"]
        self.assertEqual(warm["skeleton_store.misses"][0], 0)
        self.assertGreater(warm["skeleton_store.hits"][0], 0)
        self.assertGreater(cold["skeleton_store.misses"][0], 0)
        self.assertGreater(warm["sharding.shards"][0], 1)


class OracleTest(unittest.TestCase):
    def test_one_flipped_byte_fails_the_run(self):
        bench = run.Bench(run.WORKLOADS["object-sweep"], seed=3, smoke=True)
        bench.after_run = flip_one_byte
        try:
            run.measure(bench, 0, trace=False)
        finally:
            bench.close()
        self.assertGreater(bench.attempted, 0)
        self.assertEqual(bench.failed, bench.attempted)


class BareDirectoryTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cold-stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
