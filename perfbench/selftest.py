"""Schema test of the benchmark at tiny N; it asserts no speed.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from numbers import Real
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run("--workload", workload, "--seed", str(SEED), "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["correct"], bool)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(0 <= result["failed"] <= result["attempted"])
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            metric = result["metrics"][m["name"]]
            self.assertEqual(metric["unit"], m["unit"])
            self.assertIsInstance(metric["value"], Real)
        record = json.loads(
            (ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        for key in ("python", "numpy", "nproc", "git_sha", "seed", "workload", "counts"):
            self.assertIn(key, record)
        self.assertEqual(record["seed"], SEED)

    def test_every_workload_both_modes(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_fails_without_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run("--workload", "stream", "--seed", "1", "--tiny", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
