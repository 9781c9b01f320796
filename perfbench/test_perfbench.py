"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # from the repository root

The smoke test builds the engine, runs every workload for one second,
traced and untraced, and fails unless every run passes its correctness
gate and emits every metric BENCHMARK.json names, with its unit. The
second test checks that the benchmark refuses to run (non-zero exit, no
result line) when the engine sources are not beside it.
"""

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchmarkTest(unittest.TestCase):
    def test_smoke_every_workload_emits_every_metric(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=1500)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])

    def test_refuses_without_engine_sources(self):
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "opt_chain", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
