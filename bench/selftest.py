"""Self-test of the benchmark (tiny sizes, a few seconds on 2 cores).

    python3 bench/selftest.py

Kept out of the package's pytest suite on purpose: it times nothing, but it
runs the whole benchmark ladder in subprocesses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

import run
import speed
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class TinyLadder(unittest.TestCase):
    def _check_all(self, trace: int, declared: list[dict]):
        proc = _run_bench("--tiny", "--seconds", "0", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in declared}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, value in result["metrics"].items():
            self.assertIsInstance(value["value"], (int, float), name)

    def test_every_end_to_end_metric_with_unit(self):
        self._check_all(0, BENCHMARK["end_to_end"])

    def test_every_per_layer_metric_with_unit(self):
        self._check_all(1, BENCHMARK["per_layer"])


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.cli = run.import_cli()
        run.WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))

    def tearDown(self):
        shutil.rmtree(self.work)

    def _pass(self, seed: int, golden, after_stage=None) -> run.PassResult:
        workload = run.prepare("long-decode", seed, True, self.work)
        return run.run_pass(self.cli, workload, self.work, golden, after_stage=after_stage)

    def test_clean_pass_matches_golden(self):
        result = self._pass(run.DEFAULT_SEED, run.load_golden()["tiny"]["long-decode"])
        self.assertEqual((result.failed, result.errors), (0, []))
        self.assertEqual(result.attempted, 10)

    def test_corrupted_report_counts_as_failure(self):
        def corrupt(stage, work):
            if stage.name == "metrics":
                path = work / "metrics.csv"
                data = bytearray(path.read_bytes())
                data[-2] ^= 1  # one flipped bit in the last value
                path.write_bytes(bytes(data))

        result = self._pass(run.DEFAULT_SEED, run.load_golden()["tiny"]["long-decode"], corrupt)
        self.assertEqual(result.failed, 1)
        self.assertIn("metrics: report digest mismatch: metrics.csv", result.errors[0])

    def test_broken_invariant_counts_without_golden(self):
        def inject_violation(stage, work):
            if stage.name == "bound-check-c06":
                path = work / "bound_c06.json"
                report = json.loads(path.read_text())
                report["n_step_violations"] = 1
                path.write_text(json.dumps(report))

        result = self._pass(7, None, inject_violation)
        self.assertEqual(result.failed, 1)
        self.assertIn("bound violation", result.errors[0])


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpeedClock(unittest.TestCase):
    def test_samples_inside_a_call_are_not_timed(self):
        clock = speed.Clock(0.05)
        start = time.perf_counter()
        clock.call(_spin, 0.5)
        elapsed = time.perf_counter() - start
        self.assertGreaterEqual(clock.samples, 3)
        self.assertLess(clock.host_s, elapsed - clock.samples * 0.5 * speed.REFERENCE_S)
        self.assertGreater(clock.scaled_s, 0)

    def test_no_samples_while_other_threads_run(self):
        clock = speed.Clock(0.05)

        def with_thread():
            worker = threading.Thread(target=_spin, args=(0.3,))
            worker.start()
            worker.join()

        clock.call(with_thread)
        # Six alarms fall while the worker spins; one still pending when it
        # ends may be served, by then with no other thread alive.
        self.assertLessEqual(clock.samples, 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench("--workload", "long-decode", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
