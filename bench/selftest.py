"""Fast self-test of the benchmark runner at reduced sizes (about 10 s).

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.cap_blas_threads()
sys.path.insert(0, str(run.SRC))

from fracprec import spectral, tables, verify  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _small_run(spec, trace):
    calls, traced = run.measure(spec, seed=3, seconds=0.0, trace=trace, small=True)
    return calls, traced, run.summarise(spec, 3, calls, traced, small=True)


class MetricNames(unittest.TestCase):
    def test_every_declared_metric_is_emitted_for_every_workload(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(run.WORKLOAD_NAMES))
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                spec = WORKLOADS[name]
                calls, traced, traced_result = _small_run(spec, trace=True)
                plain = run.summarise(spec, 3, calls, None, small=True)
                for result, kind in ((plain, "end_to_end"), (traced_result, "per_layer")):
                    units = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(units, _declared(kind))
                    self.assertTrue(result["correct"], result["details"]["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                self.assertGreater(plain["metrics"]["solve_s"]["value"], 0.0)
                self.assertGreater(traced_result["metrics"]["trace.coverage"]["value"], 0.5)


class BoundaryCalls(unittest.TestCase):
    def test_missing_boundary_call_fails_the_run(self):
        spec = dataclasses.replace(WORKLOADS["flux_grid"], rows=12)  # expects one call more
        _, _, result = _small_run(spec, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("boundary calls" in p for p in result["details"]["problems"]))

    def test_boundary_never_called_is_not_a_silent_zero(self):
        spec = dataclasses.replace(WORKLOADS["scalar_grid"], boundary=("spectral.apply_power",))
        _, _, result = _small_run(spec, trace=False)
        self.assertEqual(result["metrics"]["solve_s"]["value"], 0.0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("0 boundary calls" in p for p in result["details"]["problems"]))


class TracerBindings(unittest.TestCase):
    def test_bindings_are_restored(self):
        original = spectral.generalized_eig
        with Tracer(tuple(LAYERS)).installed():
            self.assertIsNot(tables.generalized_eig, original)
            self.assertIsNot(verify.generalized_eig, original)
        self.assertIs(tables.generalized_eig, original)
        self.assertIs(verify.generalized_eig, original)


class BareCheckout(unittest.TestCase):
    def test_exits_nonzero_without_result_when_sources_are_missing(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            root = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            (root / "bench").mkdir()
            for path in run.BENCH.glob("*.py"):
                shutil.copy(path, root / "bench")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "props", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
