"""Self-test of the benchmark harness at smoke size.

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric is emitted with its unit
and sample count, that the JSON result line holds the gated metrics, that
failing ops raise ``fail_frac``, that the jets-sweep radii are seeded and
stratified, and that traced counts repeat exactly.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest

import run

GRID = ["--t-grid", "0.1:0.5:7"]


small_lattice = run.lattice_workload(3, 8, 300)


def _small_jets(rng):
    return [[
        run.verify_op(["sphere2", "--radius", f"{rng.uniform(1, 2):.4f}"], 2, 2, GRID, 7),
        run.curvature_op(["torus", "--radii", "1.2,1.7"]),
    ]]


small_jets = run.Workload(_small_jets, redraw=False)
# A grid ratio above 1 is a config error: the second op exits with code 2.
exits_2 = run.Workload(lambda rng: [[
    run.lattice_op(3, 8, 300, 1),
    run.verify_op(["sphere2"], 2, 2, ["--t-grid", "0.1:2:7"], 7)]], redraw=False)


def last_json_line(args):
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (run.WORK / "ops").mkdir(parents=True, exist_ok=True)

    def assert_metrics(self, metrics, units):
        self.assertEqual(set(metrics), set(units))
        for name, unit in units.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertGreaterEqual(metrics[name]["samples"], 1, name)
            self.assertIsInstance(metrics[name]["value"], (int, float), name)

    def test_timed_run_emits_every_metric(self):
        units = {**run.metric_units("end_to_end"), **run.UNGATED_UNITS}
        for name, workload in (("smoke-lattice", small_lattice), ("smoke-jets", small_jets)):
            res = run.run_workload(name, workload, seed=3, seconds=0.1, trace=False)
            self.assertTrue(res["correct"], res["ops"])
            self.assert_metrics(res["metrics"], units)
            # One set-up spawn per cycle.
            self.assertEqual(res["metrics"]["setup_s"]["samples"],
                             res["metrics"]["op_s.p50"]["samples"])
            self.assertEqual(res["metrics"]["fail_frac"]["value"], 0.0)
            self.assertGreater(res["metrics"]["work_per_s"]["value"], 0.0)

    def test_op_that_exits_2_raises_fail_frac(self):
        res = run.timed_run(exits_2, seed=3, seconds=0.1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertAlmostEqual(res["metrics"]["fail_frac"]["value"], 1 / res["attempted"])
        self.assertIn("exit code 2", res["ops"][1]["failure"])

    def test_cut_short_or_wrong_outputs_fail(self):
        op = small_lattice.draw(random.Random(5))[0][0]
        res = run.run_op(op)
        self.assertTrue(res.ok, res.failure)
        csv = run.ROOT / op.csv_path
        data = csv.read_bytes()
        csv.write_bytes(data[: len(data) // 2])
        self.assertIn("CSV", run.check_op(op, 0, res.spawn.stdout)[1])
        csv.write_bytes(data)
        self.assertEqual(run.check_op(op, 0, res.spawn.stdout), (300, ""))
        report = run.ROOT / op.json_path
        report.write_text(report.read_text().replace('"passed": true', '"passed": false'))
        self.assertIn("passed", run.check_op(op, 0, res.spawn.stdout)[1])

    def test_jets_pass_is_seeded_and_stratified(self):
        first = run.jets_pass(random.Random(7))
        self.assertEqual(first, run.jets_pass(random.Random(7)))
        self.assertNotEqual(first, run.jets_pass(random.Random(8)))
        radii = [[float(r) for op in cycle for flag, arg in zip(op.argv, op.argv[1:])
                  if flag in ("--radius", "--radii") for r in arg.split(",")]
                 for cycle in first]
        self.assertEqual({len(r) for r in radii}, {run.JETS_RADII_PER_CYCLE})
        for slot in zip(*radii):  # one radius from each quarter of [1, 2]
            self.assertEqual(sorted(int((r - 1) * run.JETS_CYCLES) for r in slot),
                             list(range(run.JETS_CYCLES)))

    def test_traced_run_metrics_repeat_and_add_up(self):
        units = run.metric_units("per_layer")
        for name, workload in (("smoke-lattice", small_lattice), ("smoke-jets", small_jets)):
            first = run.run_workload(name, workload, seed=4, seconds=0, trace=True)
            second = run.run_workload(name, workload, seed=4, seconds=0, trace=True)
            self.assertTrue(first["correct"], first["failures"])
            self.assertTrue(second["correct"], second["failures"])
            self.assert_metrics(first["metrics"], units)
            for name, unit in units.items():
                if unit != "s" and name != "trace.overhead_frac":
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
            for rnd in first["rounds"]:
                layers = sum(rnd["self_s"].values())
                self.assertGreater(layers, 0.0)
                self.assertLess(layers, rnd["traced_wall_s"])
            calls = {k: v["value"] for k, v in first["metrics"].items()}
            if workload is small_jets:
                self.assertGreater(calls["jets.calls"], 0)
                self.assertGreater(calls["manifolds.modes_summed"], 0)
                self.assertGreater(calls["asymptotics.fits"], 0)
            else:
                self.assertGreater(calls["wick.calls"], 0)
                self.assertGreater(calls["lattice.calls"], 0)

    def test_result_line(self):
        gated = run.metric_units("end_to_end")
        line = last_json_line(["--workload", "lattice-sparse", "--seed", "2",
                               "--seconds", "0", "--trace", "0"])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(gated))


if __name__ == "__main__":
    unittest.main(verbosity=2)
