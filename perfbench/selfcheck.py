"""Fast self-check of the benchmark's parsing, aggregation and output checks.

    python3 perfbench/selfcheck.py

Runs in about a second and starts no ``dynamap`` process.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
from run import ATOL, Invocation, Outcome


def _row(tau, err_ttm, err_tl, flagged=False, stable=True):
    return {"tau_c": tau, "err_ttm": err_ttm, "err_tl": err_tl,
            "tl_flagged": flagged, "tl_spectral_stable": stable}


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metrics_and_units_match_benchmark_json(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in self.spec[key]}, units)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in run.WORKLOADS.values()})

    def test_every_compare_invocation_has_expected_rows(self):
        expected = json.loads(run.EXPECTED.read_text())
        for workload in run.WORKLOADS.values():
            for stage in workload.stages:
                for inv in stage:
                    if inv.command == "compare":
                        self.assertIn("compare.csv", expected[workload.name][inv.key])


class CompareCheckTest(unittest.TestCase):
    expected = [_row(0.5, 1e-3, 2e-3), _row(16.0, 1e-9, None, stable=False)]

    def check(self, rows):
        return run.check_compare(rows, self.expected)

    def test_match_within_tolerance_passes(self):
        rows = [_row(0.5, 1e-3 + 0.5 * ATOL, 2e-3 - 0.5 * ATOL),
                _row(16.0, 1e-9, math.nan, stable=False)]
        self.assertEqual(self.check(rows), ([], []))

    def test_value_beyond_tolerance_is_an_error(self):
        errors, violations = self.check([_row(0.5, 1e-3 + 2 * ATOL, 2e-3),
                                          _row(16.0, 1e-9, math.nan, stable=False)])
        self.assertEqual(len(errors), 1)
        self.assertIn("err_ttm", errors[0])
        self.assertEqual(violations, [])

    def test_nan_where_defined_is_an_error(self):
        errors, _ = self.check([_row(0.5, 1e-3, math.nan),
                                _row(16.0, 1e-9, math.nan, stable=False)])
        self.assertEqual(len(errors), 1)

    def test_finite_err_tl_on_unstable_cutoff_is_a_violation(self):
        errors, violations = self.check([_row(0.5, 1e-3, 2e-3),
                                         _row(16.0, 1e-9, 3.2e26, stable=False)])
        self.assertEqual(errors, [])
        self.assertEqual(len(violations), 1)
        self.assertIn("tau_c=16", violations[0])

    def test_finite_err_tl_on_flagged_cutoff_is_a_violation(self):
        expected = [_row(1.0, 0.1, None, flagged=True)]
        errors, violations = run.check_compare([_row(1.0, 0.1, 0.2, flagged=True)], expected)
        self.assertEqual((len(errors), len(violations)), (0, 1))

    def test_changed_flag_is_an_error(self):
        errors, _ = self.check([_row(0.5, 1e-3, 2e-3), _row(16.0, 1e-9, 5e-3)])
        self.assertTrue(any("tl_spectral_stable" in e for e in errors))

    def test_changed_cutoff_list_is_an_error(self):
        errors, _ = self.check([_row(0.5, 1e-3, 2e-3)])
        self.assertEqual(len(errors), 1)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.out = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_parses_compare_csv_and_observable_csv(self):
        (self.out / "compare.csv").write_text(
            "tau_c,err_ttm,err_tl,tl_flagged,tl_spectral_stable,tdist_ttm,tdist_tl\n"
            "0.5,0.001,nan,true,false,0.1,nan\n"
        )
        (self.out / "ttm_obs_tauc0.5.csv").write_text("t,sigma_z\n0.0,1.0\n10.0,0.25\n")
        [row] = run.read_compare_csv(self.out / "compare.csv")
        self.assertEqual(row["tau_c"], 0.5)
        self.assertTrue(row["tl_flagged"])
        self.assertFalse(row["tl_spectral_stable"])
        self.assertTrue(math.isnan(row["err_tl"]))
        self.assertEqual(run.final_value(self.out / "ttm_obs_tauc0.5.csv"), 0.25)

    def test_missing_or_unreadable_files_fail(self):
        (self.out / "tensors.tten").write_bytes(b"")
        partial = Outcome(Invocation("ttm", "x", "p"), exit_code=0)
        run.check_outputs(partial, self.out, {"ttm_obs_tauc1.csv": 0.5})
        self.assertEqual(partial.errors, ["tensor_norms.csv missing", "ttm_obs_tauc1.csv missing"])

        (self.out / "compare.csv").write_text("tau_c,err_ttm\n0.5,0.1\n")
        broken = Outcome(Invocation("compare", "x", "p"), exit_code=0)
        run.check_outputs(broken, self.out, {"compare.csv": []})
        self.assertIn("compare.csv unreadable", broken.errors[-1])

    def test_final_value_is_checked(self):
        for name in run.PROMISED["tl"]:
            (self.out / name).write_text("")
        (self.out / "tl_obs_tauc1.csv").write_text("t,sigma_z\n10.0,0.5\n")
        outcome = Outcome(Invocation("tl", "x", "p"), exit_code=0)
        run.check_outputs(outcome, self.out, {"tl_obs_tauc1.csv": 0.5 + 2 * ATOL})
        self.assertEqual(len(outcome.errors), 1)


class SpawnTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.log = run.WORK / "selfcheck.log"

    def tearDown(self):
        self.log.unlink(missing_ok=True)

    def test_exit_code_and_output_are_kept(self):
        argv = [sys.executable, "-c", "print('hello'); raise SystemExit(3)"]
        wall, cpu, rss, code = run.spawn(argv, time.monotonic() + 30, self.log)
        self.assertEqual(code, 3)
        self.assertGreater(wall, 0.0)
        self.assertGreater(rss, 0.0)
        self.assertEqual(self.log.read_text().strip(), "hello")

    def test_child_is_killed_at_the_deadline(self):
        argv = [sys.executable, "-c", "import time; time.sleep(30)"]
        wall, *_, code = run.spawn(argv, time.monotonic() + 0.3, self.log)
        self.assertEqual(code, -signal.SIGKILL)
        self.assertLess(wall, 5.0)


def _span(name, start, end, parent=None, counts=None):
    span = {"name": name, "start": start, "end": end, "parent": parent}
    if counts:
        span["counts"] = counts
    return span


class AggregationTest(unittest.TestCase):
    def traced_outcome(self):
        spans = [
            _span("harness.load_config", 0.0, 0.1),
            _span("timelocal.local_maps", 0.1, 1.1, counts={"flagged": 3, "min_sv_ratio": 1e-9}),
            _span("maps.singular_values", 0.2, 0.5, parent=1),
            _span("propagators.quapi_propagate", 1.1, 3.1,
                  counts={"steps": 100, "peak_entries": 4**10}),
            _span("lindblad.rate_series", 3.1, 3.6, counts={"attempted": 10, "flagged": 4}),
            _span("serialization", 3.6, 3.7, counts={"bytes": 100}),
        ]
        trace = {"exit_code": 0, "import_s": 0.8, "main_s": 4.0, "spans": spans}
        return Outcome(Invocation("tl", "x", "p"), wall_s=5.0, exit_code=0, trace=trace)

    def test_layer_values(self):
        values = run.layer_values([self.traced_outcome(), self.traced_outcome()])
        self.assertAlmostEqual(values["timelocal.local_maps.s"], 2.0)
        self.assertAlmostEqual(values["maps.singular_values.s"], 0.6)
        self.assertAlmostEqual(values["propagators.quapi_propagate.ms_per_step"], 20.0)
        self.assertEqual(values["propagators.quapi_propagate.peak_entries"], 4**10)
        self.assertEqual(values["timelocal.local_maps.flagged"], 6)
        self.assertEqual(values["timelocal.local_maps.min_sv_ratio"], 1e-9)
        self.assertAlmostEqual(values["lindblad.rate_series.flagged_frac"], 0.4)
        self.assertEqual(values["serialization.bytes"], 200)
        self.assertEqual(values["propagators.eta_coefficients.s"], 0.0)
        # wall = startup + top-level spans + unaccounted, per invocation
        self.assertAlmostEqual(values["trace.startup_s"], 2 * 1.0)
        self.assertAlmostEqual(values["trace.unaccounted_s"], 2 * (4.0 - 3.7))

    def test_per_layer_reports_every_metric_and_overhead(self):
        untraced = [Outcome(Invocation("tl", "x", "p"), wall_s=4.5, exit_code=0)]
        metrics = run.per_layer([[self.traced_outcome()]], [untraced])
        self.assertEqual(list(metrics), list(run.PER_LAYER_UNITS))
        self.assertAlmostEqual(metrics["trace.overhead_s"].value, 0.5)

    def test_end_to_end_and_summary(self):
        def sample(wall, violation=False):
            a = Outcome(Invocation("generate", "x", "p"), wall_s=wall, cpu_s=wall,
                        rss_mb=90.0, exit_code=0)
            b = Outcome(Invocation("compare", "x", "p"), wall_s=wall, cpu_s=wall,
                        rss_mb=130.0, exit_code=0)
            if violation:
                b.violations.append("err_tl finite")
            return [a, b]

        samples = [sample(1.0, True), sample(3.0), sample(2.0)]
        metrics = run.end_to_end([0.9, 0.8, 1.0], samples)
        self.assertEqual(list(metrics), list(run.END_TO_END_UNITS))
        self.assertEqual(metrics["wall_s"].value, 4.0)
        self.assertEqual(metrics["setup_s"].value, 0.9)
        self.assertEqual(metrics["peak_rss_mb"].value, 130.0)
        self.assertAlmostEqual(metrics["ok_frac"].value, 5 / 6)

        result = run.RunResult(metrics, [o for s in samples for o in s], {})
        line = run.summary({"w/trace0": result})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 6, 1))
        self.assertEqual(line["metrics"]["wall_s"], {"value": 4.0, "unit": "s"})
        samples[1][0].errors.append("exit code 3")
        self.assertFalse(run.summary({"w/trace0": result})["correct"])


class OrderTest(unittest.TestCase):
    def test_seed_shuffles_only_within_stages(self):
        workload = run.WORKLOADS["embedding_pipeline"]
        orders = {tuple(i.command for i in workload.order(random.Random(seed)))
                  for seed in range(20)}
        self.assertGreater(len(orders), 1)
        self.assertTrue(all(order[0] == "generate" for order in orders))
        self.assertEqual(workload.order(random.Random(7)), workload.order(random.Random(7)))


if __name__ == "__main__":
    unittest.main()
