"""Self-tests of the benchmark itself, on tiny workload sizes.

    python3 perfbench/selftest.py

They check that every metric in BENCHMARK.json is printed with its unit, that
input digests follow the seed, that a wrong expected value is counted as a
failure, that tracing leaves the program's modules as it found them, and that
calibration samples stay out of op times and leave no timer behind.
"""

from __future__ import annotations

import inspect
import io
import json
import os
import signal
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(argv)
    return rc, buf.getvalue().splitlines()


def tiny(workload, trace):
    return ["--workload", workload, "--size", "tiny", "--seed", "3",
            "--seconds", "0.2", "--trace", str(trace)]


def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def function_bindings():
    return {
        (mod.__name__, name): obj
        for mod in spans.critgroup_modules()
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


class MetricsPrinted(unittest.TestCase):
    def assert_metrics(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                rc, lines = run_main(tiny(name, trace))
                self.assertEqual(rc, 0, lines)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                printed = {}
                for line in lines:
                    if line.startswith("metric "):
                        _, metric, value, unit = line.split()
                        float(value)
                        printed[metric] = unit
                for metric, unit in want.items():
                    self.assertEqual(printed.get(metric), unit, metric)
                if not trace:
                    self.assertEqual(printed.get("op_p50_ms"), "ms")
                    self.assertEqual(printed.get("fail_frac"), "frac")

    def test_end_to_end_metrics(self):
        self.assert_metrics(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.assert_metrics(1, BENCH["per_layer"])


class InputDigests(unittest.TestCase):
    def digest(self, name, seed):
        with workdir() as d:
            return workloads.build(name, seed, d, "tiny").digest

    def test_dense_follows_seed(self):
        self.assertEqual(self.digest("snf-dense", 1), self.digest("snf-dense", 1))
        self.assertNotEqual(self.digest("snf-dense", 1), self.digest("snf-dense", 2))

    def test_fixed_workloads_ignore_seed(self):
        for name in ("verify-ladder", "snf-kneser"):
            self.assertEqual(self.digest(name, 1), self.digest(name, 2))


class CorruptedExpectedValue(unittest.TestCase):
    CORRUPT = {
        "verify-ladder": lambda exp: exp["trees"].__setitem__(0, exp["trees"][0] + 1),
        "snf-kneser": lambda exp: exp.__setitem__("trees", exp["trees"] * 2),
        "snf-dense": lambda exp: exp.__setitem__("gcd", exp["gcd"] + 1),
    }

    def test_counted_in_fail_frac(self):
        cli = run.import_program()
        for name, corrupt in self.CORRUPT.items():
            with self.subTest(workload=name), workdir() as d:
                wl = workloads.build(name, 1, d, "tiny")
                corrupt(wl.ops[0].expected)
                batches = [run.checked_batch(wl, run.run_batch(cli, wl.ops)[1]) for _ in range(2)]
                outcome = run.untraced_outcome([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], batches, [0.0025])
                self.assertEqual(len(outcome.failures), 2)  # op 0 of each batch
                self.assertEqual(outcome.attempted, 2 * len(wl.ops))
                self.assertEqual(outcome.extra["fail_frac"][0], 2 / outcome.attempted)
                args = run.parse_args(tiny(name, 0))
                with redirect_stdout(io.StringIO()) as buf:
                    rc = run.report(args, wl, outcome)
                self.assertEqual(rc, 1)
                self.assertFalse(json.loads(buf.getvalue().splitlines()[-1])["correct"])


class TracingRestoresModules(unittest.TestCase):
    def test_wrappers_installed_then_removed(self):
        cli = run.import_program()
        before = function_bindings()
        critical = sys.modules["critgroup.critical"]
        reports = sys.modules["critgroup.reports"]
        for recorder in (spans.SpanRecorder(), spans.MemoryRecorder()):
            with self.subTest(recorder=type(recorder).__name__):
                with self.assertRaises(RuntimeError):
                    with recorder.tracing():
                        # from-imported bindings are wrapped too
                        self.assertIsNot(critical.matrix_rank, before[("critgroup.intmat", "matrix_rank")])
                        self.assertIsNot(reports.smith_normal_form,
                                         before[("critgroup.intmat", "smith_normal_form")])
                        with redirect_stdout(io.StringIO()):
                            rc = cli.main(["group", "5", "--format", "json"])
                        self.assertEqual(rc, 0)
                        raise RuntimeError("leave the traced block by an error")
                after = function_bindings()
                self.assertEqual(after.keys(), before.keys())
                for key, obj in before.items():
                    self.assertIs(after[key], obj, key)


class Calibration(unittest.TestCase):
    def test_sample_time_left_out_of_op_time(self):
        cal = calibrate.Calibrator()

        class InterruptedCli:
            @staticmethod
            def main(argv):
                cal.sample()  # what the timer signal does in the middle of an op
                return 0

        rc, _, t0, t1 = run.run_op(InterruptedCli, workloads.Op(["snf", "x"], "snf-dense"), cal)
        self.assertEqual(rc, 0)
        self.assertEqual(len(cal.samples), 1)
        self.assertGreater(cal.spent, 0)
        self.assertLess(t1 - t0, cal.spent)
        self.assertAlmostEqual(cal.since(0), calibrate.REFERENCE_S / cal.samples[0])

    def test_timer_stopped_and_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        cal = calibrate.Calibrator(every=0.01)
        with self.assertRaises(RuntimeError):
            with cal.running():
                self.assertNotEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
                raise RuntimeError("leave the calibrated block by an error")
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class MissingProgram(unittest.TestCase):
    def test_setup_fails_without_sources(self):
        saved = run.SRC
        with workdir() as d:
            run.SRC = d
            try:
                with redirect_stderr(io.StringIO()) as err:
                    rc, lines = run_main(tiny("snf-dense", 0))
            finally:
                run.SRC = saved
        self.assertEqual(rc, 2)
        self.assertIn("set-up failed", err.getvalue())
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
