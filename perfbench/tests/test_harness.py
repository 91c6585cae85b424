"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests     # from the repository root

The smoke tests build the release binaries and the tracer (into
$CARGO_TARGET_DIR, default `.bench_build`) and run every workload at a
tiny size, untraced and traced.
"""

import io
import json
import os
import subprocess
import sys
import unittest
from contextlib import redirect_stderr

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
from harness import loadgen, procs, spans, stats, workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values), (99.0, 990, 1000))

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1000))
        p, v, n = stats.tail_percentile(values)
        self.assertEqual((p, v, n), (95.0, 950, 999))
        self.assertGreaterEqual(sum(1 for x in values if x > v), 10)

    def test_too_few_samples_reports_none_with_the_count(self):
        self.assertEqual(stats.tail_percentile([3.0, 1.0, 2.0]), (None, None, 3))

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 100), 4)


class DueTimeArithmetic(unittest.TestCase):
    def test_latency_counts_from_due_time_and_drops_missing(self):
        due = {1: 10.0, 2: 10.001, 3: 10.002}
        done = {1: 10.0005, 2: 10.004}
        lat = stats.due_latencies(due, done)
        self.assertEqual(sorted(lat), [1, 2])
        self.assertAlmostEqual(lat[1], 0.0005)
        self.assertAlmostEqual(lat[2], 0.003)

    def test_a_late_send_is_charged_to_latency_and_lateness(self):
        due = {7: 1.0}
        self.assertAlmostEqual(stats.lateness(due, {7: 1.25})[7], 0.25)
        self.assertAlmostEqual(stats.due_latencies(due, {7: 1.5})[7], 0.5)

    def test_an_early_send_is_not_negative_lateness(self):
        self.assertEqual(stats.lateness({1: 2.0}, {1: 1.9})[1], 0.0)

    def test_capacity_per_cpu_second_and_wall_span(self):
        r = loadgen.MonitorRun()
        r.burst_ids = [1, 2, 3]
        r.done = {1: 5.0, 2: 5.5, 3: 6.0}
        self.assertAlmostEqual(loadgen.capacity_wall_rps(r), 2.0)
        self.assertIsNone(loadgen.capacity_rps(r))
        r.burst_cpu_s = 0.5
        self.assertAlmostEqual(loadgen.capacity_rps(r), 6.0)


class CpuProbe(unittest.TestCase):
    def test_reports_exit_code_and_the_childs_cpu_time(self):
        spin = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.05: pass"
        code, cpu_s = procs.cpu_run([sys.executable, "-c", spin], ROOT, dict(os.environ))
        self.assertEqual(code, 0)
        self.assertGreaterEqual(cpu_s, 0.05)
        code, _ = procs.cpu_run([sys.executable, "-c", "raise SystemExit(3)"], ROOT,
                                dict(os.environ))
        self.assertEqual(code, 3)


class SpanSelfTime(unittest.TestCase):
    def test_union_of_overlapping_children(self):
        self.assertEqual(spans.covered(0, 100, [(10, 30), (20, 40), (90, 120)]), 40)

    def test_self_time_subtracts_children(self):
        rows = [["1", "0", "run", "0", "0", "100", "0", "0"],
                ["2", "1", "benchgen", "0", "10", "30", "0", "0"],
                ["3", "1", "search", "0", "20", "50", "5", "2"]]
        self_ns = spans.self_times([spans.Span(r) for r in rows])
        self.assertEqual(self_ns, {1: 60, 2: 20, 3: 30})


class Names(unittest.TestCase):
    def test_metric_and_workload_names_and_units(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_name(name), name)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertTrue(stats.valid_unit(m["unit"]), m)
        self.assertEqual(sorted(w["name"] for w in s["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_units_are_printed(self):
        buf = io.StringIO()
        with redirect_stderr(buf):
            run.emit_table("t", {"setup_s": (1.5, "s", 3), "latency_p50_ms": (None, "ms", 0)})
        out = buf.getvalue()
        self.assertIn("setup_s", out)
        self.assertRegex(out, r"1\.5 +s +n=3")
        self.assertRegex(out, r"n/a +ms +n=0")


class Stream(unittest.TestCase):
    def test_same_seed_same_stream_and_ids_unique(self):
        lists = loadgen.corpus_task_lists(os.path.join(ROOT, workloads.CORPUS))
        shape = loadgen.StreamShape(open_requests=50, open_rate=100.0, burst_requests=50)
        a = loadgen.make_stream(4, shape, lists)
        self.assertEqual(a, loadgen.make_stream(4, shape, lists))
        self.assertNotEqual(a, loadgen.make_stream(5, shape, lists))
        ids = [i for phase in a for i, _ in phase]
        self.assertEqual(ids, list(range(1, len(ids) + 1)))
        self.assertEqual(len(a[0]), len(loadgen.CELLS) + 1)


class Smoke(unittest.TestCase):
    """Every workload end to end at a tiny size, untraced and traced."""

    def run_bench(self, workload, trace):
        res = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(res.returncode, 0, res.stderr[-3000:])
        return json.loads(res.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        s = spec()
        for name in workloads.WORKLOADS:
            for trace, wanted in ((0, s["end_to_end"]), (1, s["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    out = self.run_bench(name, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
                    for m in wanted:
                        self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])


if __name__ == "__main__":
    unittest.main()
