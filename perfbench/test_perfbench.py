#!/usr/bin/env python3
"""The benchmark's own tests: metric names and units, the statistics and
span arithmetic, and — at a small scale — that every traced decomposition
returns exactly what the pipeline's Run() returns.

    python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# The end-to-end figures the benchmark prints by name, with their units.
NAMED_END_TO_END = {
    "join": {"join.cold_ms": "ms", "join.warm_ms": "ms"},
    "select": {"select.p50_us": "us", "select.p99_us": "us",
               "select.qps": "1/s"},
    "serve": {"serve.select_p50_ms": "ms", "serve.select_p99_ms": "ms",
              "serve.join_p90_ms": "ms", "serve.write_p99_us": "us",
              "serve.qps": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "frac"}


def synthetic_record(workload):
    lat = [float(i) for i in range(1, 2001)]
    s = {"setup_s": [0.3, 0.1, 0.2]}
    if workload == "join":
        s.update({"join.cold_ms": lat[:30], "join.warm_ms": lat[:30]})
    elif workload == "select":
        s.update({"select.latency_us": lat, "select.rect_us": lat,
                  "select.complex_us": lat})
    else:
        for kind in run.SERVE_KINDS:
            s[f"serve.{kind}_ms"] = lat
        s.update({"serve.write_us": lat, "serve.writer_late_ms": lat})
    return {"workload": workload, "correct": True, "attempted": 10,
            "failed": 0, "samples": s,
            "counts": {"wall_s": 2.0, "queries": 100.0, "peak_rss_mb": 9.0}}


class NamesAndUnits(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_named_end_to_end_metrics(self):
        for workload, expected in NAMED_END_TO_END.items():
            metrics, named = run.end_to_end(synthetic_record(workload))
            units = {name: unit for name, _, unit, _, _ in named}
            for name, unit in {**expected, **COMMON}.items():
                self.assertEqual(units.get(name), unit, (workload, name))
            self.assertEqual(set(metrics), set(run.END_TO_END))
        self.assertEqual(
            sum(len(v) for v in NAMED_END_TO_END.values()) + len(COMMON), 13)


class Statistics(unittest.TestCase):
    def test_quantiles(self):
        values = list(range(1, 1001))
        self.assertEqual(run.quantile(values, 0.99), 990)
        self.assertEqual(run.beyond(1000, 0.99), 10)
        # tail_ms / second_ms: p90 while 10 samples lie beyond it, else p50.
        self.assertEqual(run.gated_tail(100), 0.9)
        self.assertEqual(run.gated_tail(99), 0.5)

    def test_self_times(self):
        def span(cat, name, ts, dur, qid=1, tid=0):
            return {"ph": "X", "cat": cat, "name": name, "ts": ts, "dur": dur,
                    "tid": tid, "args": {"qid": qid}}
        events = [span("op", "q", 0.0, 100.0), span("index", "a", 1.0, 10.0),
                  span("core", "b", 20.0, 50.0),
                  span("op", "w", 0.0, 5.0, qid=2, tid=1),
                  span("data", "c", 1.0, 4.0, qid=2, tid=1)]
        ops, spans = run.self_times(events)
        self.assertEqual(ops[1], ["q", 100.0, 40.0])
        self.assertEqual(ops[2], ["w", 5.0, 1.0])
        self.assertEqual(sorted(s[1] for s in spans), ["a", "b", "c"])
        with self.assertRaises(run.BenchError):
            run.self_times(events + [span("core", "x", 200.0, 1.0, qid=9)])


class ExitStatus(unittest.TestCase):
    def test_incorrect_run_prints_result_then_exits_1(self):
        rec = synthetic_record("select")
        rec.update({"correct": False, "failed": 1})
        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_binary", return_value=(rec, None)), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "select", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class DecompositionMatchesRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload):
        rec, events = run.run_binary(workload, seed=7, seconds=2, trace=1,
                                     small=True)
        self.assertTrue(rec["correct"])
        self.assertEqual(rec["failed"], 0)
        self.assertEqual(rec["counts"]["trace.dropped_events"], 0)
        metrics, _ = run.per_layer(rec, events)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        shares = sum(metrics[f"{layer}.self_frac"] for layer in run.LAYERS)
        self.assertAlmostEqual(shares + metrics["trace.unattributed_frac"], 1.0,
                               places=6)
        return rec

    def test_join(self):
        rec = self.check("join")
        # Every decomposed cold and warm query was compared with Run().
        self.assertGreater(rec["counts"]["trace.checked"], 0)
        self.assertEqual(rec["counts"]["trace.checked"] % 4, 0)

    def test_select(self):
        rec = self.check("select")
        self.assertGreater(rec["counts"]["trace.checked"], 0)

    def test_serve(self):
        rec = self.check("serve")
        self.assertGreater(rec["counts"]["trace.ops"], 0)
        self.assertEqual(rec["counts"]["core.server.verify_mismatch"], 0)


if __name__ == "__main__":
    unittest.main()
