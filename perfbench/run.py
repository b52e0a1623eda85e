#!/usr/bin/env python3
"""End-to-end benchmark of the spatial selection/join library.

Usage (from the repository root):

    python3 perfbench/run.py --workload join|select|serve|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus one benchmark binary) into
.bench_build/, runs the workload for --seconds, checks every output against
the exact software path and prints:

  * one line per metric under the names the README lists, with units and
    sample counts;
  * as the last line, one JSON object {"correct", "attempted", "failed",
    "metrics"}: with --trace 0 the end-to-end metrics of BENCHMARK.json,
    with --trace 1 its per-layer metrics, computed from the spans of a
    separate traced run of the same workload.

--workload all runs the three workloads in turn and prints every named
metric of each; its last line nests each workload's metrics by name.
Exits 1 after the result line if any output differed from the exact software
path ("correct": false), and exits 1 without a result line if the build or a
run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("join", "select", "serve")
# Exit code of the binary when it wrote its record but some output did not
# match the exact software path.
EXIT_INCORRECT = 3
LAYERS = ("index", "filter", "core", "algo", "data")
SERVE_KINDS = ("selection", "distance_selection", "join", "distance_join")

# End-to-end metrics: every workload reports each one. What the slot
# measures on each workload is in README.md. Throughput (select.qps,
# serve.qps) is printed by name but is not a slot: serve.qps follows the
# CPU time the host's hypervisor steals and varied by up to 2x between runs
# of one seed.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "second_ms": "ms",
}

# Per-layer metrics: every workload's traced run reports each one.
PER_LAYER = {
    "index.self_frac": "frac",
    "filter.self_frac": "frac",
    "core.self_frac": "frac",
    "algo.self_frac": "frac",
    "data.self_frac": "frac",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "index.candidates_per_op": "count",
    "index.nodes_per_query": "count",
    "filter.decided_frac": "frac",
    "core.hw_tests_per_op": "count",
    "core.hw_reject_frac": "frac",
    "core.pip_hit_frac": "frac",
    "core.sw_threshold_skip_frac": "frac",
    "core.width_fallback_frac": "frac",
    "glsim.fill_spans_per_test": "count",
    "glsim.scan_spans_per_test": "count",
    "algo.refine_frac": "frac",
    "core.server.wait_frac": "frac",
    "core.server.degraded_frac": "frac",
    "data.slots_allocated": "count",
}


class BenchError(Exception):
    pass


# ------------------------------------------------------------- statistics --

def quantile(values, q):
    """Nearest-rank q-quantile of raw samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    return n - max(1, math.ceil(q * n))


def gated_tail(n):
    """Percentile of the tail_ms and second_ms slots: p90, or p50 when
    fewer than 10 samples lie beyond p90.

    p99 is printed by name, but on a shared 4-vCPU host one preempted
    worker moves the p99 of sub-millisecond queries by tens of percent
    between runs, which no bound of at most 25% can gate.
    """
    return 0.9 if beyond(n, 0.9) >= 10 else 0.5


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return quantile(values, 0.5)


# ------------------------------------------------------------ build & run --

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=log, stderr=log)


def run_binary(workload, seed, seconds, trace, small=False):
    """Runs the benchmark binary once; returns (record, trace events or None)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    stem = os.path.join(RUN_DIR, f"{workload}-{seed}-{trace}-{os.getpid()}")
    out, trace_out = stem + ".json", stem + ".trace.json"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", out]
    if trace:
        cmd += ["--trace_out", trace_out]
    if small:
        cmd.append("--small")
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=min(170.0, 3.0 * seconds + 60.0)).returncode
        if code not in (0, EXIT_INCORRECT):
            raise BenchError(f"{workload} run exited with {code}")
        with open(out) as f:
            record = json.load(f)
        events = None
        if trace:
            with open(trace_out) as f:
                events = json.load(f)["traceEvents"]
        return record, events
    finally:
        for path in (out, trace_out):
            if os.path.exists(path):
                os.remove(path)


# ------------------------------------------------------ end-to-end metrics --

def samples(rec, key):
    values = rec["samples"].get(key, [])
    if not values:
        raise BenchError(f"no samples of {key}")
    return values


def end_to_end(rec):
    """Returns ({slot: value}, [(figure name, value, unit, note)])."""
    w = rec["workload"]
    counts = rec["counts"]
    wall = counts["wall_s"]
    if w == "join":
        primary = samples(rec, "join.cold_ms")
        second = samples(rec, "join.warm_ms")
        named = [("join.cold_ms", median(primary), "ms", len(primary), 0.5),
                 ("join.warm_ms", median(second), "ms", len(second), 0.5)]
    elif w == "select":
        primary = [v / 1e3 for v in samples(rec, "select.latency_us")]
        second = [v / 1e3 for v in samples(rec, "select.rect_us")]
        qps = counts["queries"] / wall
        named = [("select.p50_us", median(primary) * 1e3, "us",
                  len(primary), 0.5),
                 ("select.p99_us", quantile(primary, 0.99) * 1e3, "us",
                  len(primary), 0.99),
                 ("select.qps", qps, "1/s", len(primary), None)]
    else:
        primary = (samples(rec, "serve.selection_ms") +
                   samples(rec, "serve.distance_selection_ms"))
        second = (samples(rec, "serve.join_ms") +
                  samples(rec, "serve.distance_join_ms"))
        writes = samples(rec, "serve.write_us")
        late = samples(rec, "serve.writer_late_ms")
        qps = counts["queries"] / wall
        named = [("serve.select_p50_ms", median(primary), "ms",
                  len(primary), 0.5),
                 ("serve.select_p99_ms", quantile(primary, 0.99), "ms",
                  len(primary), 0.99),
                 ("serve.join_p90_ms", quantile(second, 0.9), "ms",
                  len(second), 0.9),
                 ("serve.write_p99_us", quantile(writes, 0.99), "us",
                  len(writes), 0.99),
                 ("serve.qps", qps, "1/s", len(primary) + len(second), None),
                 ("serve.writer_late_ms.p99", quantile(late, 0.99), "ms",
                  len(late), 0.99)]
    setup = samples(rec, "setup_s")
    tail_value = quantile(primary, gated_tail(len(primary)))
    second_value = quantile(second, gated_tail(len(second)))
    metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": counts["peak_rss_mb"],
        "p50_ms": median(primary),
        "tail_ms": tail_value,
        "second_ms": second_value,
    }
    named += [("setup_s", median(setup), "s", len(setup), 0.5),
              ("peak_rss_mb", counts["peak_rss_mb"], "MB", None, None),
              ("fail_frac", ratio(rec["failed"], rec["attempted"]), "frac",
               rec["attempted"], None)]
    return metrics, named


# ------------------------------------------------------- per-layer metrics --

def self_times(events):
    """Self time per span, by nesting on each thread's track.

    Returns (ops, spans): ops maps qid -> [root name, wall us, self us];
    spans is a list of (layer, name, qid, dur us, self us) for layer spans.
    """
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    ops, spans = {}, []
    for track in by_tid.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child time]
        eps = 1e-3  # us; ts/dur carry rounding from the steady clock

        def close(entry):
            e, child = entry
            own = e["dur"] - child
            if stack:
                stack[-1][1] += e["dur"]
            qid = e["args"]["qid"]
            if e["cat"] == "op":
                ops[qid] = [e["name"], e["dur"], own]
            else:
                spans.append((e["cat"], e["name"], qid, e["dur"], own))

        for e in track:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"] - eps:
                close(stack.pop())
            stack.append([e, 0.0])
        while stack:
            close(stack.pop())
    orphans = [s for s in spans if s[2] not in ops]
    if orphans:
        raise BenchError(f"{len(orphans)} layer spans outside any operation")
    return ops, spans


def per_layer(rec, events):
    """Returns ({metric: value}, [(figure name, value, unit, note)])."""
    w = rec["workload"]
    counts = rec["counts"]
    c = lambda key: counts.get(key, 0.0)
    ops, spans = self_times(events)
    wall = sum(o[1] for o in ops.values())
    layer_self = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    for layer, name, qid, dur, own in spans:
        if layer not in layer_self:
            raise BenchError(f"span {name} has unknown layer {layer}")
        layer_self[layer] += own
        by_name.setdefault(name, []).append((qid, dur))
    unattributed = sum(o[2] for o in ops.values())

    if w == "serve":
        # Selections alternate traced and untraced on each caller while the
        # span budget lasts. Their latency less queue wait drops the wait a
        # long join imposes, which is not tracing's doing.
        untraced = samples(rec, "trace.untraced_exec_ms")
        traced = samples(rec, "trace.traced_exec_ms")
        overhead = median(traced) / median(untraced) - 1
        overhead_base = (f"median latency - wait of {len(traced)} traced vs "
                         f"{len(untraced)} untraced selections - 1")
        n_ops = c("trace.ops")
        tests = c("core.tests")
        candidates = c("index.server_candidates")
        queries = c("queries")
        waits = sum(sum(v) for k, v in rec["samples"].items()
                    if k.startswith("core.server.wait_ms.") or
                    k.startswith("traced.core.server.wait_ms."))
        latency = sum(sum(rec["samples"].get(prefix + "serve." + kind + "_ms", []))
                      for prefix in ("", "traced.") for kind in SERVE_KINDS)
        wait_frac = ratio(waits, latency)
        degraded_frac = ratio(c("core.server.degraded"), queries)
        decided_frac = ratio(c("filter.decided"), candidates)
        hw_per_op = ratio(c("core.hw_tests"), queries)
    else:
        traced = samples(rec, "trace.traced_ms")
        untraced = samples(rec, "trace.untraced_ms")
        overhead = sum(traced) / sum(untraced) - 1
        overhead_base = (f"the same {len(traced)} decompositions with spans "
                         f"vs without, {sum(untraced):.1f} ms untraced - 1")
        n_ops = c("trace.ops")
        tests = c("core.tests")
        wait_frac = 0.0
        degraded_frac = 0.0
        if w == "join":
            decided_frac = ratio(c("filter.decided"), c("index.candidates"))
        else:
            decided_frac = ratio(c("filter.decided"),
                                 c("filter.decide_candidates"))
        hw_per_op = ratio(c("core.hw_tests"), n_ops)

    metrics = {f"{layer}.self_frac": ratio(layer_self[layer], wall)
               for layer in LAYERS}
    metrics.update({
        "trace.unattributed_frac": ratio(unattributed, wall),
        "trace.overhead_frac": overhead,
        "index.candidates_per_op": ratio(c("index.candidates"), n_ops),
        "index.nodes_per_query": ratio(c("index.nodes_touched"),
                                       c("index.window_probes")),
        "filter.decided_frac": decided_frac,
        "core.hw_tests_per_op": hw_per_op,
        "core.hw_reject_frac": ratio(c("core.hw_rejects"), c("core.hw_tests")),
        "core.pip_hit_frac": ratio(c("core.pip_hits"), tests),
        "core.sw_threshold_skip_frac": ratio(c("core.sw_threshold_skips"),
                                             tests),
        "core.width_fallback_frac": ratio(c("core.width_fallbacks"), tests),
        "glsim.fill_spans_per_test": ratio(c("glsim.fill_spans"),
                                           c("core.hw_tests")),
        "glsim.scan_spans_per_test": ratio(c("glsim.scan_spans"),
                                           c("core.hw_tests")),
        "algo.refine_frac": ratio(c("algo.refined"), tests),
        "core.server.wait_frac": wait_frac,
        "core.server.degraded_frac": degraded_frac,
        "data.slots_allocated": c("data.slots_allocated"),
    })

    # The named per-layer figures of this workload.
    def per_op(name_prefix, root_prefix):
        roots = [q for q, o in ops.items() if o[0].startswith(root_prefix)]
        total = sum(d for n, v in by_name.items() if n.startswith(name_prefix)
                    for q, d in v if ops[q][0].startswith(root_prefix))
        return ratio(total, len(roots))

    def per_call(name_prefix):
        durs = [d for n, v in by_name.items() if n.startswith(name_prefix)
                for _, d in v]
        return ratio(sum(durs), len(durs)), len(durs)

    base = (f"base: {wall / 1e3:.1f} ms traced wall over {len(ops)} "
            f"operations")
    named = []
    if w == "join":
        cold = sum(1 for o in ops.values() if o[0] == "join.cold")
        named += [
            ("index.bulkload_ms", per_op("index.bulkload", "join.cold") / 1e3,
             "ms", "per cold query, both sides"),
            ("index.join_ms", per_op("index.join", "join.") / 1e3, "ms",
             "per query"),
            ("index.candidates", ratio(c("index.candidates"), n_ops),
             "count", "per query"),
            ("filter.build_ms", per_op("filter.build", "join.cold") / 1e3,
             "ms", "per cold query, both sides"),
            ("filter.build_intervals", ratio(c("filter.build_intervals"), cold),
             "count", "per cold query"),
            ("filter.unapproximated", ratio(c("filter.unapproximated"), cold),
             "count", "per cold query"),
            ("filter.decide_ms", per_op("filter.decide", "join.") / 1e3, "ms",
             "per query"),
            ("filter.decided_frac", decided_frac, "frac",
             "(hits+misses) / candidates"),
            ("core.hw_test_ms", per_op("core.", "join.") / 1e3, "ms",
             "per query, tester set-up included"),
            ("core.hw_reject_frac", metrics["core.hw_reject_frac"], "frac",
             "rejects / hw_tests"),
            ("algo.refine_ms", per_op("algo.refine", "join.") / 1e3, "ms",
             "per query"),
        ]
    elif w == "select":
        probe_us, probes = per_call("index.probe")
        small_hw, n_small_hw = per_call("core.hw_test.small")
        large_hw, n_large_hw = per_call("core.hw_test.large")
        small_ref, n_small_ref = per_call("algo.refine.small")
        large_ref, n_large_ref = per_call("algo.refine.large")
        named += [
            ("index.probe_us", probe_us, "us", f"per probe, n={probes}"),
            ("index.nodes_per_query", metrics["index.nodes_per_query"],
             "count", "window probes"),
            ("core.hw_test_us.small", small_hw, "us",
             f"per pair n+m<=128, n={n_small_hw}"),
            ("core.hw_test_us.large", large_hw, "us",
             f"per pair n+m>128, n={n_large_hw}"),
            ("algo.refine_us.small", small_ref, "us",
             f"per refined pair, n={n_small_ref}"),
            ("algo.refine_us.large", large_ref, "us",
             f"per refined pair, n={n_large_ref}"),
        ]
        for key in ("core.hw_reject_frac", "core.pip_hit_frac",
                    "core.sw_threshold_skip_frac", "core.width_fallback_frac",
                    "glsim.fill_spans_per_test", "glsim.scan_spans_per_test"):
            named.append((key, metrics[key], PER_LAYER[key], "tester counters"))
    else:
        for kind in SERVE_KINDS:
            wait = (rec["samples"].get(f"core.server.wait_ms.{kind}", []) +
                    rec["samples"].get(f"traced.core.server.wait_ms.{kind}", []))
            run = (rec["samples"].get(f"core.server.exec_ms.{kind}", []) +
                   rec["samples"].get(f"traced.core.server.exec_ms.{kind}", []))
            if wait:
                named += [
                    (f"core.server.wait_ms.p50.{kind}", quantile(wait, 0.5),
                     "ms", f"n={len(wait)}"),
                    (f"core.server.wait_ms.p99.{kind}", quantile(wait, 0.99),
                     "ms", f"n={len(wait)}"),
                    (f"core.server.exec_ms.p50.{kind}", quantile(run, 0.5),
                     "ms", f"n={len(run)}"),
                ]
        probe_us, probes = per_call("index.dynamic_probe")
        named += [
            ("core.server.degraded_frac", degraded_frac, "frac",
             f"of {int(queries)} queries"),
            ("core.server.verified", c("core.server.verified"), "count",
             f"mismatches={int(c('core.server.verify_mismatch'))}"),
            ("index.dynamic_probe_us", probe_us, "us", f"n={probes}"),
        ]
        for key in ("data.insert_us", "data.delete_us"):
            v = rec["samples"].get(key, []) + rec["samples"].get("traced." + key, [])
            named += [(f"{key}.p50", quantile(v, 0.5), "us", f"n={len(v)}"),
                      (f"{key}.p99", quantile(v, 0.99), "us", f"n={len(v)}")]
        snap = samples(rec, "data.snapshot_us")
        named += [("data.snapshot_us", median(snap), "us",
                   f"p50, n={len(snap)}"),
                  ("data.slots_allocated", c("data.slots_allocated"), "count",
                   f"live at end={int(c('data.live_end'))}")]
    named += [
        ("trace.unattributed_frac", metrics["trace.unattributed_frac"], "frac",
         base),
        ("trace.overhead_frac", overhead, "frac", overhead_base),
    ]
    for layer in LAYERS:
        named.append((f"{layer}.self_frac", metrics[f"{layer}.self_frac"],
                      "frac", base))
    return metrics, named


# ------------------------------------------------------------------ main --

def fmt(value):
    return f"{value:.6g}"


def run_workload(workload, seed, seconds, trace):
    rec, events = run_binary(workload, seed, seconds, trace)
    if trace:
        values, named = per_layer(rec, events)
        units = PER_LAYER
        for name, value, unit, note in named:
            print(f"{workload:6s} {name:38s} {fmt(value):>12s} {unit:6s} {note}")
    else:
        values, named = end_to_end(rec)
        units = END_TO_END
        for name, value, unit, n, q in named:
            note = "" if n is None else f"n={n}"
            if q is not None:
                note += f" p{round(q * 100)} ({beyond(n, q)} beyond)"
            print(f"{workload:6s} {name:38s} {fmt(value):>12s} {unit:6s} {note}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return rec, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            rec, m = run_workload(w, args.seed, args.seconds, args.trace)
            correct = correct and rec["correct"] and rec["failed"] == 0
            attempted += rec["attempted"]
            failed += rec["failed"]
            metrics[w] = m
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.workload != "all":
        metrics = metrics[args.workload]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
