#!/usr/bin/env python3
"""Self-tests for scripts/lint_hasj.py (registered as ctest lint_hasj_selftest).

Each case materializes a tiny fixture tree in a temp directory and runs the
real lint binary over it with --src, asserting that the rule under test
fires (positive fixture) and that a justified lint:allow suppresses it
(negative fixture). Fixtures are otherwise rule-clean — headers carry valid
include guards — so every assertion pins down exactly one rule.
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts", "lint_hasj.py",
)


def guard_for(rel_path):
    return "HASJ_" + re.sub(r"[/.]", "_", rel_path).upper() + "_"


def header(rel_path, body):
    g = guard_for(rel_path)
    return f"#ifndef {g}\n#define {g}\n\n{body}\n#endif  // {g}\n"


def run_lint(files):
    """Writes the {rel_path: content} fixture tree and lints it.

    Returns (exit_code, stderr+stdout text)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        for rel, content in files.items():
            path = os.path.join(src, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        proc = subprocess.run(
            [sys.executable, LINT, "--src", src],
            capture_output=True, text=True,
        )
        return proc.returncode, proc.stderr + proc.stdout


class NakedMutexTest(unittest.TestCase):
    def test_raw_primitives_flagged(self):
        code, out = run_lint({
            "core/locks.h": header("core/locks.h", (
                "#include <mutex>\n"
                "struct S {\n"
                "  std::mutex m;\n"
                "  std::condition_variable cv;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[naked-mutex]"), 3, out)

    def test_lock_guard_flagged(self):
        code, out = run_lint({
            "core/locks.cc": "void F() { std::lock_guard<std::mutex> l(m); }\n",
        })
        self.assertEqual(code, 1, out)
        self.assertIn("[naked-mutex]", out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/locks.cc": (
                "#include <mutex>  "
                "// lint:allow(naked-mutex): std::call_once only\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_blessed_wrapper_exempt(self):
        code, out = run_lint({
            "common/mutex.h": header("common/mutex.h", (
                "#include <mutex>\n"
                "class Mutex { std::mutex mu_; };\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_call_once_not_flagged(self):
        # std::once_flag / std::call_once are not locks; only their
        # <mutex> include needs a justification.
        code, out = run_lint({
            "core/once.cc": (
                "void F() { std::call_once(flag_, [] {}); }\n"
                "std::once_flag flag_;\n"
            ),
        })
        self.assertEqual(code, 0, out)


class AtomicOrderingTest(unittest.TestCase):
    def test_implicit_seq_cst_flagged(self):
        code, out = run_lint({
            "core/counters.cc": (
                "void F() {\n"
                "  n_.store(1);\n"
                "  (void)n_.load();\n"
                "  p->fetch_add(2);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[atomic-ordering]"), 3, out)

    def test_explicit_ordering_clean(self):
        code, out = run_lint({
            "core/counters.cc": (
                "void F() {\n"
                "  n_.store(1, std::memory_order_release);\n"
                "  (void)n_.load(std::memory_order_acquire);\n"
                "  p->fetch_add(2, std::memory_order_relaxed);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_multiline_call_scanned_to_closing_paren(self):
        code, out = run_lint({
            "core/counters.cc": (
                "void F() {\n"
                "  total_.fetch_add(delta,\n"
                "                   std::memory_order_relaxed);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_non_atomic_methods_ignored(self):
        code, out = run_lint({
            "core/counters.cc": (
                "void F() {\n"
                "  vec_.clear();\n"
                "  opts_.store_path = Load(config);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/counters.cc": (
                "// lint:allow(atomic-ordering): ordering irrelevant, test-only\n"
                "void F() { n_.store(1); }\n"
            ),
        })
        self.assertEqual(code, 0, out)


class GuardedByCoverageTest(unittest.TestCase):
    def test_unannotated_member_flagged(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "#include \"common/mutex.h\"\n"
                "class Tracker {\n"
                " private:\n"
                "  Mutex mu_;\n"
                "  int count_ = 0;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("[guarded-by-coverage]", out)
        self.assertIn("'count_'", out)

    def test_annotated_atomic_const_members_clean(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "#include \"common/mutex.h\"\n"
                "class Tracker {\n"
                " private:\n"
                "  Mutex mu_;\n"
                "  int count_ HASJ_GUARDED_BY(mu_) = 0;\n"
                "  std::vector<int> items_ HASJ_GUARDED_BY(mu_);\n"
                "  std::atomic<int64_t> cursor_{0};\n"
                "  const int capacity_;\n"
                "  CondVar cv_;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_allow_with_confinement_argument_suppresses(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "class Tracker {\n"
                "  SharedMutex mu_;\n"
                "  // lint:allow(guarded-by-coverage): written pre-threads\n"
                "  std::vector<int> workers_;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_server_shaped_queue_state_checked(self):
        # The QueryServer shape (core/server.h): cvs and annotated queue /
        # lifecycle state are clean, a forgotten deque member is flagged.
        body = (
            "#include \"common/mutex.h\"\n"
            "class QueryServer {\n"
            " private:\n"
            "  mutable Mutex mu_;\n"
            "  CondVar work_cv_;\n"
            "  bool stopping_ HASJ_GUARDED_BY(mu_) = false;\n"
            "  std::deque<PendingQuery*> interactive_ HASJ_GUARDED_BY(mu_);\n"
            "  std::deque<PendingQuery*> batch_;\n"
            "};\n"
        )
        code, out = run_lint({"core/server.h": header("core/server.h", body)})
        self.assertEqual(code, 1, out)
        self.assertIn("'batch_'", out)
        self.assertNotIn("'interactive_'", out)
        self.assertNotIn("'work_cv_'", out)

    def test_class_without_mutex_not_checked(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "class Plain {\n"
                "  int count_ = 0;\n"
                "  std::vector<int> items_;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_methods_and_nested_scopes_not_flagged(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "class Tracker {\n"
                " public:\n"
                "  void Add(int v) { total_ = v; }\n"
                "  int total() const { return total_; }\n"
                " private:\n"
                "  Mutex mu_;\n"
                "  int total_ HASJ_GUARDED_BY(mu_) = 0;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_pointer_to_mutex_is_not_ownership(self):
        code, out = run_lint({
            "core/state.h": header("core/state.h", (
                "class Borrower {\n"
                "  Mutex* mu_ = nullptr;\n"
                "  int count_ = 0;\n"
                "};\n"
            )),
        })
        self.assertEqual(code, 0, out)


class StatusDiscardTest(unittest.TestCase):
    """The mutable-store / server Status APIs (DESIGN.md §16) are covered:
    laundering an Insert/Delete/SeedFrom/ApplyUpdateOp/Start status through
    (void) hides a lost update or a server that never ran."""

    def test_store_and_server_apis_flagged(self):
        code, out = run_lint({
            "core/use.h": header("core/use.h", (
                "inline void Mutate(Store* s, Server* server) {\n"
                "  (void)s->Insert(polygon);\n"
                "  (void)s->Delete(3);\n"
                "  (void)s->SeedFrom(base);\n"
                "  (void)ApplyUpdateOp(op, s, &key_to_id);\n"
                "  (void)server->Start();\n"
                "}\n"
            )),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[status-discard]"), 5, out)

    def test_handled_statuses_clean(self):
        code, out = run_lint({
            "core/use.h": header("core/use.h", (
                "inline Status Mutate(Store* s) {\n"
                "  if (const Status st = s->Delete(3); !st.ok()) return st;\n"
                "  return s->SeedFrom(base);\n"
                "}\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/use.h": header("core/use.h", (
                "inline void Warm(Store* s) {\n"
                "  // lint:allow(status-discard): best-effort cache warmup\n"
                "  (void)s->Insert(polygon);\n"
                "}\n"
            )),
        })
        self.assertEqual(code, 0, out)


class SimdIntrinsicsTest(unittest.TestCase):
    def test_intrinsics_outside_blessed_files_flagged(self):
        code, out = run_lint({
            "core/fastpath.cc": (
                "#include <immintrin.h>\n"
                "void F(double* p) {\n"
                "  __m256d v = _mm256_loadu_pd(p);\n"
                "  _mm256_storeu_pd(p, v);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[simd-intrinsics]"), 3, out)

    def test_sse_types_and_calls_flagged(self):
        code, out = run_lint({
            "algo/dot.cc": (
                "__m128d Acc(__m128d a, __m128d b) "
                "{ return _mm_add_pd(a, b); }\n"
            ),
        })
        self.assertEqual(code, 1, out)
        self.assertIn("[simd-intrinsics]", out)

    def test_blessed_backend_and_dispatch_header_exempt(self):
        code, out = run_lint({
            "glsim/rowspan_avx2.cc": (
                "#include <immintrin.h>\n"
                "__m256i G() { return _mm256_setzero_si256(); }\n"
            ),
            "common/simd.h": header("common/simd.h", (
                "#include <immintrin.h>\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_mentions_in_comments_ignored(self):
        code, out = run_lint({
            "core/notes.cc": (
                "// the backend lowers this to _mm256_or_si256 per quad\n"
                "int rows;\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/probe.cc": (
                "// lint:allow(simd-intrinsics): one-off perf experiment\n"
                "__m256i v = _mm256_setzero_si256();\n"
            ),
        })
        self.assertEqual(code, 0, out)


class FilterRefineSiteTest(unittest.TestCase):
    def test_forked_loop_flagged(self):
        code, out = run_lint({
            "core/my_query.cc": (
                "void Run(const HwConfig& hw) {\n"
                "  const QueryDeadline deadline =\n"
                "      QueryDeadline::Start(hw.deadline_ms, hw.cancel);\n"
                "  RefinementExecutor executor(1);\n"
                "  auto v = filter::DecidePair(a, b);\n"
                "  HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(p, q, hw));\n"
                "  obs::PmuScope s(hw.pmu, obs::PmuStage::kIntervalDecide);\n"
                "  RecordQueryObs(hw, \"selection\", c, n, h, t, b);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[filter-refine-site]"), 6, out)

    def test_filter_refine_and_definers_exempt(self):
        code, out = run_lint({
            "core/filter_refine.h": header("core/filter_refine.h", (
                "inline void F() {\n"
                "  RefinementExecutor executor(2);\n"
                "  RecordQueryObs(hw, kind, c, n, h, t, b);\n"
                "}\n"
            )),
            "core/query_obs.cc": (
                "void RecordQueryObs(const HwConfig& config) {}\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_outside_core_and_non_construction_clean(self):
        code, out = run_lint({
            "filter/interval_approx.cc": (
                "IntervalVerdict V() { return DecidePair(a, b); }\n"
            ),
            "core/hook.h": header("core/hook.h", (
                "// Mentions of QueryDeadline::Start( in comments are fine.\n"
                "void Wire(RefinementExecutor* executor);\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/probe.cc": (
                "// lint:allow(filter-refine-site): standalone refinement probe\n"
                "RefinementExecutor executor(1);\n"
            ),
        })
        self.assertEqual(code, 0, out)


class MetricNameTest(unittest.TestCase):
    def test_literal_name_flagged(self):
        code, out = run_lint({
            "core/pipeline.cc": (
                "void F(obs::Registry* m) {\n"
                '  m->GetCounter("hasj.query.results").Increment();\n'
                '  m->GetGauge("hasj.stage.mbr_ms").Add(1.0);\n'
                '  m->GetHistogram("hasj.hist.pair_vertices").Record(3);\n'
                "}\n"
            ),
        })
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[metric-name]"), 3, out)

    def test_names_h_constant_clean(self):
        code, out = run_lint({
            "core/pipeline.cc": (
                "void F(obs::Registry* m) {\n"
                "  m->GetCounter(obs::kQueryResults).Increment();\n"
                "  m->GetHistogram(prefix + obs::kPipelineTotalUsSuffix)\n"
                "      .Record(7);\n"
                "}\n"
            ),
        })
        self.assertEqual(code, 0, out)

    def test_names_h_itself_exempt(self):
        code, out = run_lint({
            "obs/names.h": header("obs/names.h", (
                'inline constexpr char kDemo[] = "hasj.demo";\n'
                "// e.g. registry.GetCounter(\"hasj.demo\") resolves here\n"
            )),
        })
        self.assertEqual(code, 0, out)

    def test_allow_suppresses(self):
        code, out = run_lint({
            "core/probe.cc": (
                "// lint:allow(metric-name): throwaway local experiment\n"
                'm->GetCounter("hasj.scratch").Increment();\n'
            ),
        })
        self.assertEqual(code, 0, out)


class SuppressionHygieneTest(unittest.TestCase):
    def test_unknown_rule_reported(self):
        code, out = run_lint({
            "core/x.cc": "int a;  // lint:allow(made-up-rule): whatever\n",
        })
        self.assertEqual(code, 1, out)
        self.assertIn("unknown lint rule 'made-up-rule'", out)

    def test_reasonless_allow_reported(self):
        code, out = run_lint({
            "core/x.cc": "int a;  // lint:allow(naked-mutex)\n",
        })
        self.assertEqual(code, 1, out)
        self.assertIn("lint:allow without a reason", out)


class RealTreeTest(unittest.TestCase):
    def test_repo_src_is_clean(self):
        proc = subprocess.run(
            [sys.executable, LINT], capture_output=True, text=True,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)


if __name__ == "__main__":
    unittest.main()
