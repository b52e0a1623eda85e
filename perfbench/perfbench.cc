// End-to-end benchmark program. One invocation runs one workload (join,
// select or serve) for a fixed number of seconds through the library's
// public API and writes its raw measurements — per-operation latency
// samples, set-up times, counters, failure accounting — as one JSON object
// to --out. perfbench/run.py turns that into the reported metrics.
//
// With --trace 1, join and select run every operation three times: once
// through the public pipeline entry points, then decomposed into calls to
// each layer's public functions twice, once with an obs::TraceSession span
// around every call (written to --trace_out) and once without, in
// alternating order. Both decomposed results are checked against the
// pipeline's own result for every operation, so the breakdown measures the
// same work, and the span-free decomposition is the base of the tracing
// overhead. serve alternates traced and untraced operations on every client
// and on the writer. Spans carry the layer as their category and share a
// "qid" argument per operation; each operation's root span has category
// "op".
//
// Exits 0 when every output matched the exact software path, 3 when the
// record was written but some output did not, and 1 or 2 when the run or
// its arguments failed.
//
// Inputs come only from --seed: dataset profiles, query streams and the
// update stream are all derived from it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/distance_selection.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "core/interval_stage.h"
#include "core/join.h"
#include "core/selection.h"
#include "core/server.h"
#include "core/snapshot_query.h"
#include "data/catalogs.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "filter/object_filters.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "index/rtree.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace hasj::perfbench {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

// Pairs with n + m at most this many vertices are "small": the range where
// a software test is cheap enough that the hardware filter may not pay off.
constexpr int64_t kSmallPairVertices = 128;
// Set-up is repeated at least this many times per run, and until it has
// taken this long in all; run.py reports the median. A cheap set-up thus
// gets enough repetitions for a steady median.
constexpr int kSetupRepeats = 5;
constexpr double kMinSetupSeconds = 1.0;
// Exit code of a run whose record was written but whose outputs did not all
// match the exact software path.
constexpr int kExitIncorrect = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every workload's inputs for the benchmark's own tests.
  bool small = false;
  std::string out;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload join|select|serve "
               "--seed N --seconds S --trace 0|1 --out PATH "
               "[--trace_out PATH] [--small]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "join" && args.workload != "select" &&
      args.workload != "serve") {
    Usage("unknown --workload");
  }
  if (args.out.empty()) Usage("--out is required");
  if (args.trace && args.trace_out.empty()) Usage("--trace 1 needs --trace_out");
  return args;
}

// Derives an independent 64-bit seed for one input stream from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + stream).Next();
}

data::Dataset Generate(data::GeneratorProfile profile, uint64_t seed) {
  profile.seed ^= SubSeed(seed, profile.seed);
  return data::GenerateDataset(profile);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Raw measurements of one run, serialized for run.py.
class Record {
 public:
  void Sample(const std::string& key, double value) {
    samples_[key].push_back(value);
  }
  void Count(const std::string& key, double delta = 1.0) {
    counts_[key] += delta;
  }
  void Set(const std::string& key, double value) { counts_[key] = value; }
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  int64_t failed() const { return failed_; }

  bool Write(const std::string& path, const Args& args, bool correct) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 args.trace ? 1 : 0);
    std::fprintf(f, "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld",
                 correct ? "true" : "false",
                 static_cast<long long>(attempted_),
                 static_cast<long long>(failed_));
    std::fprintf(f, ", \"counts\": {");
    const char* sep = "";
    for (const auto& [key, value] : counts_) {
      std::fprintf(f, "%s\"%s\": %.17g", sep, key.c_str(), value);
      sep = ", ";
    }
    std::fprintf(f, "}, \"samples\": {");
    sep = "";
    for (const auto& [key, values] : samples_) {
      std::fprintf(f, "%s\"%s\": [", sep, key.c_str());
      for (size_t i = 0; i < values.size(); ++i) {
        std::fprintf(f, i == 0 ? "%.17g" : ", %.17g", values[i]);
      }
      std::fprintf(f, "]");
      sep = ", ";
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Spans around public layer calls. A null session makes every call a plain
// call, so the traced and untraced decompositions share one code path.
class Tracer {
 public:
  // Operations started after this many spans run untraced, which keeps
  // every thread's track under obs::TraceSession::kMaxEventsPerTrack.
  static constexpr int64_t kSpanBudget = 100000;

  explicit Tracer(obs::TraceSession* session) : session_(session) {}

  // Whether a new operation may still be traced in full.
  bool HasBudget() const {
    return session_ != nullptr &&
           spans_.load(std::memory_order_relaxed) < kSpanBudget;
  }

  // Runs fn() inside a span `name` of layer `layer` for operation `qid`.
  template <typename Fn>
  auto Call(const char* layer, const char* name, int64_t qid, Fn&& fn) {
    if (session_ == nullptr) return fn();
    const double start = session_->NowUs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(name, layer, start, qid);
    } else {
      auto result = fn();
      Record(name, layer, start, qid);
      return result;
    }
  }

  // Root span of one operation: every layer span of `qid` nests in it, and
  // its self time is the unattributed remainder.
  class Op {
   public:
    Op(Tracer* tracer, const char* name, int64_t qid)
        : tracer_(tracer), name_(name), qid_(qid) {
      if (tracer_->session_ != nullptr) start_ = tracer_->session_->NowUs();
    }
    ~Op() {
      if (tracer_->session_ != nullptr) {
        tracer_->Record(name_, "op", start_, qid_);
      }
    }
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t qid_;
    double start_ = 0.0;
  };

 private:
  void Record(const char* name, const char* layer, double start, int64_t qid) {
    session_->Span(name, layer, start, session_->NowUs() - start, "qid", qid);
    spans_.fetch_add(1, std::memory_order_relaxed);
  }

  obs::TraceSession* session_;
  std::atomic<int64_t> spans_{0};
};

const char* SizeBucket(const geom::Polygon& p, const geom::Polygon& q,
                       const char* small, const char* large) {
  return static_cast<int64_t>(p.size() + q.size()) <= kSmallPairVertices
             ? small
             : large;
}

// Tester counters plus the exact-refinement tallies of the decomposition.
struct PairTally {
  core::HwCounters hw;
  int64_t refined = 0;
  int64_t refine_pip_hits = 0;
};

// One intersection pair through the tester's public decision skeleton:
// Plan + hardware step (core), hardware rejects finished by the tester's
// containment test (core), everything else refined exactly (algo).
bool DecomposedIntersects(Tracer* tracer, int64_t qid,
                          core::HwIntersectionTester* tester,
                          const geom::Polygon& p, const geom::Polygon& q,
                          PairTally* tally) {
  const char* core_name =
      SizeBucket(p, q, "core.hw_test.small", "core.hw_test.large");
  bool refine = false;
  const bool verdict = tracer->Call("core", core_name, qid, [&] {
    const core::PairPlan plan = tester->Plan(p, q);
    switch (plan.stage) {
      case core::PairPlan::Stage::kDecided:
        return plan.decision;
      case core::PairPlan::Stage::kSoftware:
        break;
      case core::PairPlan::Stage::kHardware: {
        bool overlap = false;
        if (!tester->HwStep(p, q, plan.viewport, &overlap).ok()) break;
        if (!overlap) return tester->FinishReject(p, q, plan.viewport);
        break;
      }
    }
    refine = true;
    return false;
  });
  if (!refine) return verdict;
  ++tally->refined;
  algo::IntersectCounters counters;
  const bool exact = tracer->Call(
      "algo", SizeBucket(p, q, "algo.refine.small", "algo.refine.large"), qid,
      [&] { return algo::PolygonsIntersect(p, q, {}, &counters); });
  tally->refine_pip_hits += counters.point_in_polygon_hits;
  return exact;
}

// The within-distance analogue of DecomposedIntersects.
bool DecomposedWithin(Tracer* tracer, int64_t qid,
                      core::HwDistanceTester* tester, core::DistancePlan* plan,
                      const geom::Polygon& p, const geom::Polygon& q, double d,
                      PairTally* tally) {
  bool refine = false;
  const bool verdict = tracer->Call(
      "core", SizeBucket(p, q, "core.hw_test.small", "core.hw_test.large"),
      qid, [&] {
        tester->Plan(p, q, d, plan);
        switch (plan->stage) {
          case core::DistancePlan::Stage::kDecided:
            return plan->decision;
          case core::DistancePlan::Stage::kSoftware:
            break;
          case core::DistancePlan::Stage::kEmptyClip:
            return tester->FinishEmptyClip(p, q);
          case core::DistancePlan::Stage::kHardware: {
            bool overlap = false;
            if (!tester->HwStep(*plan, &overlap).ok()) break;
            if (!overlap) return tester->FinishReject(p, q, d, *plan);
            break;
          }
        }
        refine = true;
        return false;
      });
  if (!refine) return verdict;
  ++tally->refined;
  return tracer->Call(
      "algo", SizeBucket(p, q, "algo.refine.small", "algo.refine.large"), qid,
      [&] { return algo::WithinDistance(p, q, d); });
}

void RecordTally(const PairTally& t, Record* rec) {
  rec->Count("core.tests", static_cast<double>(t.hw.tests));
  rec->Count("core.hw_tests", static_cast<double>(t.hw.hw_tests));
  rec->Count("core.hw_rejects", static_cast<double>(t.hw.hw_rejects));
  rec->Count("core.pip_hits",
             static_cast<double>(t.hw.pip_hits + t.refine_pip_hits));
  rec->Count("core.sw_threshold_skips",
             static_cast<double>(t.hw.sw_threshold_skips));
  rec->Count("core.width_fallbacks", static_cast<double>(t.hw.width_fallbacks));
  rec->Count("glsim.fill_spans", static_cast<double>(t.hw.fill_spans));
  rec->Count("glsim.scan_spans", static_cast<double>(t.hw.scan_spans));
  rec->Count("algo.refined", static_cast<double>(t.refined));
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;  // FNV-1a step over 64-bit words
}

// Order-independent fingerprint of a result set; the timed loops keep this
// instead of the set, so memory does not grow with the operations run.
uint64_t Fingerprint(std::vector<int64_t> ids) {
  uint64_t h = Mix(0xcbf29ce484222325ULL, ids.size());
  for (const int64_t id : Sorted(std::move(ids))) {
    h = Mix(h, static_cast<uint64_t>(id));
  }
  return h;
}

uint64_t Fingerprint(Pairs pairs) {
  uint64_t h = Mix(0xcbf29ce484222325ULL, pairs.size());
  for (const auto& [a, b] : Sorted(std::move(pairs))) {
    h = Mix(Mix(h, static_cast<uint64_t>(a)), static_cast<uint64_t>(b));
  }
  return h;
}

// ---------------------------------------------------------------- join --

// One seeded instance of the two join inputs (LANDC x LANDO and
// WATER x PRISM).
struct JoinInputs {
  data::Dataset a[2];
  data::Dataset b[2];
};

// Repetitions cycle through this many independently seeded instances, so
// one run's figures do not hang on the shapes one seed happens to draw.
constexpr int kJoinInstances = 32;

std::vector<JoinInputs> MakeJoinInputs(const Args& args) {
  const double scale = args.small ? 0.005 : 0.02;
  std::vector<JoinInputs> instances(args.small ? 2 : kJoinInstances);
  for (size_t i = 0; i < instances.size(); ++i) {
    const uint64_t seed = SubSeed(args.seed, 0x701 + i);
    JoinInputs& in = instances[i];
    in.a[0] = Generate(data::LandcProfile(scale), seed);
    in.b[0] = Generate(data::LandoProfile(scale), seed);
    in.a[1] = Generate(data::WaterProfile(scale), seed);
    in.b[1] = Generate(data::PrismProfile(scale), seed);
  }
  return instances;
}

core::JoinOptions JoinWorkloadOptions() {
  core::JoinOptions options;
  options.use_hw = true;
  options.num_threads = 2;
  options.hw.use_intervals = true;
  return options;
}

// One side's interval approximation as the join pipeline builds it: over
// the union frame of both inputs, with the pipeline's grid/budget/threads.
struct DecomposedJoinState {
  index::RTree tree_a;
  index::RTree tree_b;
  std::unique_ptr<filter::IntervalApprox> approx_a;
  std::unique_ptr<filter::IntervalApprox> approx_b;
};

std::vector<index::RTree::Entry> Entries(const data::DatasetSnapshot& snap) {
  std::vector<index::RTree::Entry> entries;
  entries.reserve(snap.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    entries.push_back({snap.mbr(i), static_cast<int64_t>(i)});
  }
  return entries;
}

// IntersectionJoin::Run decomposed into layer calls. `state` is empty for a
// cold query (trees and intervals are built, as the constructor and first
// Run do) and reused by the warm query.
Result<Pairs> DecomposedJoin(Tracer* tracer, int64_t qid,
                             const data::Dataset& a, const data::Dataset& b,
                             const core::JoinOptions& options,
                             DecomposedJoinState* state, Record* rec) {
  const bool cold = state->approx_a == nullptr;
  Tracer::Op op(tracer, cold ? "join.cold" : "join.warm", qid);
  const data::DatasetSnapshot snap_a =
      tracer->Call("data", "data.pin", qid, [&] { return a.snapshot(); });
  const data::DatasetSnapshot snap_b =
      tracer->Call("data", "data.pin", qid, [&] { return b.snapshot(); });
  if (cold) {
    std::vector<index::RTree::Entry> ea = Entries(snap_a);
    std::vector<index::RTree::Entry> eb = Entries(snap_b);
    state->tree_a = tracer->Call("index", "index.bulkload", qid, [&] {
      return index::RTree::BulkLoad(std::move(ea));
    });
    state->tree_b = tracer->Call("index", "index.bulkload", qid, [&] {
      return index::RTree::BulkLoad(std::move(eb));
    });
  }
  const Pairs candidates = tracer->Call("index", "index.join", qid, [&] {
    return index::JoinIntersects(state->tree_a, state->tree_b);
  });
  rec->Count("index.candidates", static_cast<double>(candidates.size()));
  if (cold) {
    geom::Box frame = snap_a.Bounds();
    frame.Extend(snap_b.Bounds());
    const filter::IntervalApproxConfig config =
        core::IntervalConfigFrom(options.hw, options.num_threads);
    for (int side = 0; side < 2; ++side) {
      const data::DatasetSnapshot& snap = side == 0 ? snap_a : snap_b;
      Result<filter::IntervalApprox> built =
          tracer->Call("filter", "filter.build", qid, [&] {
            return filter::BuildIntervalApprox(snap.polygons(), frame, config);
          });
      if (!built.ok()) return built.status();
      auto approx =
          std::make_unique<filter::IntervalApprox>(std::move(built).value());
      rec->Count("filter.build_intervals",
                 static_cast<double>(approx->stats().interval_count));
      rec->Count("filter.unapproximated",
                 static_cast<double>(approx->stats().unapproximated));
      (side == 0 ? state->approx_a : state->approx_b) = std::move(approx);
    }
  }
  Pairs result;
  Pairs undecided;
  tracer->Call("filter", "filter.decide", qid, [&] {
    for (const auto& [ida, idb] : candidates) {
      switch (filter::DecidePair(
          state->approx_a->object(static_cast<size_t>(ida)),
          state->approx_b->object(static_cast<size_t>(idb)))) {
        case filter::IntervalVerdict::kHit:
          result.emplace_back(ida, idb);
          break;
        case filter::IntervalVerdict::kMiss:
          break;
        case filter::IntervalVerdict::kInconclusive:
          undecided.emplace_back(ida, idb);
          break;
      }
    }
  });
  rec->Count("filter.decided",
             static_cast<double>(candidates.size() - undecided.size()));
  core::HwConfig hw = options.hw;
  hw.enable_hw = options.use_hw;
  core::HwIntersectionTester tester = tracer->Call(
      "core", "core.tester_init", qid,
      [&] { return core::HwIntersectionTester(hw, options.sw); });
  PairTally tally;
  for (const auto& [ida, idb] : undecided) {
    if (DecomposedIntersects(tracer, qid, &tester,
                             snap_a.polygon(static_cast<size_t>(ida)),
                             snap_b.polygon(static_cast<size_t>(idb)),
                             &tally)) {
      result.emplace_back(ida, idb);
    }
  }
  tally.hw = tester.counters();
  RecordTally(tally, rec);
  return result;
}

int RunJoin(const Args& args, obs::TraceSession* session, Record* rec) {
  std::vector<JoinInputs> instances;
  Stopwatch setups;
  for (int i = 0;
       i < kSetupRepeats || setups.ElapsedSeconds() < kMinSetupSeconds; ++i) {
    Stopwatch setup;
    instances.clear();
    instances = MakeJoinInputs(args);
    rec->Sample("setup_s", setup.ElapsedSeconds());
  }
  const core::JoinOptions options = JoinWorkloadOptions();
  Tracer tracer(session);
  Tracer untraced(nullptr);
  // Every Run() result, for the exact check after the timed loop.
  struct Done {
    size_t instance;
    int pair;
    bool ok;
    uint64_t fingerprint;
  };
  std::vector<Done> done;
  int64_t qid = 0;
  // Warm-up: first-touch page faults and allocator growth stay out of the
  // timed loop.
  {
    const core::IntersectionJoin join(instances[0].a[0], instances[0].b[0]);
    (void)join.Run(options);
  }
  Stopwatch loop;
  for (size_t rep = 0; loop.ElapsedSeconds() < args.seconds; ++rep) {
    const size_t instance = rep % instances.size();
    const JoinInputs& in = instances[instance];
    std::unique_ptr<core::IntersectionJoin> joins[2];
    core::JoinResult results[2][2];  // [phase][pair]
    double ms[2] = {0.0, 0.0};
    for (int phase = 0; phase < 2; ++phase) {
      for (int p = 0; p < 2; ++p) {
        Stopwatch watch;
        if (phase == 0) {
          joins[p] = std::make_unique<core::IntersectionJoin>(in.a[p], in.b[p]);
        }
        results[phase][p] = joins[p]->Run(options);
        ms[phase] += watch.ElapsedMillis();
      }
    }
    rec->Sample("join.cold_ms", ms[0]);
    rec->Sample("join.warm_ms", ms[1]);
    rec->Count("queries", 4);
    for (int phase = 0; phase < 2; ++phase) {
      for (int p = 0; p < 2; ++p) {
        core::JoinResult& r = results[phase][p];
        done.push_back(
            {instance, p, r.status.ok(), Fingerprint(std::move(r.pairs))});
      }
    }
    if (!tracer.HasBudget()) continue;

    // The same repetition decomposed into layer calls, with spans and
    // without, in alternating order; every result is checked against the
    // pipeline's. The span-free pass keeps its counters out of the record.
    const auto decompose = [&](bool with_spans) {
      Tracer& t = with_spans ? tracer : untraced;
      Record discard;
      double elapsed_ms = 0.0;
      for (int p = 0; p < 2; ++p) {
        DecomposedJoinState state;
        for (int phase = 0; phase < 2; ++phase) {
          Stopwatch watch;
          Result<Pairs> r = DecomposedJoin(&t, qid++, in.a[p], in.b[p],
                                           options, &state,
                                           with_spans ? rec : &discard);
          elapsed_ms += watch.ElapsedMillis();
          const uint64_t expected =
              done[done.size() - 4 + 2 * phase + p].fingerprint;
          rec->Attempt(r.ok() &&
                       Fingerprint(std::move(r).value()) == expected);
          rec->Count("trace.checked");
          if (with_spans) rec->Count("trace.ops");
        }
      }
      rec->Sample(with_spans ? "trace.traced_ms" : "trace.untraced_ms",
                  elapsed_ms);
    };
    decompose(rep % 2 == 0);
    decompose(rep % 2 != 0);
  }
  rec->Set("wall_s", loop.ElapsedSeconds());
  rec->Set("peak_rss_mb", PeakRssMb());

  // Exact reference per instance and pair: software test, no intervals.
  std::map<std::pair<size_t, int>, std::pair<bool, uint64_t>> reference;
  for (const Done& d : done) {
    auto it = reference.find({d.instance, d.pair});
    if (it == reference.end()) {
      const JoinInputs& in = instances[d.instance];
      const core::IntersectionJoin join(in.a[d.pair], in.b[d.pair]);
      core::JoinOptions exact;
      exact.num_threads = options.num_threads;
      core::JoinResult r = join.Run(exact);
      it = reference
               .emplace(std::make_pair(d.instance, d.pair),
                        std::make_pair(r.status.ok(),
                                       Fingerprint(std::move(r.pairs))))
               .first;
    }
    rec->Attempt(d.ok && it->second.first &&
                 d.fingerprint == it->second.second);
  }
  return 0;
}

// -------------------------------------------------------------- select --

// One seeded instance of the selection inputs: WATER and PRISM, a
// STATES50-like set of complex query polygons, and one 4-vertex rectangle
// per state with the same MBR size at a seeded position — so both query
// shapes select similar candidate counts while the pair sizes n + m differ.
// Holds the pipelines too (they keep references to the datasets), so it
// never moves once built.
struct SelectInstance {
  data::Dataset datasets[2];
  std::vector<geom::Polygon> queries;  // states first, then rectangles
  size_t complex_queries = 0;
  double distance[2] = {0.0, 0.0};
  std::unique_ptr<core::IntersectionSelection> sel[2];
  std::unique_ptr<core::WithinDistanceSelection> dsel[2];
};

// The stream draws from this many independently seeded instances.
constexpr int kSelectInstances = 32;

std::vector<std::unique_ptr<SelectInstance>> MakeSelectInputs(
    const Args& args) {
  const double scale = args.small ? 0.01 : 0.05;
  std::vector<std::unique_ptr<SelectInstance>> instances;
  for (int i = 0; i < (args.small ? 2 : kSelectInstances); ++i) {
    const uint64_t seed = SubSeed(args.seed, 0x5e1 + static_cast<uint64_t>(i));
    auto in = std::make_unique<SelectInstance>();
    in->datasets[0] = Generate(data::WaterProfile(scale), seed);
    in->datasets[1] = Generate(data::PrismProfile(scale), seed);
    const data::Dataset states = Generate(data::States50Profile(scale), seed);
    in->queries = states.polygons();
    in->complex_queries = in->queries.size();
    Rng rng(SubSeed(seed, 0x5ec7));
    geom::Box extent = in->datasets[0].Bounds();
    extent.Extend(in->datasets[1].Bounds());
    for (const geom::Polygon& state : states.polygons()) {
      const double w = std::min(state.Bounds().Width(), extent.Width());
      const double h = std::min(state.Bounds().Height(), extent.Height());
      const double x = rng.Uniform(extent.min_x, extent.max_x - w);
      const double y = rng.Uniform(extent.min_y, extent.max_y - h);
      in->queries.push_back(
          geom::Polygon({{x, y}, {x + w, y}, {x + w, y + h}, {x, y + h}}));
    }
    for (int k = 0; k < 2; ++k) {
      in->distance[k] =
          0.5 * data::BaseDistance(in->datasets[k], in->datasets[k]);
      in->sel[k] = std::make_unique<core::IntersectionSelection>(in->datasets[k]);
      in->dsel[k] =
          std::make_unique<core::WithinDistanceSelection>(in->datasets[k]);
    }
    instances.push_back(std::move(in));
  }
  return instances;
}

// One operation of the seeded selection stream.
struct SelectOp {
  size_t instance;
  int dataset;
  bool within;
  size_t query;
};

// Decomposition of IntersectionSelection::Run / WithinDistanceSelection::Run
// (no intermediate filters besides the distance object filters, which are
// on by default).
std::vector<int64_t> DecomposedSelect(Tracer* tracer, int64_t qid,
                                      const data::Dataset& dataset,
                                      const index::RTree& tree,
                                      const geom::Polygon& query, double d,
                                      bool within, PairTally* tally,
                                      Record* rec) {
  Tracer::Op op(tracer, within ? "select.within" : "select.intersects", qid);
  const data::DatasetSnapshot snap =
      tracer->Call("data", "data.pin", qid, [&] { return dataset.snapshot(); });
  const std::vector<int64_t> candidates =
      tracer->Call("index", "index.probe", qid, [&] {
        return within ? tree.QueryWithinDistance(query.Bounds(), d)
                      : tree.QueryIntersects(query.Bounds());
      });
  rec->Count("index.candidates", static_cast<double>(candidates.size()));
  std::vector<int64_t> ids;
  core::HwConfig hw;
  hw.enable_hw = true;
  if (!within) {
    core::HwIntersectionTester tester = tracer->Call(
        "core", "core.tester_init", qid,
        [&] { return core::HwIntersectionTester(hw); });
    for (const int64_t id : candidates) {
      if (DecomposedIntersects(tracer, qid, &tester,
                               snap.polygon(static_cast<size_t>(id)), query,
                               tally)) {
        ids.push_back(id);
      }
    }
    tally->hw += tester.counters();
    return ids;
  }
  core::HwDistanceTester tester = tracer->Call(
      "core", "core.tester_init", qid,
      [&] { return core::HwDistanceTester(hw); });
  core::DistancePlan plan;
  int64_t decided = 0;
  for (const int64_t id : candidates) {
    const geom::Box& mbr = snap.mbr(static_cast<size_t>(id));
    const bool accepted = tracer->Call("filter", "filter.object", qid, [&] {
      return filter::ZeroObjectUpperBound(mbr, query.Bounds()) <= d ||
             filter::OneObjectUpperBound(query, mbr) <= d;
    });
    if (accepted) {
      ++decided;
      ids.push_back(id);
      continue;
    }
    if (DecomposedWithin(tracer, qid, &tester, &plan,
                         snap.polygon(static_cast<size_t>(id)), query, d,
                         tally)) {
      ids.push_back(id);
    }
  }
  rec->Count("filter.decided", static_cast<double>(decided));
  rec->Count("filter.decide_candidates", static_cast<double>(candidates.size()));
  tally->hw += tester.counters();
  return ids;
}

int RunSelect(const Args& args, obs::TraceSession* session, Record* rec) {
  std::vector<std::unique_ptr<SelectInstance>> instances;
  Stopwatch setups;
  for (int i = 0;
       i < kSetupRepeats || setups.ElapsedSeconds() < kMinSetupSeconds; ++i) {
    Stopwatch setup;
    instances.clear();
    instances = MakeSelectInputs(args);
    rec->Sample("setup_s", setup.ElapsedSeconds());
  }
  // The decomposition probes its own copy of the trees the pipelines build.
  std::vector<std::unique_ptr<index::RTree>> trees;
  if (session != nullptr) {
    for (const auto& in : instances) {
      for (int k = 0; k < 2; ++k) {
        trees.push_back(
            std::make_unique<index::RTree>(in->datasets[k].BuildRTree()));
      }
    }
  }
  core::SelectionOptions sopt;
  sopt.use_hw = true;
  core::DistanceSelectionOptions dopt;
  dopt.use_hw = true;

  // The stream cycles through every (instance, dataset, predicate, query),
  // so each run weighs the whole pool alike. It visits the instances in a
  // seeded order, a short run of one instance's shuffled operations at a
  // time: the caller's working set stays one instance, as for a client of
  // one dataset, while any prefix of the stream spreads over all of them.
  Rng stream(SubSeed(args.seed, 0x57));
  const auto shuffle = [&stream](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(stream.UniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
  };
  std::vector<size_t> instance_order(instances.size());
  for (size_t i = 0; i < instance_order.size(); ++i) instance_order[i] = i;
  shuffle(&instance_order);
  std::vector<std::vector<SelectOp>> blocks(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      for (const bool within : {false, true}) {
        for (size_t q = 0; q < instances[i]->queries.size(); ++q) {
          blocks[i].push_back({i, k, within, q});
        }
      }
    }
    shuffle(&blocks[i]);
  }
  constexpr size_t kRunLength = 16;
  std::vector<SelectOp> order;
  for (size_t begin = 0; order.size() < blocks.size() * blocks[0].size();
       begin += kRunLength) {
    for (const size_t i : instance_order) {
      const std::vector<SelectOp>& block = blocks[i];
      for (size_t j = begin; j < std::min(begin + kRunLength, block.size());
           ++j) {
        order.push_back(block[j]);
      }
    }
  }
  size_t next = 0;
  const auto next_op = [&] { return order[next++ % order.size()]; };
  const auto run_op = [&](const SelectOp& op, bool* ok) {
    const SelectInstance& in = *instances[op.instance];
    const geom::Polygon& query = in.queries[op.query];
    if (op.within) {
      core::DistanceSelectionResult r =
          in.dsel[op.dataset]->Run(query, in.distance[op.dataset], dopt);
      *ok = r.status.ok();
      return std::move(r.ids);
    }
    core::SelectionResult r = in.sel[op.dataset]->Run(query, sopt);
    *ok = r.status.ok();
    return std::move(r.ids);
  };

  // Warm-up: lazy initialization and first-touch page faults stay out of
  // the timed loop.
  for (int i = 0; i < 20; ++i) {
    bool ok = true;
    (void)run_op(next_op(), &ok);
  }

  struct Done {
    SelectOp op;
    uint64_t fingerprint;
    bool ok;
  };
  std::vector<Done> done;
  Tracer tracer(session);
  Tracer untraced(nullptr);
  PairTally tally;
  int64_t qid = 0;
  Stopwatch loop;
  while (loop.ElapsedSeconds() < args.seconds) {
    const SelectOp op = next_op();
    const SelectInstance& in = *instances[op.instance];
    const bool complex = op.query < in.complex_queries;
    bool ok = true;
    Stopwatch watch;
    std::vector<int64_t> ids = run_op(op, &ok);
    const double us = watch.ElapsedSeconds() * 1e6;
    rec->Sample("select.latency_us", us);
    rec->Sample(complex ? "select.complex_us" : "select.rect_us", us);
    rec->Count("queries");
    const uint64_t fingerprint = Fingerprint(std::move(ids));
    if (tracer.HasBudget()) {
      // The query decomposed into layer calls, with spans and without, in
      // alternating order; both results are checked against the
      // pipeline's. The span-free pass keeps its counters out of the record.
      const geom::Polygon& query = in.queries[op.query];
      const index::RTree& tree = *trees[2 * op.instance + op.dataset];
      for (const bool with_spans : {qid % 2 == 0, qid % 2 != 0}) {
        PairTally discard_tally;
        Record discard;
        Stopwatch decomposed;
        std::vector<int64_t> got = DecomposedSelect(
            with_spans ? &tracer : &untraced, qid, in.datasets[op.dataset],
            tree, query, in.distance[op.dataset], op.within,
            with_spans ? &tally : &discard_tally, with_spans ? rec : &discard);
        rec->Sample(with_spans ? "trace.traced_ms" : "trace.untraced_ms",
                    decomposed.ElapsedMillis());
        rec->Attempt(Fingerprint(std::move(got)) == fingerprint);
        rec->Count("trace.checked");
      }
      ++qid;
      if (!op.within) {
        rec->Count("index.nodes_touched",
                   static_cast<double>(tree.NodesTouched(query.Bounds())));
        rec->Count("index.window_probes");
      }
      rec->Count("trace.ops");
    }
    done.push_back({op, fingerprint, ok});
  }
  rec->Set("wall_s", loop.ElapsedSeconds());
  rec->Set("peak_rss_mb", PeakRssMb());
  if (session != nullptr) RecordTally(tally, rec);

  // Exact reference per distinct (instance, dataset, predicate, query):
  // software test, no object filters.
  std::map<std::tuple<size_t, int, bool, size_t>, std::pair<bool, uint64_t>>
      reference;
  for (const Done& d : done) {
    const auto key =
        std::make_tuple(d.op.instance, d.op.dataset, d.op.within, d.op.query);
    auto it = reference.find(key);
    if (it == reference.end()) {
      const SelectInstance& in = *instances[d.op.instance];
      const geom::Polygon& query = in.queries[d.op.query];
      bool ok = true;
      std::vector<int64_t> ids;
      if (d.op.within) {
        core::DistanceSelectionOptions exact;
        exact.use_zero_object_filter = false;
        exact.use_one_object_filter = false;
        core::DistanceSelectionResult r =
            in.dsel[d.op.dataset]->Run(query, in.distance[d.op.dataset], exact);
        ok = r.status.ok();
        ids = std::move(r.ids);
      } else {
        core::SelectionResult r = in.sel[d.op.dataset]->Run(query, {});
        ok = r.status.ok();
        ids = std::move(r.ids);
      }
      it = reference.emplace(key, std::make_pair(ok, Fingerprint(std::move(ids))))
               .first;
    }
    rec->Attempt(d.ok && it->second.first &&
                 d.fingerprint == it->second.second);
  }
  return 0;
}

// --------------------------------------------------------------- serve --

constexpr double kServeExtent = 400.0;
constexpr double kServeSelectDistance = 6.0;
constexpr double kServeJoinDistance = 1.5;
constexpr double kServeWindowHalf = 24.0;
constexpr double kWriterOpsPerSecond = 200.0;
constexpr int64_t kVerifyEvery = 16;

data::GeneratorProfile ServeProfile(const Args& args) {
  data::GeneratorProfile profile;
  profile.name = "serve";
  profile.count = args.small ? 200 : 1500;
  profile.mean_vertices = 12;
  profile.max_vertices = 48;
  profile.extent = geom::Box(0, 0, kServeExtent, kServeExtent);
  profile.seed = 0x5e7e;
  profile.seed ^= SubSeed(args.seed, profile.seed);
  return profile;
}

struct ServeState {
  std::unique_ptr<data::VersionedDataset> store;
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<core::QueryServer> server;
  std::vector<data::UpdateOp> stream;
};

Status StartServe(const Args& args, ServeState* s) {
  const data::GeneratorProfile profile = ServeProfile(args);
  data::UpdateStreamProfile stream;
  stream.objects = profile;
  // The writer is paced, so the stream only needs to outlast the run.
  stream.operations =
      static_cast<int64_t>(kWriterOpsPerSecond * args.seconds * 1.25) + 64;
  stream.insert_fraction = 0.5;
  stream.seed = SubSeed(args.seed, 0x3717e);
  s->server.reset();
  s->store.reset();
  s->stream = data::GenerateUpdateStream(stream);
  size_t inserts = 0;
  for (const data::UpdateOp& op : s->stream) {
    inserts += op.kind == data::UpdateOp::Kind::kInsert ? 1 : 0;
  }
  s->store = std::make_unique<data::VersionedDataset>(
      "serve", static_cast<size_t>(profile.count) + inserts);
  if (Status seeded = s->store->SeedFrom(data::GenerateDataset(profile));
      !seeded.ok()) {
    return seeded;
  }
  s->metrics = std::make_unique<obs::Registry>();
  core::ServerConfig config;
  config.num_workers = 2;
  config.verify_every = kVerifyEvery;
  config.metrics = s->metrics.get();
  s->server = std::make_unique<core::QueryServer>(s->store.get(), config);
  return s->server->Start();
}

geom::Polygon Square(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

const char* KindName(core::QueryKind kind) {
  switch (kind) {
    case core::QueryKind::kSelection:
      return "selection";
    case core::QueryKind::kJoin:
      return "join";
    case core::QueryKind::kDistanceSelection:
      return "distance_selection";
    case core::QueryKind::kDistanceJoin:
      return "distance_join";
  }
  return "unknown";
}

constexpr int kKinds = 4;  // core::QueryKind values

// What one client thread measured, by [traced][kind]; merged into the
// Record after the threads are joined.
struct ClientLog {
  std::vector<double> latency_ms[2][kKinds];
  std::vector<double> wait_ms[2][kKinds];
  // Latency less wait of the selections that ran while tracing alternated,
  // by [traced]: the two sides of trace.overhead_frac.
  std::vector<double> alternating_exec_ms[2];
  core::HwCounters hw;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t degraded = 0;
  int64_t traced_ops = 0;
  double probed = 0.0;            // outside-probe candidates (traced)
  double server_candidates = 0.0;
  double decided = 0.0;           // interval decisions inside the server
};

// What the writer measured, by [traced].
struct WriterLog {
  std::vector<double> late_ms;
  std::vector<double> write_us[2];
  std::vector<double> insert_us[2];
  std::vector<double> delete_us[2];
  std::unordered_set<int64_t> slots;  // distinct ids Insert returned
  int64_t attempted = 0;
  int64_t failed = 0;
};

int RunServe(const Args& args, obs::TraceSession* session, Record* rec) {
  ServeState state;
  Stopwatch setups;
  for (int i = 0;
       i < kSetupRepeats || setups.ElapsedSeconds() < kMinSetupSeconds; ++i) {
    Stopwatch setup;
    if (const Status s = StartServe(args, &state); !s.ok()) {
      std::fprintf(stderr, "serve setup: %s\n", s.message().c_str());
      return 1;
    }
    rec->Sample("setup_s", setup.ElapsedSeconds());
  }
  data::VersionedDataset& store = *state.store;
  core::QueryServer& server = *state.server;
  // A traced run alternates traced and untraced operations on every client
  // and on the writer, so both kinds see the same store size and traffic.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_qid{0};
  Tracer tracer(session);
  Tracer untraced(nullptr);

  // Paced writer: op i is due at start + i / rate, whatever the queries do,
  // so the store size any query sees does not depend on query speed.
  WriterLog wlog;
  std::thread writer([&] {
    std::unordered_map<int64_t, int64_t> key_to_id;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < state.stream.size(); ++i) {
      const auto due =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(static_cast<double>(i) /
                                            kWriterOpsPerSecond));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) break;
      wlog.late_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - due)
                                 .count());
      const data::UpdateOp& op = state.stream[i];
      const bool insert = op.kind == data::UpdateOp::Kind::kInsert;
      const int is_traced = (i % 2 != 0 && tracer.HasBudget()) ? 1 : 0;
      Tracer& t = is_traced ? tracer : untraced;
      const int64_t qid = next_qid.fetch_add(1, std::memory_order_relaxed);
      Stopwatch watch;
      Status status;
      {
        // ApplyUpdateOp spelled out so Insert and Delete get their spans.
        Tracer::Op root(&t, "serve.write", qid);
        if (insert) {
          Result<int64_t> id = t.Call("data", "data.insert", qid,
                                      [&] { return store.Insert(op.polygon); });
          status = id.status();
          if (id.ok()) key_to_id[op.key] = *id;
        } else if (auto it = key_to_id.find(op.key); it != key_to_id.end()) {
          status = t.Call("data", "data.delete", qid,
                          [&] { return store.Delete(it->second); });
          if (status.ok()) key_to_id.erase(it);
        }
      }
      const double us = watch.ElapsedSeconds() * 1e6;
      wlog.write_us[is_traced].push_back(us);
      (insert ? wlog.insert_us : wlog.delete_us)[is_traced].push_back(us);
      if (insert) {
        if (auto it = key_to_id.find(op.key); it != key_to_id.end()) {
          wlog.slots.insert(it->second);
        }
      }
      ++wlog.attempted;
      if (!status.ok()) ++wlog.failed;
    }
  });

  // Closed-loop clients: two interactive (small-window selections), one
  // analytic (self-joins at batch priority).
  const auto client = [&](int id, bool analytic, ClientLog* log) {
    Rng rng(SubSeed(args.seed, 0xca11 + static_cast<uint64_t>(id)));
    bool alternating = false;
    for (int64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      core::QueryRequest request;
      if (analytic) {
        request.kind = (i % 2 == 0) ? core::QueryKind::kJoin
                                    : core::QueryKind::kDistanceJoin;
        request.distance = kServeJoinDistance;
        request.priority = core::QueryPriority::kBatch;
      } else {
        request.kind = (i % 2 == 0) ? core::QueryKind::kSelection
                                    : core::QueryKind::kDistanceSelection;
        request.distance = kServeSelectDistance;
        const double lo = kServeWindowHalf;
        const double hi = kServeExtent - kServeWindowHalf;
        request.query =
            Square(rng.Uniform(lo, hi), rng.Uniform(lo, hi), kServeWindowHalf);
      }
      // Pairs of operations alternate, so each kind is traced every other
      // time. The span budget is checked once per four operations, so an
      // untraced pair is always followed by its traced pair.
      if (i % 4 == 0) alternating = tracer.HasBudget();
      const int is_traced = (alternating && (i / 2) % 2 != 0) ? 1 : 0;
      Tracer& t = is_traced ? tracer : untraced;
      const int64_t qid = next_qid.fetch_add(1, std::memory_order_relaxed);
      Stopwatch watch;
      core::QueryResponse response;
      {
        Tracer::Op root(&t, analytic ? "serve.analytic" : "serve.interactive",
                        qid);
        response = t.Call("core", "core.server", qid,
                          [&] { return server.Execute(request); });
      }
      const double ms = watch.ElapsedMillis();
      if (is_traced && !analytic) {
        // The pin and probe the server makes, repeated from outside as an
        // operation of its own, so the data and index layers get a measured
        // share while the query's latency stays comparable with untraced
        // ones.
        const int64_t probe_qid =
            next_qid.fetch_add(1, std::memory_order_relaxed);
        Tracer::Op probe_root(&t, "serve.probe", probe_qid);
        const data::VersionedDataset::Snapshot snap =
            t.Call("data", "data.snapshot", probe_qid,
                   [&] { return store.snapshot(); });
        const std::vector<int64_t> probed =
            t.Call("index", "index.dynamic_probe", probe_qid, [&] {
              return request.kind == core::QueryKind::kSelection
                         ? snap.QueryIntersects(request.query.Bounds())
                         : snap.QueryWithinDistance(request.query.Bounds(),
                                                    request.distance);
            });
        log->probed += static_cast<double>(probed.size());
        ++log->traced_ops;
      }
      ++log->attempted;
      if (!response.status.ok()) {
        ++log->failed;
        continue;
      }
      const int kind = static_cast<int>(request.kind);
      log->latency_ms[is_traced][kind].push_back(ms);
      log->wait_ms[is_traced][kind].push_back(response.wait_ms);
      if (alternating && !analytic) {
        log->alternating_exec_ms[is_traced].push_back(ms - response.wait_ms);
      }
      if (response.degrade != core::DegradeLevel::kNone) ++log->degraded;
      log->server_candidates += static_cast<double>(response.result.candidates);
      log->decided += static_cast<double>(response.result.interval_hits +
                                          response.result.interval_misses);
      log->hw += response.result.hw_counters;
    }
  };

  constexpr int kClients = 3;
  ClientLog logs[kClients];
  std::vector<std::thread> threads;
  Stopwatch loop;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c, c == kClients - 1, &logs[c]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double wall_s = loop.ElapsedSeconds();
  writer.join();
  rec->Set("wall_s", wall_s);
  rec->Set("peak_rss_mb", PeakRssMb());

  PairTally tally;
  for (const ClientLog& log : logs) {
    for (int tr = 0; tr < 2; ++tr) {
      const std::string prefix = tr ? "traced." : "";
      for (int k = 0; k < kKinds; ++k) {
        const std::string kind = KindName(static_cast<core::QueryKind>(k));
        const std::vector<double>& lat = log.latency_ms[tr][k];
        const std::vector<double>& wait = log.wait_ms[tr][k];
        for (size_t i = 0; i < lat.size(); ++i) {
          rec->Sample(prefix + "serve." + kind + "_ms", lat[i]);
          rec->Sample(prefix + "core.server.wait_ms." + kind, wait[i]);
          rec->Sample(prefix + "core.server.exec_ms." + kind, lat[i] - wait[i]);
        }
        rec->Count("queries", static_cast<double>(lat.size()));
      }
    }
    for (int tr = 0; tr < 2; ++tr) {
      for (const double v : log.alternating_exec_ms[tr]) {
        rec->Sample(tr ? "trace.traced_exec_ms" : "trace.untraced_exec_ms", v);
      }
    }
    for (int64_t i = 0; i < log.attempted; ++i) rec->Attempt(i >= log.failed);
    rec->Count("core.server.degraded", static_cast<double>(log.degraded));
    rec->Count("trace.ops", static_cast<double>(log.traced_ops));
    rec->Count("index.candidates", log.probed);
    rec->Count("index.server_candidates", log.server_candidates);
    rec->Count("filter.decided", log.decided);
    tally.hw += log.hw;
  }
  for (const double v : wlog.late_ms) rec->Sample("serve.writer_late_ms", v);
  for (int tr = 0; tr < 2; ++tr) {
    const std::string prefix = tr ? "traced." : "";
    for (const double v : wlog.write_us[tr]) rec->Sample(prefix + "serve.write_us", v);
    for (const double v : wlog.insert_us[tr]) rec->Sample(prefix + "data.insert_us", v);
    for (const double v : wlog.delete_us[tr]) rec->Sample(prefix + "data.delete_us", v);
  }
  for (int64_t i = 0; i < wlog.attempted; ++i) rec->Attempt(i >= wlog.failed);
  // The server's testers refine exactly what their software test runs.
  tally.refined = tally.hw.sw_tests;
  RecordTally(tally, rec);
  rec->Set("data.slots_allocated", static_cast<double>(wlog.slots.size()));
  rec->Set("data.live_end", static_cast<double>(store.live()));
  const obs::MetricsSnapshot snap = state.metrics->Snapshot();
  rec->Set("core.server.verified",
           static_cast<double>(snap.counter(obs::kServerVerified)));
  rec->Set("core.server.verify_mismatch",
           static_cast<double>(snap.counter(obs::kServerVerifyMismatch)));

  // Snapshot pin cost, measured on the quiescent store.
  for (int i = 0; i < 2000; ++i) {
    Stopwatch watch;
    const data::VersionedDataset::Snapshot pinned = store.snapshot();
    rec->Sample("data.snapshot_us", watch.ElapsedSeconds() * 1e6);
  }

  // Exact check on the quiescent store: each kind through the server
  // against the serial oracle on the same version.
  Rng rng(SubSeed(args.seed, 0xc4ec));
  const data::VersionedDataset::Snapshot quiet = store.snapshot();
  for (int i = 0; i < 24; ++i) {
    core::QueryRequest request;
    request.kind = static_cast<core::QueryKind>(i % 4);
    request.distance = (i % 4 == 2) ? kServeSelectDistance : kServeJoinDistance;
    const bool join = request.kind == core::QueryKind::kJoin ||
                      request.kind == core::QueryKind::kDistanceJoin;
    if (join && i >= 8) continue;  // the serial join oracle is quadratic
    const double lo = kServeWindowHalf;
    const double hi = kServeExtent - kServeWindowHalf;
    request.query =
        Square(rng.Uniform(lo, hi), rng.Uniform(lo, hi), kServeWindowHalf);
    const core::QueryResponse response = server.Execute(request);
    bool same = response.status.ok() && response.epoch == quiet.epoch();
    if (same) {
      switch (request.kind) {
        case core::QueryKind::kSelection:
          same = Sorted(response.result.ids) ==
                 core::OracleSelection(quiet, request.query);
          break;
        case core::QueryKind::kDistanceSelection:
          same = Sorted(response.result.ids) ==
                 core::OracleDistanceSelection(quiet, request.query,
                                               request.distance);
          break;
        case core::QueryKind::kJoin:
          same = Sorted(response.result.pairs) == core::OracleJoin(quiet, quiet);
          break;
        case core::QueryKind::kDistanceJoin:
          same = Sorted(response.result.pairs) ==
                 core::OracleDistanceJoin(quiet, quiet, request.distance);
          break;
      }
    }
    rec->Attempt(same);
    rec->Count("serve.oracle_checked");
  }
  server.Shutdown();
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<obs::TraceSession> session;
  if (args.trace) session = std::make_unique<obs::TraceSession>();
  Record rec;
  int code = 0;
  if (args.workload == "join") {
    code = RunJoin(args, session.get(), &rec);
  } else if (args.workload == "select") {
    code = RunSelect(args, session.get(), &rec);
  } else {
    code = RunServe(args, session.get(), &rec);
  }
  if (code != 0) return code;
  if (session != nullptr) {
    rec.Set("trace.dropped_events",
            static_cast<double>(session->dropped_events()));
    if (const Status s = session->WriteFile(args.trace_out); !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.message().c_str());
      return 1;
    }
  }
  const bool correct =
      rec.failed() == 0 &&
      (session == nullptr || session->dropped_events() == 0);
  if (!rec.Write(args.out, args, correct)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return correct ? 0 : kExitIncorrect;
}

}  // namespace
}  // namespace hasj::perfbench

int main(int argc, char** argv) { return hasj::perfbench::Main(argc, argv); }
