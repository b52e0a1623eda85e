#ifndef HASJ_CORE_FILTER_REFINE_H_
#define HASJ_CORE_FILTER_REFINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/batch_tester.h"
#include "core/hw_config.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "core/paranoid.h"
#include "core/query_obs.h"
#include "core/query_stats.h"
#include "core/refinement_executor.h"
#include "filter/interior_filter.h"
#include "filter/interval_approx.h"
#include "filter/object_filters.h"
#include "filter/raster_signature.h"
#include "filter/signature_cache.h"
#include "geom/polygon.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

// The one filter-and-refine loop behind all eight query forms (DESIGN.md
// §3): the four static pipelines and the four snapshot forms differ only
// in where candidates come from, how a candidate resolves to its two
// polygons, and which caches feed the filters. Everything else — deadline,
// stage timing and spans, PMU scope, paranoid interval oracles, the
// refinement executor and tester choice, and the observability record —
// lives here, once.

// How a query runs: its predicate plus the effective hardware config
// (enable_hw set, degradation ladder applied), software options, threads.
struct FilterRefineSpec {
  const char* kind = "";  // RecordQueryObs kind ("selection", "join", ...)
  HwConfig hw;
  int num_threads = 1;
  bool within = false;  // predicate: within distance d; otherwise intersects
  double d = 0.0;
  algo::SoftwareIntersectOptions sw_intersect;
  algo::DistanceOptions sw_distance;
  // Measure StageCosts. A form whose result carries no costs clears it;
  // the stages are then timed only when a metrics or query-log sink will
  // record them.
  bool timed = true;
};

// The spec of a static pipeline run: its options' hw with enable_hw =
// use_hw, threads, and software options (intersection or distance, by the
// type of options.sw).
template <typename Options>
FilterRefineSpec PipelineSpec(const char* kind, const Options& options,
                              bool within = false, double d = 0.0) {
  FilterRefineSpec spec;
  spec.kind = kind;
  spec.hw = options.hw;
  spec.hw.enable_hw = options.use_hw;
  spec.num_threads = options.num_threads;
  spec.within = within;
  spec.d = d;
  if constexpr (std::is_same_v<decltype(Options::sw), algo::DistanceOptions>) {
    spec.sw_distance = options.sw;
  } else {
    spec.sw_intersect = options.sw;
  }
  return spec;
}

// One FilterRefine run. `results` lists filter accepts, then refined
// accepts, each in candidate order; on a non-OK status it is an exact
// prefix of the complete list and counts.truncated is set (DESIGN.md §11).
template <typename Cand>
struct FilterRefineOutcome {
  std::vector<Cand> results;
  StageCosts costs;
  StageCounts counts;
  QueryObsTallies tallies;
  HwCounters hw_counters;
  Status status;
};

// One side of a pairwise filter, looked up per candidate id: a per-object
// store (interval store or signature cache) or one fixed value — the query
// object's — shared by every candidate.
class IntervalSide {
 public:
  void Use(std::shared_ptr<const filter::IntervalApprox> store) {
    store_ = std::move(store);
  }
  void Fix(filter::ObjectIntervals query) { fixed_ = std::move(query); }
  bool active() const { return store_ != nullptr || fixed_.has_value(); }
  const filter::ObjectIntervals& Get(int64_t id,
                                     const geom::Polygon& polygon) const {
    return store_ != nullptr ? store_->Get(id, polygon) : *fixed_;
  }

 private:
  std::shared_ptr<const filter::IntervalApprox> store_;
  std::optional<filter::ObjectIntervals> fixed_;  // query object
};

class RasterSide {
 public:
  void Use(filter::SignatureCache::Snapshot cache) {
    cache_ = std::move(cache);
  }
  void Fix(filter::RasterSignature query) { fixed_ = std::move(query); }
  bool active() const { return cache_.has_value() || fixed_.has_value(); }
  const filter::RasterSignature& Get(int64_t id) const {
    return cache_.has_value() ? cache_->Get(static_cast<size_t>(id)) : *fixed_;
  }

 private:
  std::optional<filter::SignatureCache::Snapshot> cache_;
  std::optional<filter::RasterSignature> fixed_;
};

// The pre-decision filters, applied to each candidate in this fixed order
// (each form enables the ones it has): interior tiles (selection), the
// 0-/1-Object distance bounds (distance forms), raster intervals, raster
// signatures. The first decisive filter settles the candidate; the rest
// go to geometry comparison. A form's setup hook fills this in during the
// filter stage, so cache builds are timed there.
struct FilterStages {
  // Set by FilterRefine before setup: the interval filter will be
  // consulted (hw.use_intervals, and for distance predicates d >= 0 —
  // intervals only ever accept there). Forms acquire approximations only
  // when it is set.
  bool use_intervals = false;
  std::optional<filter::InteriorFilter> interior;
  bool zero_object = false;  // default on for distance predicates
  bool one_object = false;
  IntervalSide intervals_a;
  IntervalSide intervals_b;
  RasterSide raster_a;
  RasterSide raster_b;
};

// Candidate ids per side; a selection's second side is its query object.
inline std::pair<int64_t, int64_t> SideIds(int64_t id) { return {id, -1}; }
inline const std::pair<int64_t, int64_t>& SideIds(
    const std::pair<int64_t, int64_t>& pair) {
  return pair;
}

namespace internal {

// Candidates between deadline polls, in the decision loop and per-pair
// refinement: amortizes the clock read; the budget can overrun by at most
// one stride's worth of pairs.
inline constexpr int64_t kPollStride = 64;

enum class Verdict : uint8_t { kUndecided, kAccept, kReject };

// The FilterStages chain for one candidate. `join` picks the 1-Object
// geometry: a join bounds with the larger object's (the paper's tighter
// one-sided bound), a selection with its query.
inline Verdict Decide(const FilterStages& stages, bool intervals, bool join,
                      const FilterRefineSpec& spec,
                      std::pair<int64_t, int64_t> ids, const PolygonPair& pp,
                      QueryObsTallies* t) {
  const geom::Box& box_a = pp.first->Bounds();
  const geom::Box& box_b = pp.second->Bounds();
  if (stages.interior.has_value() &&
      stages.interior->IdentifiesPositive(box_a)) {
    return Verdict::kAccept;
  }
  if (stages.zero_object &&
      filter::ZeroObjectUpperBound(box_a, box_b) <= spec.d) {
    ++t->zero_object_hits;
    return Verdict::kAccept;
  }
  if (stages.one_object) {
    const bool use_a = join && box_a.Area() >= box_b.Area();
    if (filter::OneObjectUpperBound(use_a ? *pp.first : *pp.second,
                                    use_a ? box_b : box_a) <= spec.d) {
      ++t->one_object_hits;
      return Verdict::kAccept;
    }
  }
  if (intervals) {
    switch (filter::DecidePair(stages.intervals_a.Get(ids.first, *pp.first),
                               stages.intervals_b.Get(ids.second,
                                                      *pp.second))) {
      case filter::IntervalVerdict::kHit:
        HASJ_PARANOID_ONLY(
            paranoid::CheckIntervalAccept(*pp.first, *pp.second, spec.hw));
        ++t->interval_hits;
        return Verdict::kAccept;
      case filter::IntervalVerdict::kMiss:
        // Disjoint interval lists say nothing about a distance gap, so
        // distance predicates use the interval filter accept-only.
        if (spec.within) break;
        HASJ_PARANOID_ONLY(
            paranoid::CheckIntervalReject(*pp.first, *pp.second, spec.hw));
        ++t->interval_misses;
        return Verdict::kReject;
      case filter::IntervalVerdict::kInconclusive:
        break;
    }
    ++t->interval_undecided;
  }
  if (stages.raster_a.active()) {
    switch (filter::CompareRasterSignatures(
        stages.raster_a.Get(ids.first), stages.raster_b.Get(ids.second))) {
      case filter::RasterFilterDecision::kIntersect:
        ++t->raster_positives;
        return Verdict::kAccept;
      case filter::RasterFilterDecision::kDisjoint:
        ++t->raster_negatives;
        return Verdict::kReject;
      case filter::RasterFilterDecision::kUnknown:
        break;
    }
  }
  return Verdict::kUndecided;
}

}  // namespace internal

// Runs one query. `probe()` returns the MBR-stage candidates (window probe
// or tree join, plain or within-d; Cand is an id or an (a, b) id pair);
// `setup(FilterStages&)` acquires the form's caches and enables its
// filters, returning non-OK to end the query before any decision;
// `resolve(cand)` maps a candidate to its (object, query) or (a, b)
// polygons. Stages: MBR filtering -> FilterStages decisions -> geometry
// comparison of the undecided rest on spec.num_threads workers.
template <typename Cand, typename Probe, typename Setup, typename Resolve>
FilterRefineOutcome<Cand> FilterRefine(const FilterRefineSpec& spec,
                                       Probe&& probe, Setup&& setup,
                                       Resolve&& resolve) {
  constexpr bool kJoin = !std::is_same_v<Cand, int64_t>;
  const HwConfig& hw = spec.hw;
  FilterRefineOutcome<Cand> out;
  // Stage clock: one read per stage boundary, none when untimed.
  using Clock = std::chrono::steady_clock;
  const bool timed =
      spec.timed || hw.metrics != nullptr || hw.query_log != nullptr;
  Clock::time_point mark = timed ? Clock::now() : Clock::time_point{};
  const auto lap_ms = [&] {
    if (!timed) return 0.0;
    const Clock::time_point now = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
    return ms;
  };
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);
  RefinementExecutor executor(spec.num_threads, hw, &deadline);
  obs::ManualSpan stage_span;

  // Stage 1: MBR filtering.
  stage_span.Start(hw.trace, "mbr", "stage");
  const std::vector<Cand> candidates = probe();
  out.counts.candidates = static_cast<int64_t>(candidates.size());
  out.costs.mbr_ms = lap_ms();
  stage_span.End();

  // Stage 2: intermediate filtering.
  stage_span.Start(hw.trace, "filter", "stage");
  FilterStages stages;
  stages.use_intervals = hw.use_intervals && (!spec.within || spec.d >= 0.0);
  stages.zero_object = stages.one_object = spec.within;
  out.status = setup(stages);
  // Pre-build candidate raster signatures in parallel (per-slot call_once,
  // so no duplicate builds); the serial decision loop then reads a warm
  // cache. Candidates the interior filter decides never need one.
  if (out.status.ok() && stages.raster_a.active() && executor.threads() > 1) {
    out.status = executor.ParallelFor(
        static_cast<int64_t>(candidates.size()),
        [&](int64_t begin, int64_t end, int /*worker*/) {
          for (int64_t i = begin; i < end; ++i) {
            const Cand& c = candidates[static_cast<size_t>(i)];
            const PolygonPair pp = resolve(c);
            if (stages.interior.has_value() &&
                stages.interior->IdentifiesPositive(pp.first->Bounds())) {
              continue;
            }
            const auto [id_a, id_b] = SideIds(c);
            stages.raster_a.Get(id_a);
            stages.raster_b.Get(id_b);
          }
        });
  }
  std::vector<Cand> undecided;
  if (out.status.ok()) {
    const bool intervals = stages.use_intervals &&
                           stages.intervals_a.active() &&
                           stages.intervals_b.active();
    // PMU attribution for the decision loop, which the interval filter
    // dominates when it is on (inert with a null PMU).
    const obs::PmuScope interval_pmu(intervals ? hw.pmu : nullptr,
                                     obs::PmuStage::kIntervalDecide,
                                     hw.trace);
    const bool guarded = deadline.active();
    undecided.reserve(candidates.size());
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      // Truncating here leaves the results a prefix of the filter
      // accepts, which lead the full list.
      if (guarded && (ci % internal::kPollStride) == 0 &&
          deadline.Expired()) {
        out.status = deadline.ToStatus();
        break;
      }
      const Cand& c = candidates[ci];
      switch (internal::Decide(stages, intervals, kJoin, spec, SideIds(c),
                               resolve(c), &out.tallies)) {
        case internal::Verdict::kAccept:
          out.results.push_back(c);
          ++out.counts.filter_hits;
          break;
        case internal::Verdict::kReject:
          ++out.counts.filter_hits;
          break;
        case internal::Verdict::kUndecided:
          undecided.push_back(c);
          break;
      }
    }
  }
  out.costs.filter_ms = lap_ms();
  stage_span.End();

  // Stage 3: geometry comparison. The tester is the refinement engine with
  // or without the hardware filter (hw.enable_hw), so the software baseline
  // shares the cached point locators. Each worker owns a tester; accepts
  // come back in candidate order at every thread count.
  stage_span.Start(hw.trace, "compare", "stage");
  if (out.status.ok()) {
    RefinementOutcome<Cand> refined;
    if (hw.use_batching && hw.enable_hw && hw.backend == HwBackend::kBitmask) {
      // Batched hardware step (DESIGN.md §9): decision-identical to the
      // per-pair testers, amortized over atlas tiles. Each chunk resolves
      // its candidates to polygon pairs, then tests them as one batch.
      std::vector<PolygonPair> pairs(undecided.size());
      refined = executor.Refine(
          undecided,
          [&] {
            return BatchHardwareTester(hw, spec.sw_intersect,
                                       spec.sw_distance);
          },
          hw.batch_size,
          [&](BatchHardwareTester& tester, int64_t begin, int64_t end,
              uint8_t* verdicts) {
            for (int64_t i = begin; i < end; ++i) {
              pairs[static_cast<size_t>(i)] =
                  resolve(undecided[static_cast<size_t>(i)]);
            }
            const std::span<const PolygonPair> chunk(
                pairs.data() + begin, static_cast<size_t>(end - begin));
            if (spec.within) {
              tester.TestWithinDistanceBatch(chunk, spec.d, verdicts + begin);
            } else {
              tester.TestIntersectionBatch(chunk, verdicts + begin);
            }
          });
    } else {
      // One tester call per pair.
      const auto per_pair = [&](auto make_tester, auto test) {
        return executor.Refine(
            undecided, make_tester, internal::kPollStride,
            [&](auto& tester, int64_t begin, int64_t end, uint8_t* verdicts) {
              for (int64_t i = begin; i < end; ++i) {
                verdicts[i] =
                    test(tester, resolve(undecided[static_cast<size_t>(i)]));
              }
            });
      };
      refined =
          spec.within
              ? per_pair(
                    [&] { return HwDistanceTester(hw, spec.sw_distance); },
                    [&](HwDistanceTester& tester, const PolygonPair& pp) {
                      return tester.Test(*pp.first, *pp.second, spec.d);
                    })
              : per_pair(
                    [&] {
                      return HwIntersectionTester(hw, spec.sw_intersect);
                    },
                    [](HwIntersectionTester& tester, const PolygonPair& pp) {
                      return tester.Test(*pp.first, *pp.second);
                    });
    }
    out.counts.compared = refined.attempted;
    out.results.insert(out.results.end(), refined.accepted.begin(),
                       refined.accepted.end());
    out.hw_counters = refined.counters;
    out.status = refined.status;
  }
  out.costs.compare_ms = lap_ms();
  stage_span.End();
  out.counts.truncated = !out.status.ok();
  out.counts.results = static_cast<int64_t>(out.results.size());
  RecordQueryObs(hw, spec.kind, out.costs, out.counts, out.hw_counters,
                 out.tallies, pmu_begin);
  return out;
}

// A form's public result struct from a FilterRefine outcome. Each struct
// carries the subset of counters its filters can produce; fields it lacks
// are skipped at compile time.
template <typename Result, typename Cand>
Result Publish(FilterRefineOutcome<Cand>&& out) {
  Result r;
  if constexpr (std::is_same_v<Cand, int64_t>) {
    r.ids = std::move(out.results);
  } else {
    r.pairs = std::move(out.results);
  }
  r.hw_counters = out.hw_counters;
  r.status = std::move(out.status);
  r.interval_hits = out.tallies.interval_hits;
  if constexpr (requires { r.counts; }) {
    r.costs = out.costs;
    r.counts = out.counts;
    r.interval_undecided = out.tallies.interval_undecided;
  } else {
    r.candidates = out.counts.candidates;
    r.truncated = out.counts.truncated;
  }
  if constexpr (requires { r.interval_misses; }) {
    r.interval_misses = out.tallies.interval_misses;
  }
  if constexpr (requires { r.raster_positives; }) {
    r.raster_positives = out.tallies.raster_positives;
    r.raster_negatives = out.tallies.raster_negatives;
  }
  if constexpr (requires { r.zero_object_hits; }) {
    r.zero_object_hits = out.tallies.zero_object_hits;
    r.one_object_hits = out.tallies.one_object_hits;
  }
  return r;
}

}  // namespace hasj::core

#endif  // HASJ_CORE_FILTER_REFINE_H_
