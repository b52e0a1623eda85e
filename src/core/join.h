#ifndef HASJ_CORE_JOIN_H_
#define HASJ_CORE_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/polygon_intersect.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "filter/interval_approx.h"
#include "filter/signature_cache.h"
#include "index/rtree.h"

namespace hasj::core {

struct JoinOptions {
  bool use_hw = false;
  HwConfig hw;
  algo::SoftwareIntersectOptions sw;
  // Rasterization intermediate filter (Zimbrão & Souza, Table 1 of the
  // paper): per-polygon raster signatures, built lazily and cached in the
  // join object across runs, prove candidate pairs intersecting or
  // disjoint before geometry comparison. Value = signature grid size; 0
  // disables (the paper's evaluated configuration).
  int raster_filter_grid = 0;
  // Worker threads for the geometry-comparison stage and the raster-
  // signature pre-build; 1 = serial, 0 = hardware concurrency. Results and
  // counter totals are identical at every thread count
  // (core/refinement_executor.h).
  int num_threads = 1;
};

struct JoinResult {
  std::vector<std::pair<int64_t, int64_t>> pairs;  // intersecting (a, b) ids
  StageCosts costs;
  StageCounts counts;
  int64_t raster_positives = 0;  // pairs proven intersecting by the filter
  int64_t raster_negatives = 0;  // pairs proven disjoint by the filter
  // Interval-filter decisions (zero unless hw.use_intervals): TRUE-HIT
  // pairs accepted without refinement, TRUE-MISS pairs dropped, and the
  // INCONCLUSIVE remainder routed to the geometry comparison.
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;
  // Ok for a complete run; on kDeadlineExceeded / kInternal `pairs` is an
  // exact prefix of the complete result and counts.truncated is set.
  Status status;
};

// Intersection join A ⋈ B: all object pairs with intersecting geometries.
// MBR filtering is a synchronized R-tree traversal; geometry comparison is
// the software or hardware-assisted intersection test (Figures 12-13).
//
// Run() is const and internally synchronized (thread-safe signature
// caches; per-worker testers), so concurrent Run() calls are safe.
class IntersectionJoin {
 public:
  // Pins both datasets' current content and bulk-loads their R-trees;
  // every Run() reads that pinned input, so later Adds never reach this
  // pipeline and the datasets need not outlive it (DESIGN.md §16).
  IntersectionJoin(const data::Dataset& a, const data::Dataset& b);

  [[nodiscard]] JoinResult Run(const JoinOptions& options = {}) const;

 private:
  const data::DatasetSnapshot a_;
  const data::DatasetSnapshot b_;
  const index::RTree rtree_a_;
  const index::RTree rtree_b_;
  // Per-side raster signatures, cached across runs at a fixed grid.
  filter::SignatureCache sig_cache_a_;
  filter::SignatureCache sig_cache_b_;
  // Per-side raster-interval approximations (hw.use_intervals), built over
  // the union frame of both datasets so cell indices are comparable.
  filter::IntervalApproxCache interval_cache_a_;
  filter::IntervalApproxCache interval_cache_b_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_JOIN_H_
