#ifndef HASJ_CORE_DISTANCE_JOIN_H_
#define HASJ_CORE_DISTANCE_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "filter/interval_approx.h"
#include "index/rtree.h"

namespace hasj::core {

struct DistanceJoinOptions {
  // Intermediate filters (Chan's runtime filters; positives only).
  bool use_zero_object_filter = true;
  bool use_one_object_filter = true;
  // Geometry comparison with the hardware-assisted distance test.
  bool use_hw = false;
  HwConfig hw;
  algo::DistanceOptions sw;
  // Worker threads for the geometry-comparison stage; 1 = serial, 0 =
  // hardware concurrency. Results and counter totals are identical at
  // every thread count (core/refinement_executor.h).
  int num_threads = 1;
};

struct DistanceJoinResult {
  std::vector<std::pair<int64_t, int64_t>> pairs;  // ids within distance d
  StageCosts costs;
  StageCounts counts;
  int64_t zero_object_hits = 0;
  int64_t one_object_hits = 0;
  // Interval-filter accepts (zero unless hw.use_intervals). Distance joins
  // use the interval decision accept-only: a TRUE-HIT intersection implies
  // distance 0 <= d, but disjoint interval lists say nothing about the
  // gap, so there is no TRUE-MISS side here.
  int64_t interval_hits = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;
  // Ok for a complete run; on kDeadlineExceeded / kInternal `pairs` is an
  // exact prefix of the complete result and counts.truncated is set.
  Status status;
};

// Within-distance join A ⋈_dist B (the buffer query of Chan [4]): all object
// pairs within distance d. Pipeline: MBR distance join -> 0-Object filter
// -> 1-Object filter -> geometry comparison (Figures 14-16).
class WithinDistanceJoin {
 public:
  // Pins both datasets' current content and bulk-loads their R-trees, as
  // IntersectionJoin does.
  WithinDistanceJoin(const data::Dataset& a, const data::Dataset& b);

  [[nodiscard]] DistanceJoinResult Run(double d, const DistanceJoinOptions& options = {}) const;

 private:
  const data::DatasetSnapshot a_;
  const data::DatasetSnapshot b_;
  const index::RTree rtree_a_;
  const index::RTree rtree_b_;
  // Per-side raster-interval approximations (hw.use_intervals) over the
  // union frame of both datasets.
  filter::IntervalApproxCache interval_cache_a_;
  filter::IntervalApproxCache interval_cache_b_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_DISTANCE_JOIN_H_
