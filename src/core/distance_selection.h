#ifndef HASJ_CORE_DISTANCE_SELECTION_H_
#define HASJ_CORE_DISTANCE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "filter/interval_approx.h"
#include "geom/polygon.h"
#include "index/rtree.h"

namespace hasj::core {

struct DistanceSelectionOptions {
  // Intermediate filters (Chan's runtime filters; positives only).
  bool use_zero_object_filter = true;
  bool use_one_object_filter = true;
  bool use_hw = false;
  HwConfig hw;
  algo::DistanceOptions sw;
  // Worker threads for the geometry-comparison stage; 1 = serial, 0 =
  // hardware concurrency. Results and counter totals are identical at
  // every thread count (core/refinement_executor.h).
  int num_threads = 1;
};

struct DistanceSelectionResult {
  std::vector<int64_t> ids;  // objects within distance d of the query
  StageCosts costs;
  StageCounts counts;
  int64_t zero_object_hits = 0;
  int64_t one_object_hits = 0;
  // Interval-filter accepts (zero unless hw.use_intervals). Distance
  // queries use the interval decision accept-only: a TRUE-HIT intersection
  // implies distance 0 <= d, but disjoint interval lists say nothing about
  // the gap, so there is no TRUE-MISS side here.
  int64_t interval_hits = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;
  // Ok for a complete run; on kDeadlineExceeded / kInternal `ids` is an
  // exact prefix of the complete result and counts.truncated is set.
  Status status;
};

// Within-distance selection ("all objects within d of this polygon" — the
// selection form of the paper's buffer query): MBR distance filtering via
// the R-tree, 0/1-Object filters, then the software or hardware-assisted
// distance test.
class WithinDistanceSelection {
 public:
  // Pins the dataset's current content and bulk-loads its R-tree, as
  // IntersectionSelection does.
  explicit WithinDistanceSelection(const data::Dataset& dataset);

  [[nodiscard]] DistanceSelectionResult Run(const geom::Polygon& query, double d,
                              const DistanceSelectionOptions& options = {}) const;

 private:
  const data::DatasetSnapshot data_;
  const index::RTree rtree_;
  // Raster-interval approximation of data_ (hw.use_intervals), built on
  // first use and shared across queries.
  filter::IntervalApproxCache interval_cache_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_DISTANCE_SELECTION_H_
