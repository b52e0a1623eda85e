#ifndef HASJ_CORE_SELECTION_H_
#define HASJ_CORE_SELECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/polygon_intersect.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "filter/interval_approx.h"
#include "filter/signature_cache.h"
#include "geom/polygon.h"
#include "index/rtree.h"

namespace hasj::core {

struct SelectionOptions {
  // Interior-filter tiling level l (grid 2^l x 2^l); negative disables the
  // intermediate filter (Figure 10 sweeps 0..6).
  int interior_tiling_level = -1;
  // Rasterization intermediate filter (Zimbrão & Souza, Table 1): candidate
  // signatures are cached in the selection object across queries, so the
  // build cost amortizes the way pre-processing techniques do in the
  // paper's taxonomy. Value = signature grid size; 0 disables.
  int raster_filter_grid = 0;
  // Geometry comparison with the hardware-assisted test (Algorithm 3.1)
  // instead of the software-only test.
  bool use_hw = false;
  HwConfig hw;
  algo::SoftwareIntersectOptions sw;
  // Worker threads for the geometry-comparison stage (and the raster-
  // signature pre-build): each worker runs its own tester over a chunk of
  // the candidate list (core/refinement_executor.h). 1 = serial (the
  // paper's single off-screen window), 0 = hardware concurrency. Results
  // and counter totals are identical at every thread count.
  int num_threads = 1;
};

struct SelectionResult {
  std::vector<int64_t> ids;  // objects intersecting the query polygon
  StageCosts costs;
  StageCounts counts;
  int64_t raster_positives = 0;  // decided intersecting by the raster filter
  int64_t raster_negatives = 0;  // decided disjoint by the raster filter
  // Interval-filter decisions (zero unless hw.use_intervals): TRUE-HIT
  // pairs accepted without refinement, TRUE-MISS pairs dropped, and the
  // INCONCLUSIVE remainder routed to the geometry comparison.
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;        // zero unless use_hw
  // Ok for a complete run. kDeadlineExceeded (budget/cancel) or kInternal
  // (a refinement worker failed): `ids` is then an exact prefix of the
  // complete result and counts.truncated is set.
  Status status;
};

// Intersection selection: all dataset objects intersecting a query polygon,
// processed as MBR filtering (R-tree) -> intermediate filters (interior
// and/or raster) -> geometry comparison, the paper's Figure 8 pipeline.
//
// Run() is const and internally synchronized: the per-object signature
// cache is a filter::SignatureCache (per-slot std::call_once builds,
// snapshot-pinned grid resets), so concurrent Run() calls — and the
// parallel refinement workers inside one call — are safe.
class IntersectionSelection {
 public:
  // Pins the dataset's current content and bulk-loads its R-tree; every
  // Run() reads that pinned input, so later Adds to `dataset` never reach
  // this pipeline and `dataset` need not outlive it (DESIGN.md §16).
  explicit IntersectionSelection(const data::Dataset& dataset);
  ~IntersectionSelection();

  [[nodiscard]] SelectionResult Run(const geom::Polygon& query,
                      const SelectionOptions& options = {}) const;

 private:
  const data::DatasetSnapshot data_;
  const index::RTree rtree_;
  // Lazy raster signatures of data_, keyed by object id; a run acquires a
  // snapshot for its grid size, so grid changes install a fresh slot array
  // instead of clearing one that another run may still be reading.
  filter::SignatureCache signature_cache_;
  // Raster-interval approximation of data_ (hw.use_intervals), built on
  // first use and shared across queries.
  filter::IntervalApproxCache interval_cache_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_SELECTION_H_
