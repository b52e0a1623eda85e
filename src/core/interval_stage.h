#ifndef HASJ_CORE_INTERVAL_STAGE_H_
#define HASJ_CORE_INTERVAL_STAGE_H_

#include <utility>

#include "common/status.h"
#include "core/filter_refine.h"
#include "core/hw_config.h"
#include "data/dataset_index.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj::core {

// Translates the pipeline-facing HwConfig knobs into the filter-layer
// interval build configuration. One place, so all four pipelines build
// interval approximations with identical semantics (same grid, budget,
// fault site, and instrumentation hooks).
inline filter::IntervalApproxConfig IntervalConfigFrom(const HwConfig& hw,
                                                       int num_threads) {
  filter::IntervalApproxConfig config;
  config.grid_bits = hw.interval_grid_bits;
  config.memory_budget_bytes = hw.interval_budget_bytes;
  config.num_threads = num_threads;
  config.faults = hw.faults;
  config.trace = hw.trace;
  config.metrics = hw.metrics;
  return config;
}

// The static selections' interval stage (DESIGN.md §12): the dataset
// approximation, built once per (grid, budget, epoch) and shared across
// queries, against the query object approximated on the same grid. No-op
// unless FilterRefine asked for intervals.
inline Status AcquireSelectionIntervals(
    const filter::IntervalApproxCache& cache,
    const data::DatasetIndex::Pinned& pin, const geom::Polygon& query,
    const HwConfig& hw, int num_threads, FilterStages* stages) {
  if (!stages->use_intervals) return Status::Ok();
  auto acquired =
      cache.Acquire(pin.data.polygons(), pin.Bounds(), pin.epoch(),
                    IntervalConfigFrom(hw, num_threads));
  if (!acquired.ok()) return acquired.status();
  stages->intervals_b.Fix((*acquired)->ApproximateObject(query));
  stages->intervals_a.Use(std::move(acquired).value());
  return Status::Ok();
}

// The static joins' interval stage: both sides approximated over one frame
// — the union of the two extents — so their Hilbert cell indices are
// directly comparable.
inline Status AcquireJoinIntervals(const filter::IntervalApproxCache& cache_a,
                                   const data::DatasetIndex::Pinned& a,
                                   const filter::IntervalApproxCache& cache_b,
                                   const data::DatasetIndex::Pinned& b,
                                   const HwConfig& hw, int num_threads,
                                   FilterStages* stages) {
  if (!stages->use_intervals) return Status::Ok();
  geom::Box frame = a.Bounds();
  frame.Extend(b.Bounds());
  const filter::IntervalApproxConfig config =
      IntervalConfigFrom(hw, num_threads);
  auto acquired_a =
      cache_a.Acquire(a.data.polygons(), frame, a.epoch(), config);
  auto acquired_b =
      cache_b.Acquire(b.data.polygons(), frame, b.epoch(), config);
  if (!acquired_a.ok()) return acquired_a.status();
  if (!acquired_b.ok()) return acquired_b.status();
  stages->intervals_a.Use(std::move(acquired_a).value());
  stages->intervals_b.Use(std::move(acquired_b).value());
  return Status::Ok();
}

}  // namespace hasj::core

#endif  // HASJ_CORE_INTERVAL_STAGE_H_
