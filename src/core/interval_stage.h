#ifndef HASJ_CORE_INTERVAL_STAGE_H_
#define HASJ_CORE_INTERVAL_STAGE_H_

#include <utility>

#include "common/status.h"
#include "core/filter_refine.h"
#include "core/hw_config.h"
#include "data/dataset.h"
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

// The frame a static join approximates both sides over: the union of the
// two extents, so their Hilbert cell indices are directly comparable.
inline geom::Box JoinFrame(const data::DatasetSnapshot& a,
                           const data::DatasetSnapshot& b) {
  geom::Box frame = a.Bounds();
  frame.Extend(b.Bounds());
  return frame;
}

// The static selections' interval stage (DESIGN.md §12): the dataset
// approximation, built once per (grid, budget) and shared across queries,
// against the query object approximated on the same grid. No-op unless
// FilterRefine asked for intervals.
inline Status AcquireSelectionIntervals(
    const filter::IntervalApproxCache& cache, const geom::Polygon& query,
    const HwConfig& hw, int num_threads, FilterStages* stages) {
  if (!stages->use_intervals) return Status::Ok();
  auto acquired = cache.Acquire(IntervalConfigFrom(hw, num_threads));
  if (!acquired.ok()) return acquired.status();
  stages->intervals_b.Fix((*acquired)->ApproximateObject(query));
  stages->intervals_a.Use(std::move(acquired).value());
  return Status::Ok();
}

// The static joins' interval stage: both sides' caches are bound to the
// JoinFrame of their inputs.
inline Status AcquireJoinIntervals(const filter::IntervalApproxCache& cache_a,
                                   const filter::IntervalApproxCache& cache_b,
                                   const HwConfig& hw, int num_threads,
                                   FilterStages* stages) {
  if (!stages->use_intervals) return Status::Ok();
  const filter::IntervalApproxConfig config =
      IntervalConfigFrom(hw, num_threads);
  auto acquired_a = cache_a.Acquire(config);
  auto acquired_b = cache_b.Acquire(config);
  if (!acquired_a.ok()) return acquired_a.status();
  if (!acquired_b.ok()) return acquired_b.status();
  stages->intervals_a.Use(std::move(acquired_a).value());
  stages->intervals_b.Use(std::move(acquired_b).value());
  return Status::Ok();
}

}  // namespace hasj::core

#endif  // HASJ_CORE_INTERVAL_STAGE_H_
