#ifndef HASJ_CORE_INTERVAL_STAGE_H_
#define HASJ_CORE_INTERVAL_STAGE_H_

#include <memory>
#include <type_traits>
#include <utility>

#include "common/macros.h"
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

// The interval stage of all eight query forms (DESIGN.md §12), attached
// only when FilterRefine asked for intervals. Side A reads `a`'s slots.
// Side B reads `b`'s (a join's other side) or, for a selection (`query`
// set, `b` null), the query object approximated on a's grid. A source is a
// static pipeline's cache, built at the query's `config`, or a mutable
// store's lazy IntervalApprox, borrowed for the query; a null one leaves
// the filter off. A join compares the two stores' Hilbert indices
// directly, so stores that disagree on frame or grid bits are a
// kInvalidArgument, never a silently wrong answer.
template <typename Source>
Status AttachIntervals(const Source* a, const std::type_identity_t<Source>* b,
                       const geom::Polygon* query,
                       const filter::IntervalApproxConfig& config,
                       FilterStages* stages) {
  using Store = std::shared_ptr<const filter::IntervalApprox>;
  if (!stages->use_intervals || a == nullptr ||
      (query == nullptr && b == nullptr)) {
    return Status::Ok();
  }
  const auto pin = [&config](const Source& source) -> Result<Store> {
    if constexpr (std::is_same_v<Source, filter::IntervalApprox>) {
      return Store(Store(), &source);  // non-owning
    } else {
      return source.Acquire(config);
    }
  };
  HASJ_ASSIGN_OR_RETURN(Store store_a, pin(*a));
  if (query != nullptr) {
    stages->intervals_b.Fix(store_a->ApproximateObject(*query));
  } else {
    HASJ_ASSIGN_OR_RETURN(Store store_b, pin(*b));
    if (!store_a->SameGrid(*store_b)) {
      return Status::InvalidArgument(
          "joined interval stores disagree on frame or grid bits");
    }
    stages->intervals_b.Use(std::move(store_b));
  }
  stages->intervals_a.Use(std::move(store_a));
  return Status::Ok();
}

}  // namespace hasj::core

#endif  // HASJ_CORE_INTERVAL_STAGE_H_
