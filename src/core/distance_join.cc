#include "core/distance_join.h"

#include <utility>

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

WithinDistanceJoin::WithinDistanceJoin(const data::Dataset& a,
                                       const data::Dataset& b)
    : a_(a.snapshot()),
      b_(b.snapshot()),
      rtree_a_(a_.BuildRTree()),
      rtree_b_(b_.BuildRTree()),
      interval_cache_a_(a_.polygons(), JoinFrame(a_, b_)),
      interval_cache_b_(b_.polygons(), JoinFrame(a_, b_)) {}

DistanceJoinResult WithinDistanceJoin::Run(
    double d, const DistanceJoinOptions& options) const {
  return Publish<DistanceJoinResult>(
      FilterRefine<std::pair<int64_t, int64_t>>(
          PipelineSpec("distance_join", options, true, d),
          // MBR distance lower-bounds object distance.
          [&] { return index::JoinWithinDistance(rtree_a_, rtree_b_, d); },
          [&](FilterStages& stages) {
            stages.zero_object = options.use_zero_object_filter;
            stages.one_object = options.use_one_object_filter;
            return AttachIntervals(
                &interval_cache_a_, &interval_cache_b_, nullptr,
                IntervalConfigFrom(options.hw, options.num_threads), &stages);
          },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a_.polygon(static_cast<size_t>(c.first)),
                               &b_.polygon(static_cast<size_t>(c.second))};
          }));
}

}  // namespace hasj::core
