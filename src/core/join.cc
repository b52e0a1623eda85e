#include "core/join.h"

#include <utility>

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

IntersectionJoin::IntersectionJoin(const data::Dataset& a,
                                   const data::Dataset& b)
    : a_(a.snapshot()),
      b_(b.snapshot()),
      rtree_a_(a_.BuildRTree()),
      rtree_b_(b_.BuildRTree()),
      sig_cache_a_(a_.polygons()),
      sig_cache_b_(b_.polygons()),
      interval_cache_a_(a_.polygons(), JoinFrame(a_, b_)),
      interval_cache_b_(b_.polygons(), JoinFrame(a_, b_)) {}

JoinResult IntersectionJoin::Run(const JoinOptions& options) const {
  return Publish<JoinResult>(
      FilterRefine<std::pair<int64_t, int64_t>>(
          PipelineSpec("join", options),
          [&] { return index::JoinIntersects(rtree_a_, rtree_b_); },
          [&](FilterStages& stages) {
            if (Status s = AttachIntervals(
                    &interval_cache_a_, &interval_cache_b_, nullptr,
                    IntervalConfigFrom(options.hw, options.num_threads),
                    &stages);
                !s.ok()) {
              return s;
            }
            if (options.raster_filter_grid > 0) {
              stages.raster_a.Use(
                  sig_cache_a_.Acquire(options.raster_filter_grid));
              stages.raster_b.Use(
                  sig_cache_b_.Acquire(options.raster_filter_grid));
            }
            return Status::Ok();
          },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a_.polygon(static_cast<size_t>(c.first)),
                               &b_.polygon(static_cast<size_t>(c.second))};
          }));
}

}  // namespace hasj::core
