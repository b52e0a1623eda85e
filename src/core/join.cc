#include "core/join.h"

#include <utility>

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

IntersectionJoin::IntersectionJoin(const data::Dataset& a,
                                   const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

JoinResult IntersectionJoin::Run(const JoinOptions& options) const {
  // Pin both dataset versions for the whole query.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();
  return Publish<JoinResult>(
      FilterRefine<std::pair<int64_t, int64_t>>(
          PipelineSpec("join", options),
          [&] { return index::JoinIntersects(a.rtree, b.rtree); },
          [&](FilterStages& stages) {
            if (Status s = AcquireJoinIntervals(interval_cache_a_, a,
                                                interval_cache_b_, b,
                                                options.hw,
                                                options.num_threads, &stages);
                !s.ok()) {
              return s;
            }
            if (options.raster_filter_grid > 0) {
              stages.raster_a.Use(sig_cache_a_.Acquire(
                  options.raster_filter_grid, a.size(), a.epoch()));
              stages.raster_b.Use(sig_cache_b_.Acquire(
                  options.raster_filter_grid, b.size(), b.epoch()));
            }
            return Status::Ok();
          },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a.polygon(static_cast<size_t>(c.first)),
                               &b.polygon(static_cast<size_t>(c.second))};
          }));
}

}  // namespace hasj::core
