#include "core/distance_join.h"

#include <utility>

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

WithinDistanceJoin::WithinDistanceJoin(const data::Dataset& a,
                                       const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

DistanceJoinResult WithinDistanceJoin::Run(
    double d, const DistanceJoinOptions& options) const {
  // Pin one version of each dataset for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();
  return Publish<DistanceJoinResult>(
      FilterRefine<std::pair<int64_t, int64_t>>(
          PipelineSpec("distance_join", options, true, d),
          // MBR distance lower-bounds object distance.
          [&] { return index::JoinWithinDistance(a.rtree, b.rtree, d); },
          [&](FilterStages& stages) {
            stages.zero_object = options.use_zero_object_filter;
            stages.one_object = options.use_one_object_filter;
            return AcquireJoinIntervals(interval_cache_a_, a,
                                        interval_cache_b_, b, options.hw,
                                        options.num_threads, &stages);
          },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a.polygon(static_cast<size_t>(c.first)),
                               &b.polygon(static_cast<size_t>(c.second))};
          }));
}

}  // namespace hasj::core
