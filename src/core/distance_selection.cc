#include "core/distance_selection.h"

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

WithinDistanceSelection::WithinDistanceSelection(const data::Dataset& dataset)
    : index_(dataset) {}

DistanceSelectionResult WithinDistanceSelection::Run(
    const geom::Polygon& query, double d,
    const DistanceSelectionOptions& options) const {
  // Pin one dataset version for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned pin = index_.Acquire();
  return Publish<DistanceSelectionResult>(
      FilterRefine<int64_t>(
          PipelineSpec("distance_selection", options, true, d),
          [&] { return pin.rtree.QueryWithinDistance(query.Bounds(), d); },
          [&](FilterStages& stages) {
            stages.zero_object = options.use_zero_object_filter;
            stages.one_object = options.use_one_object_filter;
            return AcquireSelectionIntervals(interval_cache_, pin, query,
                                             options.hw, options.num_threads,
                                             &stages);
          },
          [&](int64_t id) {
            return PolygonPair{&pin.polygon(static_cast<size_t>(id)), &query};
          }));
}

}  // namespace hasj::core
