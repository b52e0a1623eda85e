#include "core/distance_selection.h"

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

WithinDistanceSelection::WithinDistanceSelection(const data::Dataset& dataset)
    : data_(dataset.snapshot()),
      rtree_(data_.BuildRTree()),
      interval_cache_(data_.polygons(), data_.Bounds()) {}

DistanceSelectionResult WithinDistanceSelection::Run(
    const geom::Polygon& query, double d,
    const DistanceSelectionOptions& options) const {
  return Publish<DistanceSelectionResult>(
      FilterRefine<int64_t>(
          PipelineSpec("distance_selection", options, true, d),
          [&] { return rtree_.QueryWithinDistance(query.Bounds(), d); },
          [&](FilterStages& stages) {
            stages.zero_object = options.use_zero_object_filter;
            stages.one_object = options.use_one_object_filter;
            return AttachIntervals(
                &interval_cache_, nullptr, &query,
                IntervalConfigFrom(options.hw, options.num_threads), &stages);
          },
          [&](int64_t id) {
            return PolygonPair{&data_.polygon(static_cast<size_t>(id)), &query};
          }));
}

}  // namespace hasj::core
