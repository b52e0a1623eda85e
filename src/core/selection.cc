#include "core/selection.h"

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

IntersectionSelection::IntersectionSelection(const data::Dataset& dataset)
    : data_(dataset.snapshot()),
      rtree_(data_.BuildRTree()),
      signature_cache_(data_.polygons()),
      interval_cache_(data_.polygons(), data_.Bounds()) {}

IntersectionSelection::~IntersectionSelection() = default;

SelectionResult IntersectionSelection::Run(
    const geom::Polygon& query, const SelectionOptions& options) const {
  return Publish<SelectionResult>(
      FilterRefine<int64_t>(
          PipelineSpec("selection", options),
          [&] { return rtree_.QueryIntersects(query.Bounds()); },
          [&](FilterStages& stages) {
            if (options.interior_tiling_level >= 0) {
              stages.interior.emplace(query, options.interior_tiling_level);
            }
            if (options.raster_filter_grid > 0) {
              stages.raster_a.Use(
                  signature_cache_.Acquire(options.raster_filter_grid));
              stages.raster_b.Fix(
                  filter::RasterSignature(query, options.raster_filter_grid));
            }
            return AttachIntervals(
                &interval_cache_, nullptr, &query,
                IntervalConfigFrom(options.hw, options.num_threads), &stages);
          },
          [&](int64_t id) {
            return PolygonPair{&data_.polygon(static_cast<size_t>(id)), &query};
          }));
}

}  // namespace hasj::core
