#include "core/selection.h"

#include "core/filter_refine.h"
#include "core/interval_stage.h"

namespace hasj::core {

IntersectionSelection::IntersectionSelection(const data::Dataset& dataset)
    : index_(dataset) {}

IntersectionSelection::~IntersectionSelection() = default;

SelectionResult IntersectionSelection::Run(
    const geom::Polygon& query, const SelectionOptions& options) const {
  // Pin the dataset version for the whole query: content, tree, and every
  // derived cache below key off this one epoch.
  const data::DatasetIndex::Pinned pin = index_.Acquire();
  return Publish<SelectionResult>(
      FilterRefine<int64_t>(
          PipelineSpec("selection", options),
          [&] { return pin.rtree.QueryIntersects(query.Bounds()); },
          [&](FilterStages& stages) {
            if (options.interior_tiling_level >= 0) {
              stages.interior.emplace(query, options.interior_tiling_level);
            }
            if (options.raster_filter_grid > 0) {
              stages.raster_a.Use(signature_cache_.Acquire(
                  options.raster_filter_grid, pin.size(), pin.epoch()));
              stages.raster_b.Fix(
                  filter::RasterSignature(query, options.raster_filter_grid));
            }
            return AcquireSelectionIntervals(interval_cache_, pin, query,
                                             options.hw, options.num_threads,
                                             &stages);
          },
          [&](int64_t id) {
            return PolygonPair{&pin.polygon(static_cast<size_t>(id)), &query};
          }));
}

}  // namespace hasj::core
