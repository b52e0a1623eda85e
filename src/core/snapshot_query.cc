#include "core/snapshot_query.h"

#include <algorithm>
#include <optional>

#include "core/filter_refine.h"
#include "core/interval_stage.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "index/dynamic_rtree.h"

namespace hasj::core {

namespace {

using data::VersionedDataset;
using Pair = std::pair<int64_t, int64_t>;

// The FilterRefine spec of a snapshot query: the ladder's config, serial (the
// server parallelizes across queries, not inside one), and untimed unless
// a sink records the stage costs (SnapshotQueryResult carries none).
FilterRefineSpec SnapshotSpec(const char* kind,
                              const SnapshotQueryOptions& options,
                              bool within = false, double d = 0.0) {
  return {.kind = kind,
          .hw = DegradedHwConfig(options.hw, options.use_hw, options.degrade),
          .within = within,
          .d = d,
          .sw_intersect = options.sw_intersect,
          .sw_distance = options.sw_distance,
          .timed = false};
}

// An oracle's exact verdict: the software predicate behind the sound MBR
// pre-check (disjoint boxes, or boxes farther apart than d, rule a pair
// out), which keeps the oracles usable at chaos-suite query counts.
bool OracleMatch(const geom::Polygon& p, const geom::Polygon& q,
                 std::optional<double> d) {
  if (!d.has_value()) {
    return p.Bounds().Intersects(q.Bounds()) && algo::PolygonsIntersect(p, q);
  }
  return geom::MinDistance(p.Bounds(), q.Bounds()) <= *d &&
         algo::WithinDistance(p, q, *d);
}

std::vector<int64_t> OracleScan(const VersionedDataset::Snapshot& snap,
                                const geom::Polygon& query,
                                std::optional<double> d) {
  std::vector<int64_t> out;
  for (const int64_t id : snap.LiveIds()) {
    if (OracleMatch(snap.polygon(id), query, d)) out.push_back(id);
  }
  return out;
}

std::vector<Pair> OracleScan(const VersionedDataset::Snapshot& a,
                             const VersionedDataset::Snapshot& b,
                             std::optional<double> d) {
  std::vector<Pair> out;
  const std::vector<int64_t> ids_b = b.LiveIds();
  for (const int64_t ida : a.LiveIds()) {
    for (const int64_t idb : ids_b) {
      if (OracleMatch(a.polygon(ida), b.polygon(idb), d)) {
        out.emplace_back(ida, idb);
      }
    }
  }
  return out;
}

}  // namespace

HwConfig DegradedHwConfig(const HwConfig& hw, bool use_hw,
                          DegradeLevel level) {
  HwConfig out = hw;
  out.enable_hw = use_hw;
  if (level >= DegradeLevel::kNoBatch) out.use_batching = false;
  if (level >= DegradeLevel::kLowRes) {
    out.resolution = std::min(out.resolution, 4);
  }
  if (level >= DegradeLevel::kIntervalsOnly) out.enable_hw = false;
  out.use_intervals = level >= DegradeLevel::kIntervalsOnly;
  return out;
}

SnapshotQueryResult SnapshotSelection(const VersionedDataset::Snapshot& snap,
                                      const geom::Polygon& query,
                                      const SnapshotQueryOptions& options) {
  return Publish<SnapshotQueryResult>(FilterRefine<int64_t>(
      SnapshotSpec("selection", options),
      [&] { return snap.QueryIntersects(query.Bounds()); },
      [&](FilterStages& stages) {
        return AttachIntervals(options.intervals, nullptr, &query, {},
                               &stages);
      },
      [&](int64_t id) { return PolygonPair{&snap.polygon(id), &query}; }));
}

SnapshotQueryResult SnapshotJoin(const VersionedDataset::Snapshot& a,
                                 const VersionedDataset::Snapshot& b,
                                 const SnapshotQueryOptions& options) {
  return Publish<SnapshotQueryResult>(FilterRefine<Pair>(
      SnapshotSpec("join", options),
      [&] { return index::JoinIntersects(a.index(), b.index()); },
      [&](FilterStages& stages) {
        return AttachIntervals(options.intervals, options.intervals_b, nullptr,
                               {}, &stages);
      },
      [&](const Pair& c) {
        return PolygonPair{&a.polygon(c.first), &b.polygon(c.second)};
      }));
}

SnapshotQueryResult SnapshotDistanceSelection(
    const VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d, const SnapshotQueryOptions& options) {
  return Publish<SnapshotQueryResult>(FilterRefine<int64_t>(
      SnapshotSpec("distance_selection", options, true, d),
      [&] { return snap.QueryWithinDistance(query.Bounds(), d); },
      [&](FilterStages& stages) {
        return AttachIntervals(options.intervals, nullptr, &query, {},
                               &stages);
      },
      [&](int64_t id) { return PolygonPair{&snap.polygon(id), &query}; }));
}

SnapshotQueryResult SnapshotDistanceJoin(const VersionedDataset::Snapshot& a,
                                         const VersionedDataset::Snapshot& b,
                                         double d,
                                         const SnapshotQueryOptions& options) {
  return Publish<SnapshotQueryResult>(FilterRefine<Pair>(
      SnapshotSpec("distance_join", options, true, d),
      [&] { return index::JoinWithinDistance(a.index(), b.index(), d); },
      [&](FilterStages& stages) {
        return AttachIntervals(options.intervals, options.intervals_b, nullptr,
                               {}, &stages);
      },
      [&](const Pair& c) {
        return PolygonPair{&a.polygon(c.first), &b.polygon(c.second)};
      }));
}

std::vector<int64_t> OracleSelection(const VersionedDataset::Snapshot& snap,
                                     const geom::Polygon& query) {
  return OracleScan(snap, query, std::nullopt);
}

std::vector<Pair> OracleJoin(const VersionedDataset::Snapshot& a,
                             const VersionedDataset::Snapshot& b) {
  return OracleScan(a, b, std::nullopt);
}

std::vector<int64_t> OracleDistanceSelection(
    const VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d) {
  return OracleScan(snap, query, d);
}

std::vector<Pair> OracleDistanceJoin(const VersionedDataset::Snapshot& a,
                                     const VersionedDataset::Snapshot& b,
                                     double d) {
  return OracleScan(a, b, d);
}

}  // namespace hasj::core
