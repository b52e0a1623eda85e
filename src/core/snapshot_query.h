#ifndef HASJ_CORE_SNAPSHOT_QUERY_H_
#define HASJ_CORE_SNAPSHOT_QUERY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "geom/polygon.h"

namespace hasj::core {

// Overload-degradation ladder for the serving layer (DESIGN.md §16).
// Levels are cumulative — each one keeps every cheaper level's concession —
// and strictly performance-only: verdicts are exact at every level, because
// each step swaps one exact execution strategy for another (batching off,
// coarser-but-still-conservative raster window, interval pre-decision with
// exact software refinement of inconclusive pairs).
enum class DegradeLevel {
  kNone = 0,
  // L1: drop tile-atlas batching — smaller per-query working set, same
  // per-pair decisions (the batched path is decision-identical by design).
  kNoBatch = 1,
  // L2: also lower the hardware raster resolution — cheaper per-pair
  // hardware step; the conservative filter simply decides fewer pairs.
  kLowRes = 2,
  // L3: also bypass the hardware testers entirely — interval pre-decision
  // (when a store is attached) plus exact software refinement.
  kIntervalsOnly = 3,
};

// The hardware config a query actually runs with at `level`: use_intervals
// is set exactly at kIntervalsOnly, the only rung that consults the
// interval stores. Split out so tests can assert the ladder
// deterministically.
HwConfig DegradedHwConfig(const HwConfig& hw, bool use_hw, DegradeLevel level);

struct SnapshotQueryOptions {
  // Geometry comparison with the hardware-assisted testers (subject to the
  // degradation ladder).
  bool use_hw = true;
  HwConfig hw;
  algo::SoftwareIntersectOptions sw_intersect;
  algo::DistanceOptions sw_distance;
  DegradeLevel degrade = DegradeLevel::kNone;
  // Per-store interval stores (filter::LazyIntervalApprox, one slot per
  // store id, filled on first use), consulted at kIntervalsOnly only (may
  // be null: refinement is pure software then). `intervals` serves the
  // selection snapshot / join side A; `intervals_b` join side B. A
  // self-join passes the same store twice. A join whose two stores
  // disagree on frame or grid bits fails with kInvalidArgument.
  const filter::IntervalApprox* intervals = nullptr;
  const filter::IntervalApprox* intervals_b = nullptr;
};

struct SnapshotQueryResult {
  std::vector<int64_t> ids;                          // selection forms
  std::vector<std::pair<int64_t, int64_t>> pairs;    // join forms
  int64_t candidates = 0;
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  HwCounters hw_counters;
  // Ok for a complete run. On kDeadlineExceeded (budget or cancellation)
  // or kInternal the result is partial — an exact prefix of the complete
  // one in candidate order (DESIGN.md §11) — truncated is set, and it must
  // not be served as exact.
  Status status;
  bool truncated = false;
};

// Snapshot-pinned query forms for the mutable store: each runs entirely
// against the pinned index version + write-once slots it is handed, so
// concurrent Insert/Delete traffic cannot change what a running query sees.
// Results use candidate order (filter accepts first, refined accepts
// after); callers comparing against an oracle sort both sides.
SnapshotQueryResult SnapshotSelection(const data::VersionedDataset::Snapshot& snap,
                                      const geom::Polygon& query,
                                      const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotJoin(const data::VersionedDataset::Snapshot& a,
                                 const data::VersionedDataset::Snapshot& b,
                                 const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotDistanceSelection(
    const data::VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d, const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotDistanceJoin(
    const data::VersionedDataset::Snapshot& a,
    const data::VersionedDataset::Snapshot& b, double d,
    const SnapshotQueryOptions& options = {});

// Serial oracles: brute-force scans over the snapshot's live ids with the
// exact software predicates, no index, no filters, no hardware. Ground
// truth for the chaos suite and the server's sampled self-verification.
// Sorted ascending (lexicographically for pairs).
std::vector<int64_t> OracleSelection(const data::VersionedDataset::Snapshot& snap,
                                     const geom::Polygon& query);
std::vector<std::pair<int64_t, int64_t>> OracleJoin(
    const data::VersionedDataset::Snapshot& a,
    const data::VersionedDataset::Snapshot& b);
std::vector<int64_t> OracleDistanceSelection(
    const data::VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d);
std::vector<std::pair<int64_t, int64_t>> OracleDistanceJoin(
    const data::VersionedDataset::Snapshot& a,
    const data::VersionedDataset::Snapshot& b, double d);

}  // namespace hasj::core

#endif  // HASJ_CORE_SNAPSHOT_QUERY_H_
