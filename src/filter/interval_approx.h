#ifndef HASJ_FILTER_INTERVAL_APPROX_H_
#define HASJ_FILTER_INTERVAL_APPROX_H_

#include <cstdint>
#include <memory>
// lint:allow(naked-mutex): once_flag/call_once only, per-slot one-time fill
#include <mutex>
#include <span>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hasj::filter {

// Per-object raster-interval approximation (DESIGN.md §12).
//
// Each object is rasterized once, at load or on first use, onto a global
// 2^grid_bits × 2^grid_bits grid covering the dataset frame. Cells are
// classified PARTIAL (the cell's closed box touches the polygon boundary)
// or FULL (the cell's closed box lies entirely inside the polygon), mapped
// to a Hilbert space-filling-curve index, and stored as two sorted lists of
// half-open index intervals: `all` (FULL ∪ PARTIAL) and `full`.
//
// A pair of approximated objects can then often be *decided* without exact
// refinement:
//   - disjoint `all` lists  ⇒ TRUE MISS (no shared cell, no shared point);
//   - `full`(a) ∩ `all`(b) or `all`(a) ∩ `full`(b) ⇒ TRUE HIT (a FULL cell
//     of one object meets a cell the other object genuinely occupies);
//   - anything else ⇒ INCONCLUSIVE, routed to the hardware testers.
//
// Conservativeness depends on *both* directions of the cell classification
// being honest, not merely superset-conservative:
//   - MISS needs `all` to cover every cell the object touches (no misses);
//   - HIT needs every marked cell to be genuinely occupied (no spurious
//     marks — a snap-tolerance cell that does not actually touch the
//     boundary would manufacture fake intersections).
// The builder therefore uses the glsim row-span rasterizer (which is a
// guaranteed superset, DESIGN.md §6) only to *enumerate candidate* cells,
// and confirms each candidate with the exact segment/box predicate before
// marking it PARTIAL. FULL runs are probed with the exact point-location
// test. See BuildObjectIntervals in interval_approx.cc.

// Hilbert curve index of cell (x, y) on a 2^bits × 2^bits grid. Classic
// iterative xy→d mapping; bijective over the grid, so sorted interval
// lists over the index are a lossless cell-set encoding with good spatial
// locality (neighbouring cells tend to fall in the same interval).
uint32_t HilbertIndex(int bits, uint32_t x, uint32_t y);

// Half-open run [lo, hi) of Hilbert cell indices.
struct CellInterval {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

// One object's interval approximation. `approximated == false` means the
// object opted out (degenerate frame, memory budget, scratch cap, or an
// injected dataset-load fault) and every pair involving it is
// INCONCLUSIVE — never wrong, just undecided.
struct ObjectIntervals {
  std::vector<CellInterval> all;   // FULL ∪ PARTIAL cells, sorted, disjoint
  std::vector<CellInterval> full;  // FULL cells only, sorted, disjoint
  bool approximated = false;
};

enum class IntervalVerdict {
  kHit,           // definitely intersect: skip refinement, emit the pair
  kMiss,          // definitely disjoint: drop the pair
  kInconclusive,  // intervals cannot decide: refine as usual
};

// Joint interval decision for a candidate pair. O(|a| + |b|) two-pointer
// merges over the sorted lists. Either side unapproximated ⇒ kInconclusive.
IntervalVerdict DecidePair(const ObjectIntervals& a, const ObjectIntervals& b);

struct IntervalApproxConfig {
  // Grid is 2^grid_bits per side; capped at 12 so a cell index fits a
  // uint32 and a full-height object window stays within the glsim
  // rasterizer's RowSpans::kMaxRows scratch rows.
  int grid_bits = 10;
  // Whole-store budget; each slot gets max(256, budget / slots) bytes and
  // objects whose interval lists exceed it stay unapproximated.
  int64_t memory_budget_bytes = 64 << 20;
  // Degree of bulk-build parallelism (ThreadPool::ResolveThreadCount
  // semantics: <= 0 means hardware concurrency, 1 means inline).
  int num_threads = 1;
  // Optional instrumentation; all may be null. Faults are checked once per
  // slot fill at FaultSite::kDatasetLoad; a faulted object degrades to
  // unapproximated instead of failing the build. Each fill is counted in
  // the metrics as it happens; only the bulk build records a span and a
  // build_ms gauge. Faults and metrics must outlive a lazy store.
  FaultInjector* faults = nullptr;
  obs::TraceSession* trace = nullptr;
  obs::Registry* metrics = nullptr;
};

struct IntervalBuildStats {
  int64_t objects = 0;
  int64_t unapproximated = 0;  // degenerate frame / budget / fault opt-outs
  int64_t interval_count = 0;  // total CellInterval records stored
  double build_ms = 0.0;
};

// The per-object interval store: a frame, a grid, and one slot per object
// id, each filled at most once. BuildIntervalApprox fills every slot up
// front; a LazyIntervalApprox store fills a slot on its first Get, which
// suits a mutable store: its slots are write-once and ids never reused, so
// a filled slot never goes stale. Thread-safe for any number of readers.
class IntervalApprox {
 public:
  int grid_bits() const { return grid_bits_; }
  const geom::Box& frame() const { return frame_; }
  size_t size() const { return objects_.size(); }
  // Slot `id` of a bulk-built store, in input order.
  const ObjectIntervals& object(size_t id) const { return objects_[id]; }
  // Slot `id` (0 <= id < size(), checked), filled from `polygon` — object
  // id's geometry, the same object on every call — on first use.
  const ObjectIntervals& Get(int64_t id, const geom::Polygon& polygon) const;
  // The bulk build's totals (a lazy store's stay zero).
  const IntervalBuildStats& stats() const { return stats_; }

  // Same frame and grid: the two stores' Hilbert indices name the same
  // cells, so their lists can meet in DecidePair.
  bool SameGrid(const IntervalApprox& other) const {
    return grid_bits_ == other.grid_bits_ && frame_ == other.frame_;
  }

  // Approximates an ad-hoc (query) object against this grid. The window is
  // clipped to the frame, which is sound: every stored object lies inside
  // the frame, so any intersection point falls in an in-frame cell that
  // both sides cover.
  ObjectIntervals ApproximateObject(const geom::Polygon& polygon) const;

 private:
  friend Result<IntervalApprox> BuildIntervalApprox(
      std::span<const geom::Polygon> polygons, const geom::Box& frame,
      const IntervalApproxConfig& config);
  friend Result<IntervalApprox> LazyIntervalApprox(
      const geom::Box& frame, size_t capacity,
      const IntervalApproxConfig& config);

  int grid_bits_ = 0;
  geom::Box frame_;
  int64_t share_ = 0;  // per-slot byte share
  FaultInjector* faults_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  // Slot i is written inside unfilled_[i]'s call_once, which sequences the
  // write before every later reader. A bulk build, having filled every
  // slot, drops the flags.
  mutable std::vector<ObjectIntervals> objects_;
  std::unique_ptr<std::once_flag[]> unfilled_;
  IntervalBuildStats stats_;
};

// Builds the store for a dataset snapshot, filling every slot in parallel
// through the shared ThreadPool. Per-object failures degrade to
// unapproximated; only infrastructure errors (worker exceptions, invalid
// config) surface as a non-OK status.
[[nodiscard]] Result<IntervalApprox> BuildIntervalApprox(
    std::span<const geom::Polygon> polygons, const geom::Box& frame,
    const IntervalApproxConfig& config);

// An empty store of `capacity` slots for a data::VersionedDataset, filled
// lazily by Get. `frame` must enclose every polygon the store will ever
// hold; out-of-frame geometry gets kInconclusive-only approximations,
// never wrong verdicts.
[[nodiscard]] Result<IntervalApprox> LazyIntervalApprox(
    const geom::Box& frame, size_t capacity,
    const IntervalApproxConfig& config = {});

// Per-pipeline build-once cache, mirroring SignatureCache: bound to one
// polygon set and frame at construction, it builds the approximation on
// the first query with intervals enabled and shares it with later queries.
// The key is only what a query's options can vary: grid and budget.
class IntervalApproxCache {
 public:
  // `polygons` must outlive the cache.
  IntervalApproxCache(std::span<const geom::Polygon> polygons,
                      const geom::Box& frame)
      : polygons_(polygons), frame_(frame) {}

  // Takes mu_ itself — and holds it across a cache-miss build, so
  // concurrent queries at the same key build the approximation once.
  [[nodiscard]] Result<std::shared_ptr<const IntervalApprox>> Acquire(
      const IntervalApproxConfig& config) const HASJ_EXCLUDES(mu_);

 private:
  const std::span<const geom::Polygon> polygons_;
  const geom::Box frame_;
  mutable Mutex mu_;
  // The cached snapshot plus the key it was built under: mu_ guards the
  // swap-on-key-change; the pointed-to IntervalApprox is immutable once
  // published.
  mutable std::shared_ptr<const IntervalApprox> cached_ HASJ_GUARDED_BY(mu_);
  mutable int grid_bits_ HASJ_GUARDED_BY(mu_) = -1;
  mutable int64_t budget_ HASJ_GUARDED_BY(mu_) = -1;
};

}  // namespace hasj::filter

#endif  // HASJ_FILTER_INTERVAL_APPROX_H_
