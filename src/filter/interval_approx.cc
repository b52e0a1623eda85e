#include "filter/interval_approx.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "algo/point_in_polygon.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "glsim/pixel_snap.h"
#include "glsim/raster.h"
#include "obs/names.h"

namespace hasj::filter {
namespace {

constexpr int kMaxGridBits = 12;
// Per-object scratch cap: an object whose MBR cell window exceeds this many
// cells stays unapproximated rather than allocating an unbounded local grid.
constexpr int64_t kMaxScratchCells = int64_t{1} << 22;
// Enumeration half-width margin, in grid units. The row-span rasterizer is
// only used to *enumerate candidate* cells (every mark is re-confirmed with
// the exact segment/box predicate), so a tiny widening costs a few spurious
// candidates and buys robustness against world->grid coordinate rounding.
constexpr double kEnumWidth = 1e-7;

// The dataset frame mapped onto the 2^bits x 2^bits cell grid. Grid
// coordinate g = (world - frame.min) / cell_size, so cell (gx, gy) covers
// the closed grid square [gx, gx+1] x [gy, gy+1].
struct GridFrame {
  geom::Box frame;
  int n = 0;
  double cell_w = 0.0;
  double cell_h = 0.0;
  double inv_cell_w = 0.0;
  double inv_cell_h = 0.0;

  double GridX(double x) const { return (x - frame.min_x) * inv_cell_w; }
  double GridY(double y) const { return (y - frame.min_y) * inv_cell_h; }
  geom::Box CellBox(int gx, int gy) const {
    return geom::Box(frame.min_x + gx * cell_w, frame.min_y + gy * cell_h,
                     frame.min_x + (gx + 1) * cell_w,
                     frame.min_y + (gy + 1) * cell_h);
  }
};

GridFrame MakeGridFrame(const geom::Box& frame, int grid_bits) {
  GridFrame gf;
  gf.frame = frame;
  gf.n = 1 << grid_bits;
  gf.cell_w = frame.Width() / gf.n;
  gf.cell_h = frame.Height() / gf.n;
  gf.inv_cell_w = 1.0 / gf.cell_w;
  gf.inv_cell_h = 1.0 / gf.cell_h;
  return gf;
}

// Conservative closed grid-coordinate interval [g0, g1] -> closed cell
// index range: the same snap formula as glsim raster_internal's
// EmitRowSpanCols (cell c covers [c, c+1]; rounding only ever widens the
// range), clamped to the grid.
std::pair<int, int> CellRange(double g0, double g1, int n) {
  const double tol = 1e-12 * (std::fabs(g0) + std::fabs(g1)) + 1e-300;
  const int c0 = glsim::PixelFromCoord(std::ceil(g0 - tol) - 1.0, 0, n - 1);
  const int c1 = glsim::PixelFromCoord(std::floor(g1 + tol), 0, n - 1);
  return {c0, c1};
}

void AppendCell(std::vector<CellInterval>& list, uint32_t h) {
  if (!list.empty() && list.back().hi == h) {
    ++list.back().hi;
  } else {
    list.push_back({h, h + 1});
  }
}

// Rasterizes one polygon onto the global grid and compresses the marked
// cells into Hilbert-interval lists. Returns approximated == false (an
// empty, always-inconclusive approximation) when the object exceeds the
// scratch cap or its interval lists exceed `max_bytes`, and for every
// object on a degenerate (zero-area) frame, which has no cells.
//
// Cell classification is honest in both directions (the header explains why
// HIT soundness needs more than superset-conservative marking):
//   PARTIAL: the glsim row-span rasterizer enumerates a guaranteed superset
//     of the cells each boundary edge touches; the exact SegmentIntersectsBox
//     predicate confirms genuine closed contact before the mark.
//   FULL: within a row, a maximal run of non-PARTIAL window cells has no
//     boundary contact, so the run is connected and uniformly interior or
//     exterior; one exact LocatePoint probe of the first cell's center
//     decides the whole run. Degenerate polygons (fewer than 3 vertices or
//     zero area) have no interior and never produce FULL cells.
ObjectIntervals BuildObjectIntervals(const geom::Polygon& polygon,
                                     const geom::Box& frame, int grid_bits,
                                     int64_t max_bytes) {
  ObjectIntervals out;
  if (polygon.size() == 0 || frame.IsEmpty() || frame.Width() <= 0.0 ||
      frame.Height() <= 0.0) {
    return out;
  }
  const GridFrame gf = MakeGridFrame(frame, grid_bits);
  const geom::Box& mbr = polygon.Bounds();
  const auto [cx0, cx1] =
      CellRange(gf.GridX(mbr.min_x), gf.GridX(mbr.max_x), gf.n);
  const auto [cy0, cy1] =
      CellRange(gf.GridY(mbr.min_y), gf.GridY(mbr.max_y), gf.n);
  const int vw = cx1 - cx0 + 1;
  const int vh = cy1 - cy0 + 1;
  if (static_cast<int64_t>(vw) * vh > kMaxScratchCells) return out;

  enum : uint8_t { kEmpty = 0, kPartial = 1, kFull = 2 };
  std::vector<uint8_t> cells(static_cast<size_t>(vw) * vh, kEmpty);

  for (size_t e = 0; e < polygon.size(); ++e) {
    const geom::Segment seg = polygon.edge(e);
    const geom::Point la{gf.GridX(seg.a.x) - cx0, gf.GridY(seg.a.y) - cy0};
    const geom::Point lb{gf.GridX(seg.b.x) - cx0, gf.GridY(seg.b.y) - cy0};
    auto emit_row = [&](int c0, int c1, int y) {
      for (int c = c0; c <= c1; ++c) {
        uint8_t& cell = cells[static_cast<size_t>(y) * vw + c];
        if (cell == kPartial) continue;
        if (geom::SegmentIntersectsBox(seg, gf.CellBox(cx0 + c, cy0 + y))) {
          cell = kPartial;
        }
      }
      return false;  // no early exit: every candidate row matters
    };
    glsim::RasterizeLineAARowSpans(la, lb, kEnumWidth, vw, vh, emit_row);
  }

  const bool has_interior = polygon.size() >= 3 && polygon.Area() > 0.0;
  if (has_interior) {
    for (int y = 0; y < vh; ++y) {
      uint8_t* row = cells.data() + static_cast<size_t>(y) * vw;
      int x = 0;
      while (x < vw) {
        if (row[x] == kPartial) {
          ++x;
          continue;
        }
        int run_end = x;
        while (run_end < vw && row[run_end] != kPartial) ++run_end;
        const geom::Point probe = gf.CellBox(cx0 + x, cy0 + y).Center();
        if (algo::LocatePoint(probe, polygon) ==
            algo::PointLocation::kInside) {
          std::fill(row + x, row + run_end, uint8_t{kFull});
        }
        x = run_end;
      }
    }
  }

  std::vector<std::pair<uint32_t, uint8_t>> marked;
  for (int y = 0; y < vh; ++y) {
    for (int x = 0; x < vw; ++x) {
      const uint8_t kind = cells[static_cast<size_t>(y) * vw + x];
      if (kind != kEmpty) {
        marked.emplace_back(HilbertIndex(grid_bits, static_cast<uint32_t>(cx0 + x),
                                         static_cast<uint32_t>(cy0 + y)),
                            kind);
      }
    }
  }
  std::sort(marked.begin(), marked.end());
  for (const auto& [h, kind] : marked) {
    AppendCell(out.all, h);
    if (kind == kFull) AppendCell(out.full, h);
  }
  const auto bytes = static_cast<int64_t>(
      (out.all.size() + out.full.size()) * sizeof(CellInterval));
  if (bytes > max_bytes) {
    out.all.clear();
    out.full.clear();
    return out;
  }
  out.approximated = true;
  return out;
}

bool IntervalsOverlap(const std::vector<CellInterval>& a,
                      const std::vector<CellInterval>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      ++i;
    } else if (b[j].hi <= a[i].lo) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

int64_t IntervalCount(const ObjectIntervals& obj) {
  return static_cast<int64_t>(obj.all.size() + obj.full.size());
}

}  // namespace

uint32_t HilbertIndex(int bits, uint32_t x, uint32_t y) {
  uint32_t d = 0;
  for (uint32_t s = 1u << (bits - 1); s > 0; s >>= 1) {
    const uint32_t rx = (x & s) != 0 ? 1 : 0;
    const uint32_t ry = (y & s) != 0 ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    if (ry == 0) {  // rotate the quadrant
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

IntervalVerdict DecidePair(const ObjectIntervals& a,
                           const ObjectIntervals& b) {
  if (!a.approximated || !b.approximated) return IntervalVerdict::kInconclusive;
  if (!IntervalsOverlap(a.all, b.all)) return IntervalVerdict::kMiss;
  if (IntervalsOverlap(a.full, b.all) || IntervalsOverlap(a.all, b.full)) {
    return IntervalVerdict::kHit;
  }
  return IntervalVerdict::kInconclusive;
}

ObjectIntervals IntervalApprox::ApproximateObject(
    const geom::Polygon& polygon) const {
  // No byte budget for ad-hoc query objects: there is exactly one per
  // query, and the scratch cap inside BuildObjectIntervals still bounds it.
  return BuildObjectIntervals(polygon, frame_, grid_bits_,
                              std::numeric_limits<int64_t>::max());
}

const ObjectIntervals& IntervalApprox::Get(int64_t id,
                                           const geom::Polygon& polygon) const {
  HASJ_CHECK(id >= 0 && static_cast<size_t>(id) < size());
  ObjectIntervals& slot = objects_[static_cast<size_t>(id)];
  if (unfilled_ == nullptr) return slot;
  std::call_once(unfilled_[static_cast<size_t>(id)], [&] {
    if (faults_ == nullptr || faults_->Check(FaultSite::kDatasetLoad).ok()) {
      slot = BuildObjectIntervals(polygon, frame_, grid_bits_, share_);
    }  // else degrade to unapproximated, never fail the build
    if (metrics_ != nullptr) {
      metrics_->GetCounter(obs::kIntervalObjects).Add(1);
      metrics_->GetCounter(obs::kIntervalUnapproximated)
          .Add(slot.approximated ? 0 : 1);
      metrics_->GetCounter(obs::kIntervalIntervals).Add(IntervalCount(slot));
    }
  });
  return slot;
}

Result<IntervalApprox> LazyIntervalApprox(const geom::Box& frame,
                                          size_t capacity,
                                          const IntervalApproxConfig& config) {
  if (config.grid_bits < 1 || config.grid_bits > kMaxGridBits) {
    return Status::InvalidArgument("interval grid_bits must be in [1, 12]");
  }
  if (config.memory_budget_bytes < 0) {
    return Status::InvalidArgument("interval memory budget must be >= 0");
  }
  IntervalApprox approx;
  approx.grid_bits_ = config.grid_bits;
  approx.frame_ = frame;
  approx.share_ = std::max<int64_t>(
      256, config.memory_budget_bytes /
               std::max<int64_t>(1, static_cast<int64_t>(capacity)));
  approx.faults_ = config.faults;
  approx.metrics_ = config.metrics;
  approx.objects_.resize(capacity);
  approx.unfilled_ = std::make_unique<std::once_flag[]>(capacity);
  return approx;
}

Result<IntervalApprox> BuildIntervalApprox(
    std::span<const geom::Polygon> polygons, const geom::Box& frame,
    const IntervalApproxConfig& config) {
  // A lazy store with every slot read once, then sealed.
  HASJ_ASSIGN_OR_RETURN(IntervalApprox approx,
                        LazyIntervalApprox(frame, polygons.size(), config));
  Stopwatch watch;
  obs::ManualSpan span;
  span.Start(config.trace, "interval-build", "filter");
  if (!polygons.empty()) {
    ThreadPool pool(config.num_threads);
    const Status built = pool.ParallelFor(
        static_cast<int64_t>(polygons.size()), /*grain=*/16,
        [&polygons, &approx](int64_t begin, int64_t end, int /*worker*/) {
          for (int64_t id = begin; id < end; ++id) {
            approx.Get(id, polygons[static_cast<size_t>(id)]);
          }
        });
    if (!built.ok()) {
      span.End();
      return built;
    }
  }
  approx.unfilled_.reset();
  approx.faults_ = nullptr;
  approx.metrics_ = nullptr;
  approx.stats_.objects = static_cast<int64_t>(polygons.size());
  for (const ObjectIntervals& obj : approx.objects_) {
    if (!obj.approximated) ++approx.stats_.unapproximated;
    approx.stats_.interval_count += IntervalCount(obj);
  }
  approx.stats_.build_ms = watch.ElapsedMillis();
  span.End();
  if (config.metrics != nullptr) {
    config.metrics->GetGauge(obs::kIntervalBuildMs).Add(approx.stats_.build_ms);
  }
  return approx;
}

Result<std::shared_ptr<const IntervalApprox>> IntervalApproxCache::Acquire(
    const IntervalApproxConfig& config) const {
  MutexLock lock(&mu_);
  if (cached_ == nullptr || grid_bits_ != config.grid_bits ||
      budget_ != config.memory_budget_bytes) {
    HASJ_ASSIGN_OR_RETURN(IntervalApprox built,
                          BuildIntervalApprox(polygons_, frame_, config));
    cached_ = std::make_shared<const IntervalApprox>(std::move(built));
    grid_bits_ = config.grid_bits;
    budget_ = config.memory_budget_bytes;
  }
  return cached_;
}

}  // namespace hasj::filter
