// Differential pin for the filter-and-refine loop shared by all eight query
// forms: the four static pipelines (selection, join, distance selection,
// distance join) and their four snapshot twins (core/snapshot_query.h).
//
// Every form runs over a configuration matrix — hardware off / per-pair /
// batched, intervals off / on, the interior and raster filters on the
// selection and join forms, 1 and 3 threads, fault rate 0 and 0.1 (faults
// at 1 thread only, so the breaker's counters stay scheduling-independent)
// and, for the snapshot forms, ladder levels L0-L3. Each run is reduced to
// one golden line: every integer counter in the clear plus the length and
// an FNV-1a digest of the *ordered* result list. The goldens in
// query_driver_goldens.inc were recorded from the per-form loops that
// FilterRefine (core/filter_refine.h) replaced; any change to candidate
// order, filter order, tallies or tester dispatch shows up as a mismatch
// naming the case.
//
// Regenerate (only for an intended, explained behaviour change) by running
// the binary with HASJ_WRITE_QUERY_DRIVER_GOLDENS set to the output path,
// e.g. tests/query_driver_goldens.inc.
//
// A second check runs each static form and its snapshot twin over the same
// content (a VersionedDataset seeded from the Dataset) at L0 and requires
// identical sorted results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "core/snapshot_query.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj::core {
namespace {

using IdVec = std::vector<int64_t>;
using PairVec = std::vector<std::pair<int64_t, int64_t>>;

constexpr double kExtent = 70.0;
constexpr int kIntervalGridBits = 7;

const std::map<std::string, std::string>& Goldens() {
  static const std::map<std::string, std::string> goldens = {
#include "tests/query_driver_goldens.inc"
  };
  return goldens;
}

data::Dataset MakeDataset(uint64_t seed, int count, double snake_fraction) {
  data::GeneratorProfile p;
  p.name = "forms";
  p.count = count;
  p.mean_vertices = 18;
  p.max_vertices = 80;
  p.extent = geom::Box(0, 0, kExtent, kExtent);
  p.coverage = 0.6;
  p.snake_fraction = snake_fraction;
  p.seed = seed;
  return data::GenerateDataset(p);
}

std::unique_ptr<data::VersionedDataset> MakeStore(const data::Dataset& ds) {
  auto store = std::make_unique<data::VersionedDataset>(
      ds.name(), ds.size() + 8);
  EXPECT_TRUE(store->SeedFrom(ds).ok());
  return store;
}

// The hardware step of a case: off (exact software through the tester),
// per-pair, or batched through the tile atlas.
enum class Hw { kOff, kPerPair, kBatched };
constexpr Hw kHwModes[] = {Hw::kOff, Hw::kPerPair, Hw::kBatched};

const char* HwName(Hw hw) {
  switch (hw) {
    case Hw::kOff:
      return "off";
    case Hw::kPerPair:
      return "pair";
    case Hw::kBatched:
      return "batch";
  }
  return "?";
}

// Thread count and fault rate of a static-form case.
struct Exec {
  int threads;
  double fault_rate;
};
constexpr Exec kExecs[] = {{1, 0.0}, {3, 0.0}, {1, 0.1}};

// Applies the hardware mode to a config; returns the use_hw flag.
bool ApplyHw(Hw mode, HwConfig* hw) {
  hw->use_batching = mode == Hw::kBatched;
  return mode != Hw::kOff;
}

// A fresh seeded injector per case, armed at every hardware site, so each
// case replays the same firing sequence.
std::unique_ptr<FaultInjector> MakeFaults(double rate) {
  if (rate <= 0.0) return nullptr;
  auto faults = std::make_unique<FaultInjector>(0xD21E5u);
  const FaultPlan plan = FaultPlan::Probability(rate);
  faults->SetPlan(FaultSite::kFramebufferAlloc, plan);
  faults->SetPlan(FaultSite::kRenderPass, plan);
  faults->SetPlan(FaultSite::kScanReadback, plan);
  faults->SetPlan(FaultSite::kBatchFill, plan);
  return faults;
}

// One golden line: "key=value" fields, then the ordered-list digest.
class Line {
 public:
  void Add(const char* key, int64_t value) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += ' ';
  }

  void AddHw(const HwCounters& hw) {
    Add("tests", hw.tests);
    Add("mbr_misses", hw.mbr_misses);
    Add("pip_hits", hw.pip_hits);
    Add("sw_skips", hw.sw_threshold_skips);
    Add("hw_tests", hw.hw_tests);
    Add("hw_rejects", hw.hw_rejects);
    Add("sw_tests", hw.sw_tests);
    Add("width_fallbacks", hw.width_fallbacks);
    Add("hw_faults", hw.hw_faults);
    Add("fallback_pairs", hw.hw_fallback_pairs);
    Add("breaker_opens", hw.breaker_opens);
    Add("fill_spans", hw.fill_spans);
    Add("scan_spans", hw.scan_spans);
    Add("fill_stops", hw.fill_saturation_stops);
    Add("scan_stops", hw.scan_hit_stops);
    Add("batches", hw.batch.batches);
    Add("batched_pairs", hw.batch.batched_pairs);
  }

  void AddCounts(const StageCounts& counts) {
    Add("candidates", counts.candidates);
    Add("filter_hits", counts.filter_hits);
    Add("compared", counts.compared);
    Add("results", counts.results);
    Add("truncated", counts.truncated ? 1 : 0);
  }

  void AddStatus(const Status& status) {
    Add("status", static_cast<int64_t>(status.code()));
  }

  void AddList(const IdVec& ids) {
    uint64_t h = kFnvOffset;
    for (const int64_t id : ids) h = Mix(h, id);
    Finish(ids.size(), h);
  }

  void AddList(const PairVec& pairs) {
    uint64_t h = kFnvOffset;
    for (const auto& [a, b] : pairs) h = Mix(Mix(h, a), b);
    Finish(pairs.size(), h);
  }

  const std::string& text() const { return text_; }

 private:
  static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

  static uint64_t Mix(uint64_t h, int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<uint64_t>(v) >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
    return h;
  }

  void Finish(size_t n, uint64_t h) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "n=%zu fnv=%016" PRIx64, n, h);
    text_ += buf;
  }

  std::string text_;
};

// Collects one test's case lines and either compares each with its golden
// or, in regeneration mode, appends them to the golden table (remove the
// old file first). `family` selects the goldens this test owns: the
// snapshot forms' names start with "snapshot_", the static forms' do not.
class GoldenBook {
 public:
  explicit GoldenBook(bool snapshot_family) : snapshot_(snapshot_family) {
    const char* out = std::getenv("HASJ_WRITE_QUERY_DRIVER_GOLDENS");
    if (out != nullptr && *out != '\0') write_path_ = out;
  }

  void Check(const std::string& name, const std::string& line) {
    ASSERT_TRUE(Owns(name)) << name;
    ASSERT_TRUE(seen_.emplace(name, line).second) << "duplicate case " << name;
    if (!write_path_.empty()) return;
    const auto it = Goldens().find(name);
    ASSERT_NE(it, Goldens().end()) << "no golden for " << name;
    EXPECT_EQ(line, it->second) << name;
  }

  // Every golden of the family must have been produced by some case (a
  // dropped case would otherwise pass vacuously).
  void Finish() {
    if (!write_path_.empty()) {
      std::ofstream out(write_path_, std::ios::app);
      for (const auto& [name, line] : seen_) {
        out << "{\"" << name << "\",\n \"" << line << "\"},\n";
      }
      return;
    }
    for (const auto& [name, line] : Goldens()) {
      if (!Owns(name)) continue;
      EXPECT_EQ(seen_.count(name), 1u) << "golden never produced: " << name;
    }
  }

 private:
  bool Owns(const std::string& name) const {
    return (name.rfind("snapshot_", 0) == 0) == snapshot_;
  }

  bool snapshot_;
  std::string write_path_;
  std::map<std::string, std::string> seen_;
};

std::string StaticCase(const char* form, Hw hw, bool intervals,
                       const std::string& filters, const Exec& exec,
                       int query) {
  return std::string(form) + "/hw=" + HwName(hw) +
         "/iv=" + (intervals ? "1" : "0") + "/" + filters +
         "/t=" + std::to_string(exec.threads) +
         "/f=" + (exec.fault_rate > 0.0 ? "0.1" : "0") +
         "/q=" + std::to_string(query);
}

class QueryDriverDifferentialTest : public ::testing::Test {
 protected:
  QueryDriverDifferentialTest()
      : objects_(MakeDataset(4101, 70, 0.3)),
        others_(MakeDataset(4102, 55, 0.3)),
        queries_(MakeDataset(4103, 6, 0.0)) {}

  // Selection probes: two generated shapes, each enlarged around its
  // center so it overlaps a useful share of the dataset.
  geom::Polygon Query(int i) const {
    const geom::Polygon& base = queries_.polygon(static_cast<size_t>(i));
    const geom::Point c = base.Bounds().Center();
    std::vector<geom::Point> scaled;
    for (const geom::Point& p : base.vertices()) {
      scaled.push_back({c.x + 4.0 * (p.x - c.x), c.y + 4.0 * (p.y - c.y)});
    }
    return geom::Polygon(std::move(scaled));
  }

  data::Dataset objects_;
  data::Dataset others_;
  data::Dataset queries_;
};

constexpr int kQueries = 2;
constexpr double kSelectionDistances[kQueries] = {0.0, 8.0};
constexpr double kJoinDistance = 5.0;

TEST_F(QueryDriverDifferentialTest, StaticFormsMatchGoldens) {
  GoldenBook book(/*snapshot_family=*/false);
  const IntersectionSelection selection(objects_);
  const IntersectionJoin join(objects_, others_);
  const WithinDistanceSelection distance_selection(objects_);
  const WithinDistanceJoin distance_join(objects_, others_);

  for (const Hw hw : kHwModes) {
    for (const bool intervals : {false, true}) {
      for (const Exec& exec : kExecs) {
        // Selection: interior (level 3) and raster (grid 16) filters.
        for (int filters = 0; filters < 4; ++filters) {
          const bool interior = (filters & 1) != 0;
          const bool raster = (filters & 2) != 0;
          const std::string filter_name = std::string("int=") +
                                          (interior ? "1" : "0") + "/ras=" +
                                          (raster ? "1" : "0");
          for (int q = 0; q < kQueries; ++q) {
            const std::unique_ptr<FaultInjector> faults =
                MakeFaults(exec.fault_rate);
            SelectionOptions options;
            options.use_hw = ApplyHw(hw, &options.hw);
            options.hw.use_intervals = intervals;
            options.hw.interval_grid_bits = kIntervalGridBits;
            options.hw.faults = faults.get();
            options.interior_tiling_level = interior ? 3 : -1;
            options.raster_filter_grid = raster ? 16 : 0;
            options.num_threads = exec.threads;
            const SelectionResult r = selection.Run(Query(q), options);
            Line line;
            line.AddCounts(r.counts);
            line.Add("raster_pos", r.raster_positives);
            line.Add("raster_neg", r.raster_negatives);
            line.Add("iv_hits", r.interval_hits);
            line.Add("iv_misses", r.interval_misses);
            line.Add("iv_undecided", r.interval_undecided);
            line.AddHw(r.hw_counters);
            line.AddStatus(r.status);
            line.AddList(r.ids);
            book.Check(StaticCase("selection", hw, intervals, filter_name,
                                  exec, q),
                       line.text());
          }
        }
        // Join: raster filter (grid 16) on and off.
        for (const bool raster : {false, true}) {
          const std::unique_ptr<FaultInjector> faults =
              MakeFaults(exec.fault_rate);
          JoinOptions options;
          options.use_hw = ApplyHw(hw, &options.hw);
          options.hw.use_intervals = intervals;
          options.hw.interval_grid_bits = kIntervalGridBits;
          options.hw.faults = faults.get();
          options.raster_filter_grid = raster ? 16 : 0;
          options.num_threads = exec.threads;
          const JoinResult r = join.Run(options);
          Line line;
          line.AddCounts(r.counts);
          line.Add("raster_pos", r.raster_positives);
          line.Add("raster_neg", r.raster_negatives);
          line.Add("iv_hits", r.interval_hits);
          line.Add("iv_misses", r.interval_misses);
          line.Add("iv_undecided", r.interval_undecided);
          line.AddHw(r.hw_counters);
          line.AddStatus(r.status);
          line.AddList(r.pairs);
          book.Check(StaticCase("join", hw, intervals,
                                raster ? "ras=1" : "ras=0", exec, 0),
                     line.text());
        }
        // Distance forms: the 0-/1-Object filters on and off.
        for (const bool object_filters : {false, true}) {
          const std::string filter_name =
              object_filters ? "obj=1" : "obj=0";
          for (int q = 0; q < kQueries; ++q) {
            const std::unique_ptr<FaultInjector> faults =
                MakeFaults(exec.fault_rate);
            DistanceSelectionOptions options;
            options.use_hw = ApplyHw(hw, &options.hw);
            options.hw.use_intervals = intervals;
            options.hw.interval_grid_bits = kIntervalGridBits;
            options.hw.faults = faults.get();
            options.use_zero_object_filter = object_filters;
            options.use_one_object_filter = object_filters;
            options.num_threads = exec.threads;
            const DistanceSelectionResult r = distance_selection.Run(
                Query(q), kSelectionDistances[q], options);
            Line line;
            line.AddCounts(r.counts);
            line.Add("zero_hits", r.zero_object_hits);
            line.Add("one_hits", r.one_object_hits);
            line.Add("iv_hits", r.interval_hits);
            line.Add("iv_undecided", r.interval_undecided);
            line.AddHw(r.hw_counters);
            line.AddStatus(r.status);
            line.AddList(r.ids);
            book.Check(StaticCase("distance_selection", hw, intervals,
                                  filter_name, exec, q),
                       line.text());
          }
          const std::unique_ptr<FaultInjector> faults =
              MakeFaults(exec.fault_rate);
          DistanceJoinOptions options;
          options.use_hw = ApplyHw(hw, &options.hw);
          options.hw.use_intervals = intervals;
          options.hw.interval_grid_bits = kIntervalGridBits;
          options.hw.faults = faults.get();
          options.use_zero_object_filter = object_filters;
          options.use_one_object_filter = object_filters;
          options.num_threads = exec.threads;
          const DistanceJoinResult r =
              distance_join.Run(kJoinDistance, options);
          Line line;
          line.AddCounts(r.counts);
          line.Add("zero_hits", r.zero_object_hits);
          line.Add("one_hits", r.one_object_hits);
          line.Add("iv_hits", r.interval_hits);
          line.Add("iv_undecided", r.interval_undecided);
          line.AddHw(r.hw_counters);
          line.AddStatus(r.status);
          line.AddList(r.pairs);
          book.Check(StaticCase("distance_join", hw, intervals, filter_name,
                                exec, 0),
                     line.text());
        }
      }
    }
  }
  book.Finish();
}

std::string SnapshotLine(const SnapshotQueryResult& r, bool join) {
  Line line;
  line.Add("candidates", r.candidates);
  line.Add("iv_hits", r.interval_hits);
  line.Add("iv_misses", r.interval_misses);
  line.AddHw(r.hw_counters);
  line.AddStatus(r.status);
  if (join) {
    line.AddList(r.pairs);
  } else {
    line.AddList(r.ids);
  }
  return line.text();
}

TEST_F(QueryDriverDifferentialTest, SnapshotFormsMatchGoldens) {
  GoldenBook book(/*snapshot_family=*/true);
  const auto store_a = MakeStore(objects_);
  const auto store_b = MakeStore(others_);
  const data::VersionedDataset::Snapshot a = store_a->snapshot();
  const data::VersionedDataset::Snapshot b = store_b->snapshot();
  const geom::Box frame(0, 0, kExtent, kExtent);
  auto grid_a = filter::LazyIntervalApprox(
      frame, store_a->capacity(), {.grid_bits = kIntervalGridBits});
  auto grid_b = filter::LazyIntervalApprox(
      frame, store_b->capacity(), {.grid_bits = kIntervalGridBits});
  ASSERT_TRUE(grid_a.ok());
  ASSERT_TRUE(grid_b.ok());

  for (const Hw hw : kHwModes) {
    for (const bool intervals : {false, true}) {
      for (int level = 0; level <= 3; ++level) {
        for (const double rate : {0.0, 0.1}) {
          const std::string prefix =
              std::string("/hw=") + HwName(hw) + "/iv=" +
              (intervals ? "1" : "0") + "/L" + std::to_string(level) +
              "/f=" + (rate > 0.0 ? "0.1" : "0");
          const auto options_for = [&](FaultInjector* faults) {
            SnapshotQueryOptions options;
            options.use_hw = ApplyHw(hw, &options.hw);
            options.hw.faults = faults;
            options.degrade = static_cast<DegradeLevel>(level);
            if (intervals) {
              options.intervals = &grid_a.value();
              options.intervals_b = &grid_b.value();
            }
            return options;
          };
          for (int q = 0; q < kQueries; ++q) {
            const std::string suffix = prefix + "/q=" + std::to_string(q);
            {
              const std::unique_ptr<FaultInjector> faults = MakeFaults(rate);
              book.Check("snapshot_selection" + suffix,
                         SnapshotLine(SnapshotSelection(
                                          a, Query(q),
                                          options_for(faults.get())),
                                      false));
            }
            const std::unique_ptr<FaultInjector> faults = MakeFaults(rate);
            book.Check("snapshot_distance_selection" + suffix,
                       SnapshotLine(SnapshotDistanceSelection(
                                        a, Query(q), kSelectionDistances[q],
                                        options_for(faults.get())),
                                    false));
          }
          {
            const std::unique_ptr<FaultInjector> faults = MakeFaults(rate);
            book.Check("snapshot_join" + prefix,
                       SnapshotLine(SnapshotJoin(a, b,
                                                 options_for(faults.get())),
                                    true));
          }
          const std::unique_ptr<FaultInjector> faults = MakeFaults(rate);
          book.Check("snapshot_distance_join" + prefix,
                     SnapshotLine(SnapshotDistanceJoin(
                                      a, b, kJoinDistance,
                                      options_for(faults.get())),
                                  true));
        }
      }
    }
  }
  book.Finish();
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Same content, two stacks: at L0 each static form and its snapshot twin
// must return the same result set.
TEST_F(QueryDriverDifferentialTest, StaticAndSnapshotTwinsAgreeAtL0) {
  const auto store_a = MakeStore(objects_);
  const auto store_b = MakeStore(others_);
  const data::VersionedDataset::Snapshot a = store_a->snapshot();
  const data::VersionedDataset::Snapshot b = store_b->snapshot();
  const IntersectionSelection selection(objects_);
  const IntersectionJoin join(objects_, others_);
  const WithinDistanceSelection distance_selection(objects_);
  const WithinDistanceJoin distance_join(objects_, others_);

  for (const Hw hw : kHwModes) {
    SCOPED_TRACE(HwName(hw));
    SnapshotQueryOptions snap_options;
    snap_options.use_hw = ApplyHw(hw, &snap_options.hw);
    for (int q = 0; q < kQueries; ++q) {
      const geom::Polygon query = Query(q);
      const double d = kSelectionDistances[q];
      SelectionOptions sel;
      sel.use_hw = ApplyHw(hw, &sel.hw);
      const SnapshotQueryResult snap_sel =
          SnapshotSelection(a, query, snap_options);
      ASSERT_TRUE(snap_sel.status.ok());
      EXPECT_EQ(Sorted(selection.Run(query, sel).ids), Sorted(snap_sel.ids));

      DistanceSelectionOptions dsel;
      dsel.use_hw = ApplyHw(hw, &dsel.hw);
      const SnapshotQueryResult snap_dsel =
          SnapshotDistanceSelection(a, query, d, snap_options);
      ASSERT_TRUE(snap_dsel.status.ok());
      EXPECT_EQ(Sorted(distance_selection.Run(query, d, dsel).ids),
                Sorted(snap_dsel.ids));
    }
    JoinOptions jo;
    jo.use_hw = ApplyHw(hw, &jo.hw);
    const SnapshotQueryResult snap_join = SnapshotJoin(a, b, snap_options);
    ASSERT_TRUE(snap_join.status.ok());
    EXPECT_EQ(Sorted(join.Run(jo).pairs), Sorted(snap_join.pairs));

    DistanceJoinOptions djo;
    djo.use_hw = ApplyHw(hw, &djo.hw);
    const SnapshotQueryResult snap_djoin =
        SnapshotDistanceJoin(a, b, kJoinDistance, snap_options);
    ASSERT_TRUE(snap_djoin.status.ok());
    EXPECT_EQ(Sorted(distance_join.Run(kJoinDistance, djo).pairs),
              Sorted(snap_djoin.pairs));
  }
}

}  // namespace
}  // namespace hasj::core
