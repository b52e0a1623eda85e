// Pinned-input contract of the four static pipelines (DESIGN.md §16): each
// pipeline snapshots its dataset(s) and bulk-loads its R-tree(s) once, in
// its constructor. Polygons added to the source Dataset afterwards — before
// a Run(), between Runs, or concurrently with one — never reach the
// pipeline: every Run() returns the construction-time result, counters
// included, with warm raster-signature and interval caches.
//
// scripts/check_tsan.sh runs this file under -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "data/dataset.h"
#include "geom/polygon.h"

namespace hasj::core {
namespace {

// A small square polygon centered at (cx, cy).
geom::Polygon SquareAt(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

// `count` overlapping squares around (cx, cy): every one intersects the
// probe below and the other cluster, so any object that leaked into a run
// would show up in its result.
data::Dataset Cluster(const char* name, int count, double cx, double cy) {
  data::Dataset ds(name);
  for (int i = 0; i < count; ++i) {
    ds.Add(SquareAt(cx + (i % 4), cy + (i / 4), 2.5));
  }
  return ds;
}

// Polygons added after construction. Their extent reaches past the
// original frame, so a pipeline that re-pinned the dataset would also
// rebuild its interval frame.
void AddLate(data::Dataset* ds, int count) {
  for (int i = 0; i < count; ++i) ds->Add(SquareAt(50.0 + i, 50.0, 30.0));
}

const geom::Polygon& Probe() {
  static const geom::Polygon probe = SquareAt(50.0, 50.0, 10.0);
  return probe;
}

// Options that warm every cache the form has: the interval approximation,
// and the raster signatures where the form offers them.
template <typename Options>
Options Warm() {
  Options o;
  o.hw.use_intervals = true;
  o.hw.interval_grid_bits = 6;
  if constexpr (requires { o.raster_filter_grid; }) o.raster_filter_grid = 8;
  return o;
}

// Same results in the same order, and the same integer counters.
template <typename Result>
void ExpectSame(const Result& want, const Result& got) {
  ASSERT_TRUE(got.status.ok());
  if constexpr (requires { want.ids; }) {
    EXPECT_EQ(want.ids, got.ids);
  } else {
    EXPECT_EQ(want.pairs, got.pairs);
  }
  EXPECT_EQ(want.counts.candidates, got.counts.candidates);
  EXPECT_EQ(want.counts.filter_hits, got.counts.filter_hits);
  EXPECT_EQ(want.counts.compared, got.counts.compared);
  EXPECT_EQ(want.counts.results, got.counts.results);
  EXPECT_EQ(want.interval_hits, got.interval_hits);
  EXPECT_EQ(want.interval_undecided, got.interval_undecided);
  if constexpr (requires { want.raster_positives; }) {
    EXPECT_EQ(want.interval_misses, got.interval_misses);
    EXPECT_EQ(want.raster_positives, got.raster_positives);
    EXPECT_EQ(want.raster_negatives, got.raster_negatives);
  } else {
    EXPECT_EQ(want.zero_object_hits, got.zero_object_hits);
    EXPECT_EQ(want.one_object_hits, got.one_object_hits);
  }
}

TEST(PinnedInputTest, SelectionIgnoresLaterAdds) {
  data::Dataset ds = Cluster("sel", 7, 48.0, 48.0);
  const IntersectionSelection selection(ds);
  const auto options = Warm<SelectionOptions>();
  const SelectionResult warm = selection.Run(Probe(), options);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.ids.size(), 7u);
  EXPECT_GT(warm.interval_hits + warm.raster_positives, 0);

  AddLate(&ds, 5);
  ASSERT_EQ(ds.size(), 12u);
  for (int run = 0; run < 2; ++run) {
    ExpectSame(warm, selection.Run(Probe(), options));
  }
}

TEST(PinnedInputTest, JoinIgnoresLaterAdds) {
  data::Dataset a = Cluster("a", 6, 48.0, 48.0);
  data::Dataset b = Cluster("b", 5, 49.0, 49.0);
  const IntersectionJoin join(a, b);
  const auto options = Warm<JoinOptions>();
  const JoinResult warm = join.Run(options);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.pairs.size(), 30u);

  AddLate(&a, 3);
  AddLate(&b, 4);
  for (int run = 0; run < 2; ++run) ExpectSame(warm, join.Run(options));
}

TEST(PinnedInputTest, DistanceSelectionIgnoresLaterAdds) {
  data::Dataset ds = Cluster("dsel", 7, 48.0, 48.0);
  const WithinDistanceSelection selection(ds);
  const auto options = Warm<DistanceSelectionOptions>();
  const DistanceSelectionResult warm = selection.Run(Probe(), 1.0, options);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.ids.size(), 7u);

  AddLate(&ds, 5);
  for (int run = 0; run < 2; ++run) {
    ExpectSame(warm, selection.Run(Probe(), 1.0, options));
  }
}

TEST(PinnedInputTest, DistanceJoinIgnoresLaterAdds) {
  data::Dataset a = Cluster("a", 6, 48.0, 48.0);
  data::Dataset b = Cluster("b", 5, 49.0, 49.0);
  const WithinDistanceJoin join(a, b);
  const auto options = Warm<DistanceJoinOptions>();
  const DistanceJoinResult warm = join.Run(1.0, options);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.pairs.size(), 30u);

  AddLate(&a, 3);
  AddLate(&b, 4);
  for (int run = 0; run < 2; ++run) ExpectSame(warm, join.Run(1.0, options));
}

// The pipeline owns what it pinned: the source dataset may go away.
TEST(PinnedInputTest, PipelineOutlivesItsDataset) {
  auto ds = std::make_unique<data::Dataset>(Cluster("gone", 7, 48.0, 48.0));
  const IntersectionSelection selection(*ds);
  const auto options = Warm<SelectionOptions>();
  const SelectionResult warm = selection.Run(Probe(), options);
  ds.reset();
  ExpectSame(warm, selection.Run(Probe(), options));
}

// A writer keeps adding polygons to the source dataset while the reader
// keeps running the selection: every run still returns the
// construction-time result.
TEST(PinnedInputTest, ConcurrentAddsNeverReachRuns) {
  data::Dataset ds = Cluster("race", 7, 48.0, 48.0);
  const IntersectionSelection selection(ds);
  const auto options = Warm<SelectionOptions>();
  const SelectionResult warm = selection.Run(Probe(), options);
  ASSERT_TRUE(warm.status.ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> runs_done{0};
  std::thread writer([&] {
    // Hold the adds until the reader is demonstrably running, so the two
    // genuinely overlap even when this thread gets scheduled first.
    while (runs_done.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 200; ++i) {
      ds.Add(SquareAt(40.0 + (i % 20), 40.0 + (i / 20), 3.0));
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<SelectionResult> observed;
  do {
    observed.push_back(selection.Run(Probe(), options));
    runs_done.fetch_add(1, std::memory_order_acq_rel);
  } while (!stop.load(std::memory_order_acquire));
  writer.join();

  EXPECT_EQ(ds.size(), 207u);
  observed.push_back(selection.Run(Probe(), options));
  for (const SelectionResult& got : observed) ExpectSame(warm, got);
}

}  // namespace
}  // namespace hasj::core
