// Snapshot query engine (core/snapshot_query.h): every query form must
// match its serial oracle exactly, at every degradation-ladder level — the
// ladder trades throughput, never verdicts.
#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/snapshot_query.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj {
namespace {

using core::DegradeLevel;
using core::SnapshotQueryOptions;
using core::SnapshotQueryResult;
using PairVec = std::vector<std::pair<int64_t, int64_t>>;
using IdVec = std::vector<int64_t>;

constexpr double kExtent = 200.0;

std::unique_ptr<data::VersionedDataset> MakeStore(int count,
                                                  uint64_t seed) {
  data::GeneratorProfile profile;
  profile.name = "snapshot-query";
  profile.count = count;
  profile.mean_vertices = 12;
  profile.max_vertices = 40;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = seed;
  auto store = std::make_unique<data::VersionedDataset>(
      "snapshot-query", static_cast<size_t>(count) + 64);
  EXPECT_TRUE(store->SeedFrom(data::GenerateDataset(profile)).ok());
  return store;
}

geom::Polygon Probe(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

IdVec Sorted(IdVec v) {
  std::sort(v.begin(), v.end());
  return v;
}

PairVec Sorted(PairVec v) {
  std::sort(v.begin(), v.end());
  return v;
}

class SnapshotQueryLadderTest : public ::testing::TestWithParam<DegradeLevel> {
};

TEST_P(SnapshotQueryLadderTest, SelectionMatchesOracle) {
  const auto store = MakeStore(120, 7);
  auto grid = filter::LazyIntervalApprox(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  for (int i = 0; i < 6; ++i) {
    const geom::Polygon probe = Probe(30.0 + 25.0 * i, 40.0 + 20.0 * i, 18.0);
    const SnapshotQueryResult got = core::SnapshotSelection(snap, probe, options);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(Sorted(got.ids), core::OracleSelection(snap, probe));
  }
}

TEST_P(SnapshotQueryLadderTest, JoinMatchesOracle) {
  const auto store = MakeStore(90, 11);
  auto grid = filter::LazyIntervalApprox(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  options.intervals_b = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const SnapshotQueryResult got = core::SnapshotJoin(snap, snap, options);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(Sorted(got.pairs), core::OracleJoin(snap, snap));
}

TEST_P(SnapshotQueryLadderTest, DistanceSelectionMatchesOracle) {
  const auto store = MakeStore(120, 13);
  auto grid = filter::LazyIntervalApprox(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const geom::Polygon probe = Probe(100.0, 100.0, 15.0);
  for (const double d : {0.0, 5.0, 25.0}) {
    const SnapshotQueryResult got =
        core::SnapshotDistanceSelection(snap, probe, d, options);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(Sorted(got.ids), core::OracleDistanceSelection(snap, probe, d));
  }
}

TEST_P(SnapshotQueryLadderTest, DistanceJoinMatchesOracle) {
  const auto store = MakeStore(70, 17);
  auto grid = filter::LazyIntervalApprox(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  options.intervals_b = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const SnapshotQueryResult got =
      core::SnapshotDistanceJoin(snap, snap, 4.0, options);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(Sorted(got.pairs), core::OracleDistanceJoin(snap, snap, 4.0));
}

// An interval store smaller than its store: an L3 query reaching an id past
// the store's slots must abort on the bounds check, not read past them.
TEST(SnapshotQueryDeathTest, UndersizedIntervalGridAborts) {
  const auto store = MakeStore(40, 19);
  auto grid = filter::LazyIntervalApprox(
      geom::Box(0, 0, kExtent, kExtent), 1, {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = DegradeLevel::kIntervalsOnly;
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const geom::Polygon everything = Probe(kExtent / 2, kExtent / 2, kExtent);
  EXPECT_DEATH(core::SnapshotSelection(snap, everything, options),
               "HASJ_CHECK failed: id >= 0");
}

// A join compares the two sides' Hilbert indices directly, so two interval
// stores on different grids or frames would decide pairs from unrelated
// cells. Both join forms must refuse them at L3 rather than answer wrong.
TEST(SnapshotQueryTest, JoinsRejectMismatchedIntervalStores) {
  const auto store = MakeStore(90, 11);
  const geom::Box frame(0, 0, kExtent, kExtent);
  auto bits6 = filter::LazyIntervalApprox(frame, store->capacity(),
                                          {.grid_bits = 6});
  auto bits5 = filter::LazyIntervalApprox(frame, store->capacity(),
                                          {.grid_bits = 5});
  auto wide = filter::LazyIntervalApprox(
      geom::Box(0, 0, 2 * kExtent, 2 * kExtent), store->capacity(),
      {.grid_bits = 6});
  ASSERT_TRUE(bits6.ok());
  ASSERT_TRUE(bits5.ok());
  ASSERT_TRUE(wide.ok());
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  for (const filter::IntervalApprox* other : {&bits5.value(), &wide.value()}) {
    SnapshotQueryOptions options;
    options.degrade = DegradeLevel::kIntervalsOnly;
    options.intervals = &bits6.value();
    options.intervals_b = other;
    const SnapshotQueryResult join = core::SnapshotJoin(snap, snap, options);
    EXPECT_EQ(join.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(join.pairs.empty());
    const SnapshotQueryResult within =
        core::SnapshotDistanceJoin(snap, snap, 4.0, options);
    EXPECT_EQ(within.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(within.pairs.empty());
  }
  // The same store on both sides still joins exactly.
  SnapshotQueryOptions options;
  options.degrade = DegradeLevel::kIntervalsOnly;
  options.intervals = &bits6.value();
  options.intervals_b = &bits6.value();
  const SnapshotQueryResult got = core::SnapshotJoin(snap, snap, options);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(Sorted(got.pairs), core::OracleJoin(snap, snap));
}

INSTANTIATE_TEST_SUITE_P(Ladder, SnapshotQueryLadderTest,
                         ::testing::Values(DegradeLevel::kNone,
                                           DegradeLevel::kNoBatch,
                                           DegradeLevel::kLowRes,
                                           DegradeLevel::kIntervalsOnly));

TEST(DegradedHwConfigTest, LadderIsCumulativeAndDeterministic) {
  core::HwConfig hw;
  hw.use_batching = true;
  hw.resolution = 8;

  const core::HwConfig l0 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kNone);
  EXPECT_TRUE(l0.enable_hw);
  EXPECT_TRUE(l0.use_batching);
  EXPECT_EQ(l0.resolution, 8);

  const core::HwConfig l1 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kNoBatch);
  EXPECT_TRUE(l1.enable_hw);
  EXPECT_FALSE(l1.use_batching);
  EXPECT_EQ(l1.resolution, 8);

  const core::HwConfig l2 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kLowRes);
  EXPECT_TRUE(l2.enable_hw);
  EXPECT_FALSE(l2.use_batching);
  EXPECT_EQ(l2.resolution, 4);

  const core::HwConfig l3 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kIntervalsOnly);
  EXPECT_FALSE(l3.enable_hw);
  EXPECT_FALSE(l3.use_batching);
  EXPECT_EQ(l3.resolution, 4);

  // Only the last rung consults the interval stores.
  EXPECT_FALSE(l0.use_intervals);
  EXPECT_FALSE(l2.use_intervals);
  EXPECT_TRUE(l3.use_intervals);
}

// Snapshot isolation end-to-end: a query against an old pin is oblivious
// to updates published after the pin, and its oracle agrees.
TEST(SnapshotQueryTest, PinnedSnapshotIgnoresLaterUpdates) {
  auto store = MakeStore(50, 23);
  const data::VersionedDataset::Snapshot before = store->snapshot();
  const geom::Polygon probe = Probe(100.0, 100.0, 60.0);
  const IdVec baseline =
      Sorted(core::SnapshotSelection(before, probe, {}).ids);

  // Insert a polygon dead-center in the probe window and delete one
  // baseline hit.
  const auto inserted = store->Insert(Probe(100.0, 100.0, 5.0));
  ASSERT_TRUE(inserted.ok());
  if (!baseline.empty()) {
    ASSERT_TRUE(store->Delete(baseline.front()).ok());
  }

  EXPECT_EQ(Sorted(core::SnapshotSelection(before, probe, {}).ids), baseline);
  EXPECT_EQ(core::OracleSelection(before, probe), baseline);

  const data::VersionedDataset::Snapshot after = store->snapshot();
  const IdVec updated = Sorted(core::SnapshotSelection(after, probe, {}).ids);
  EXPECT_NE(updated, baseline);
  EXPECT_TRUE(std::binary_search(updated.begin(), updated.end(),
                                 inserted.value()));
  EXPECT_EQ(updated, core::OracleSelection(after, probe));
}

// A zero-area deadline truncates deterministically at the first poll.
TEST(SnapshotQueryTest, DeadlineTruncatesWithDeadlineExceeded) {
  const auto store = MakeStore(120, 29);
  SnapshotQueryOptions options;
  options.hw.deadline_ms = 1e-9;
  const SnapshotQueryResult got = core::SnapshotSelection(
      store->snapshot(), Probe(100.0, 100.0, 90.0), options);
  EXPECT_EQ(got.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(got.truncated);
  EXPECT_TRUE(got.ids.empty());
}

}  // namespace
}  // namespace hasj
