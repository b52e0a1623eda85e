#include "core/distance_selection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/polygon_distance.h"
#include "common/random.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace hasj::core {
namespace {

using geom::Polygon;

data::Dataset MakeDataset(uint64_t seed, int count) {
  data::GeneratorProfile p;
  p.name = "dsel";
  p.count = count;
  p.mean_vertices = 18;
  p.max_vertices = 70;
  p.extent = geom::Box(0, 0, 80, 80);
  p.coverage = 0.4;
  p.seed = seed;
  return data::GenerateDataset(p);
}

std::vector<int64_t> Naive(const data::Dataset& ds, const Polygon& query,
                           double d) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (algo::WithinDistance(ds.polygon(i), query, d)) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(DistanceSelectionTest, MatchesNaiveScan) {
  const data::Dataset ds = MakeDataset(301, 250);
  const WithinDistanceSelection selection(ds);
  const Polygon query = data::GenerateBlobPolygon({40, 40}, 8, 30, 0.5, 5);
  for (double d : {0.0, 2.0, 10.0}) {
    const DistanceSelectionResult r = selection.Run(query, d);
    EXPECT_EQ(Sorted(r.ids), Naive(ds, query, d)) << "d=" << d;
    EXPECT_GE(r.counts.candidates, r.counts.results);
  }
}

class DistanceSelectionConfigTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(DistanceSelectionConfigTest, ConfigDoesNotChangeResults) {
  const auto [zero_obj, one_obj, use_hw] = GetParam();
  const data::Dataset ds = MakeDataset(302, 180);
  const WithinDistanceSelection selection(ds);
  hasj::Rng rng(303);
  for (int q = 0; q < 3; ++q) {
    const Polygon query = data::GenerateBlobPolygon(
        {rng.Uniform(20, 60), rng.Uniform(20, 60)}, rng.Uniform(4, 12),
        static_cast<int>(rng.UniformInt(6, 40)), 0.5, rng.Next());
    const double d = rng.Uniform(0.5, 8.0);
    DistanceSelectionOptions options;
    options.use_zero_object_filter = zero_obj;
    options.use_one_object_filter = one_obj;
    options.use_hw = use_hw;
    const DistanceSelectionResult r = selection.Run(query, d, options);
    EXPECT_EQ(Sorted(r.ids), Naive(ds, query, d)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, DistanceSelectionConfigTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(DistanceSelectionTest, FiltersFireOnGenerousDistance) {
  const data::Dataset ds = MakeDataset(304, 200);
  const WithinDistanceSelection selection(ds);
  const Polygon query = data::GenerateBlobPolygon({40, 40}, 10, 40, 0.5, 7);
  const DistanceSelectionResult r = selection.Run(query, 25.0);
  EXPECT_GT(r.zero_object_hits + r.one_object_hits, 0);
  EXPECT_EQ(r.counts.filter_hits + r.counts.compared, r.counts.candidates);
  EXPECT_EQ(Sorted(r.ids), Naive(ds, query, 25.0));
}

TEST(DistanceSelectionTest, ZeroCandidatesFarAway) {
  const data::Dataset ds = MakeDataset(305, 60);
  const WithinDistanceSelection selection(ds);
  const Polygon query =
      data::GenerateBlobPolygon({500, 500}, 3, 12, 0.4, 9);
  const DistanceSelectionResult r = selection.Run(query, 5.0);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_EQ(r.counts.candidates, 0);
}

// Intervals only ever accept for a distance predicate, and only when
// d >= 0: a negative distance must not pay for the (cold) whole-dataset
// interval build it would never consult.
TEST(DistanceSelectionTest, NegativeDistanceBuildsNoIntervals) {
  const data::Dataset ds = MakeDataset(306, 80);
  const WithinDistanceSelection selection(ds);
  const Polygon query = data::GenerateBlobPolygon({40, 40}, 10, 40, 0.5, 11);
  obs::Registry registry;
  DistanceSelectionOptions options;
  options.hw.use_intervals = true;
  options.hw.metrics = &registry;
  const DistanceSelectionResult negative = selection.Run(query, -1.0, options);
  ASSERT_TRUE(negative.status.ok());
  EXPECT_EQ(negative.interval_hits + negative.interval_undecided, 0);
  EXPECT_EQ(registry.Snapshot().counter(obs::kIntervalObjects), 0);

  // Control: the same pipeline builds (and counts) them once d >= 0.
  const DistanceSelectionResult positive = selection.Run(query, 1.0, options);
  ASSERT_TRUE(positive.status.ok());
  EXPECT_GT(registry.Snapshot().counter(obs::kIntervalObjects), 0);
}

}  // namespace
}  // namespace hasj::core
