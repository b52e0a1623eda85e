// Property-based differential suite for the raster-interval secondary
// filter (filter/interval_approx, DESIGN.md §12): across thousands of
// seeded random pairs, at two grid resolutions, an interval verdict must
// never contradict the exact predicate —
//
//   kHit  ⇒ algo::PolygonsIntersect(a, b) is true,
//   kMiss ⇒ algo::PolygonsIntersect(a, b) is false,
//
// with kInconclusive always legal. The same holds when dataset-load fault
// injection degrades a random subset of objects to unapproximated, and the
// decided fraction is reported so a silently-inconclusive filter would be
// caught. Seeds come from tests/test_seed.h: set HASJ_TEST_SEED to replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/polygon_intersect.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/status.h"
#include "data/generator.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "tests/test_seed.h"

namespace hasj {
namespace {

using filter::BuildIntervalApprox;
using filter::IntervalApprox;
using filter::IntervalApproxConfig;
using filter::IntervalVerdict;
using geom::Point;
using geom::Polygon;

struct PairSample {
  Polygon a;
  Polygon b;
};

// Random near-or-overlapping pair, mirroring property_differential_test:
// centers at most a few radii apart so the corpus is rich in crossing
// boundaries, close-but-disjoint gaps, containment, and far misses.
PairSample MakePair(Rng& rng) {
  const Point ca{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  const Point cb{ca.x + rng.Uniform(-2.0, 2.0), ca.y + rng.Uniform(-2.0, 2.0)};
  const auto make = [&](Point c) {
    const double radius = rng.Uniform(0.3, 1.5);
    if (rng.Bernoulli(0.3)) {
      // Snake generation needs at least 8 vertices (two offset chains).
      const int vertices = static_cast<int>(rng.UniformInt(8, 48));
      return data::GenerateSnakePolygon(c, radius, vertices, 0.25, rng.Next());
    }
    const int vertices = static_cast<int>(rng.UniformInt(3, 48));
    return data::GenerateBlobPolygon(c, radius, vertices, 0.6, rng.Next());
  };
  return {make(ca), make(cb)};
}

std::vector<PairSample> MakeCorpus(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<PairSample> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) corpus.push_back(MakePair(rng));
  return corpus;
}

constexpr int kCorpusSize = 5000;

// Per-pair build: each pair gets its own frame (the union of the two MBRs,
// like a join over two single-object datasets), so every pair exercises a
// fresh grid geometry instead of one shared frame.
struct DecisionTally {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inconclusive = 0;
};

// void so the gtest ASSERT macros are usable; results come back in *tally.
void CheckCorpus(const std::vector<PairSample>& corpus, int grid_bits,
                 FaultInjector* faults, DecisionTally* tally) {
  for (size_t i = 0; i < corpus.size(); ++i) {
    const PairSample& sample = corpus[i];
    geom::Box frame = sample.a.Bounds();
    frame.Extend(sample.b.Bounds());
    IntervalApproxConfig config;
    config.grid_bits = grid_bits;
    config.faults = faults;
    const std::vector<Polygon> polygons = {sample.a, sample.b};
    const Result<IntervalApprox> built =
        BuildIntervalApprox(polygons, frame, config);
    ASSERT_TRUE(built.ok()) << "pair " << i << ": "
                            << built.status().message();
    const IntervalVerdict verdict =
        DecidePair(built.value().object(0), built.value().object(1));
    switch (verdict) {
      case IntervalVerdict::kHit:
        ASSERT_TRUE(algo::PolygonsIntersect(sample.a, sample.b))
            << "bad TRUE HIT on pair " << i << " at grid_bits " << grid_bits;
        ++tally->hits;
        break;
      case IntervalVerdict::kMiss:
        ASSERT_FALSE(algo::PolygonsIntersect(sample.a, sample.b))
            << "bad TRUE MISS on pair " << i << " at grid_bits " << grid_bits;
        ++tally->misses;
        break;
      case IntervalVerdict::kInconclusive:
        ++tally->inconclusive;
        break;
    }
  }
}

TEST(IntervalDifferential, VerdictsNeverContradictExactPredicate) {
  const uint64_t seed = TestSeed(1801);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);
  for (const int grid_bits : {4, 7}) {
    DecisionTally tally;
    CheckCorpus(corpus, grid_bits, nullptr, &tally);
    if (HasFatalFailure()) return;
    // Guard against a filter that degenerates into always-inconclusive:
    // the corpus mixes far misses and deep overlaps, so at any resolution
    // a healthy filter decides a sizable share of pairs outright.
    EXPECT_GT(tally.hits, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.misses, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.hits + tally.misses, kCorpusSize / 4)
        << "grid_bits " << grid_bits << " decided too little ("
        << tally.inconclusive << " inconclusive)";
  }
}

TEST(IntervalDifferential, FaultDegradationIsNeverWrong) {
  // With kDatasetLoad faults firing on ~30% of object builds, degraded
  // objects become unapproximated (always inconclusive); every pair that
  // is still decided must remain consistent with the exact predicate.
  const uint64_t seed = TestSeed(1802);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize / 2);
  for (const int grid_bits : {4, 7}) {
    FaultInjector faults(seed ^ static_cast<uint64_t>(grid_bits));
    faults.SetPlan(FaultSite::kDatasetLoad, FaultPlan::Probability(0.3));
    DecisionTally tally;
    CheckCorpus(corpus, grid_bits, &faults, &tally);
    if (HasFatalFailure()) return;
    EXPECT_GT(faults.fired(FaultSite::kDatasetLoad), 0);
    // Faults only remove decisions, they never flip them — some pairs
    // escape injection entirely, so decisions still happen.
    EXPECT_GT(tally.hits + tally.misses, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.inconclusive, 0) << "grid_bits " << grid_bits;
  }
}

bool SameCells(const std::vector<filter::CellInterval>& a,
               const std::vector<filter::CellInterval>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const filter::CellInterval& x,
                       const filter::CellInterval& y) {
                      return x.lo == y.lo && x.hi == y.hi;
                    });
}

TEST(IntervalDifferential, QueryApproximationMatchesDatasetBuild) {
  // Two other paths must agree with the batch builder on the same grid:
  // ApproximateObject (the ad-hoc query path used by the selection
  // pipelines) decides the same against every dataset object, and a lazily
  // filled store (the mutable store's path) holds the same lists in every
  // slot. The zero budget's 256-byte minimum share leaves some objects
  // unapproximated, so the lazy store must apply the same byte share.
  const uint64_t seed = TestSeed(1803);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 500);
  const int64_t default_budget = IntervalApproxConfig{}.memory_budget_bytes;
  for (const int grid_bits : {4, 7}) {
    for (const int64_t budget : {default_budget, int64_t{0}}) {
      int64_t unapproximated = 0;
      for (size_t i = 0; i < corpus.size(); ++i) {
        const PairSample& sample = corpus[i];
        geom::Box frame = sample.a.Bounds();
        frame.Extend(sample.b.Bounds());
        IntervalApproxConfig config;
        config.grid_bits = grid_bits;
        config.memory_budget_bytes = budget;
        const std::vector<Polygon> polygons = {sample.a, sample.b};
        const Result<IntervalApprox> built =
            BuildIntervalApprox(polygons, frame, config);
        const Result<IntervalApprox> lazy =
            filter::LazyIntervalApprox(frame, polygons.size(), config);
        ASSERT_TRUE(built.ok());
        ASSERT_TRUE(lazy.ok());
        for (size_t k = 0; k < polygons.size(); ++k) {
          const filter::ObjectIntervals& bulk = built.value().object(k);
          const filter::ObjectIntervals& filled =
              lazy.value().Get(static_cast<int64_t>(k), polygons[k]);
          EXPECT_EQ(filled.approximated, bulk.approximated)
              << "pair " << i << " object " << k << " at grid_bits "
              << grid_bits << ", budget " << budget;
          EXPECT_TRUE(SameCells(filled.all, bulk.all) &&
                      SameCells(filled.full, bulk.full))
              << "pair " << i << " object " << k << " at grid_bits "
              << grid_bits << ", budget " << budget;
          if (!bulk.approximated) ++unapproximated;
        }
        if (budget != default_budget) continue;
        const filter::ObjectIntervals adhoc =
            built.value().ApproximateObject(sample.b);
        EXPECT_EQ(DecidePair(built.value().object(0), adhoc),
                  DecidePair(built.value().object(0), built.value().object(1)))
            << "pair " << i << " at grid_bits " << grid_bits;
      }
      if (budget == 0) {
        EXPECT_GT(unapproximated, 0) << "grid_bits " << grid_bits;
      }
    }
  }
}

}  // namespace
}  // namespace hasj
