#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>

#include "algo/simplicity.h"
#include "common/random.h"
#include "data/catalogs.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/svg.h"

namespace hasj::data {
namespace {

TEST(DatasetTest, StatsOfKnownPolygons) {
  Dataset ds("test");
  ds.Add(geom::Polygon({{0, 0}, {1, 0}, {0, 1}}));
  ds.Add(geom::Polygon({{2, 2}, {6, 2}, {6, 6}, {2, 6}, {1.9, 4}}));
  const DatasetStats s = ds.Stats();
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.min_vertices, 3);
  EXPECT_EQ(s.max_vertices, 5);
  EXPECT_DOUBLE_EQ(s.mean_vertices, 4.0);
  EXPECT_EQ(s.total_vertices, 8);
  EXPECT_EQ(ds.Bounds(), geom::Box(0, 0, 6, 6));
}

// Copy-on-write content: a snapshot (or a dataset copy) taken before an
// Add keeps its old polygons and extent; moves carry content, name and
// extent along.
TEST(DatasetTest, SnapshotKeepsContentAcrossLaterAdds) {
  Dataset ds("cow");
  ds.Add(geom::Polygon({{0, 0}, {1, 0}, {0, 1}}));
  const DatasetSnapshot before = ds.snapshot();
  const Dataset copy = ds;
  const geom::Polygon& first = before.polygon(0);

  ds.Add(geom::Polygon({{5, 5}, {9, 5}, {9, 9}}));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.Bounds(), geom::Box(0, 0, 9, 9));
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(&before.polygon(0), &first);
  EXPECT_EQ(before.Bounds(), geom::Box(0, 0, 1, 1));
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.Bounds(), geom::Box(0, 0, 1, 1));
  EXPECT_EQ(ds.snapshot().size(), 2u);

  Dataset moved = std::move(ds);
  Dataset assigned("other");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.name(), "cow");
  EXPECT_EQ(assigned.Bounds(), geom::Box(0, 0, 9, 9));
}

TEST(DatasetTest, RTreeMatchesContents) {
  GeneratorProfile p;
  p.name = "g";
  p.count = 200;
  p.mean_vertices = 10;
  p.max_vertices = 50;
  p.extent = geom::Box(0, 0, 100, 100);
  p.coverage = 0.5;
  p.seed = 99;
  const Dataset ds = GenerateDataset(p);
  const index::RTree tree = ds.BuildRTree();
  EXPECT_EQ(tree.size(), ds.size());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const auto all = tree.QueryIntersects(ds.Bounds());
  EXPECT_EQ(all.size(), ds.size());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const GeneratorProfile p = LandcProfile(0.01);
  const Dataset a = GenerateDataset(p);
  const Dataset b = GenerateDataset(p);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.polygon(i).size(), b.polygon(i).size());
    EXPECT_EQ(a.polygon(i).vertex(0), b.polygon(i).vertex(0));
  }
}

TEST(GeneratorTest, RespectsVertexBoundsAndValidity) {
  const GeneratorProfile p = LandoProfile(0.02);
  const Dataset ds = GenerateDataset(p);
  for (const geom::Polygon& poly : ds.polygons()) {
    EXPECT_GE(static_cast<int>(poly.size()), p.min_vertices);
    EXPECT_LE(static_cast<int>(poly.size()), p.max_vertices);
    EXPECT_TRUE(poly.Validate().ok());
  }
}

TEST(GeneratorTest, GeneratedPolygonsAreSimple) {
  GeneratorProfile p = WaterProfile(0.002);
  const Dataset ds = GenerateDataset(p);
  ASSERT_GE(ds.size(), 10u);
  for (const geom::Polygon& poly : ds.polygons()) {
    EXPECT_TRUE(algo::IsSimple(poly));
  }
}

TEST(GeneratorTest, SnakePolygonsAreSimpleAndSized) {
  hasj::Rng rng(0x5aa5e);
  for (int iter = 0; iter < 60; ++iter) {
    const int nv = static_cast<int>(rng.UniformInt(8, 400));
    const double radius = rng.Uniform(0.5, 10.0);
    const geom::Polygon snake = GenerateSnakePolygon(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, radius, nv,
        rng.Uniform(0.05, 0.45), rng.Next());
    EXPECT_TRUE(snake.Validate().ok()) << "iter " << iter;
    EXPECT_TRUE(algo::IsSimple(snake)) << "iter " << iter;
    EXPECT_NEAR(static_cast<double>(snake.size()), nv, 2.0);
    // MBR area calibrated to a blob of the same radius.
    const geom::Box b = snake.Bounds();
    EXPECT_NEAR(std::sqrt(b.Width() * b.Height()), 2.0 * radius,
                0.2 * radius);
  }
}

TEST(GeneratorTest, TerrainSnakesAreSimpleAndFollowTheFlow) {
  hasj::Rng rng(0x7e44a1);
  for (int iter = 0; iter < 40; ++iter) {
    const geom::Point center{rng.Uniform(-110, -70), rng.Uniform(26, 48)};
    const geom::Polygon snake = GenerateTerrainSnakePolygon(
        center, rng.Uniform(0.2, 2.0), static_cast<int>(rng.UniformInt(8, 300)),
        rng.Uniform(0.05, 0.3), rng.Next());
    EXPECT_TRUE(snake.Validate().ok()) << "iter " << iter;
    EXPECT_TRUE(algo::IsSimple(snake)) << "iter " << iter;
  }
  // The flow field is deterministic and smooth.
  EXPECT_EQ(TerrainFlowAngle({-100, 40}), TerrainFlowAngle({-100, 40}));
  EXPECT_NEAR(TerrainFlowAngle({-100, 40}), TerrainFlowAngle({-100.01, 40}),
              0.05);
}

TEST(GeneratorTest, SnakeDeterministic) {
  const geom::Polygon a = GenerateSnakePolygon({0, 0}, 3.0, 60, 0.2, 42);
  const geom::Polygon b = GenerateSnakePolygon({0, 0}, 3.0, 60, 0.2, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.vertex(i), b.vertex(i));
}

TEST(GeneratorTest, MeanVerticesNearTarget) {
  const GeneratorProfile p = LandcProfile(0.1);
  const DatasetStats s = GenerateDataset(p).Stats();
  // Log-normal clipping shifts the mean; allow a generous band.
  EXPECT_GT(s.mean_vertices, p.mean_vertices * 0.5);
  EXPECT_LT(s.mean_vertices, p.mean_vertices * 2.0);
}

TEST(GeneratorTest, ScaledShrinksCount) {
  EXPECT_EQ(LandcProfile(1.0).count, 14731);
  EXPECT_EQ(LandcProfile(0.1).count, 1473);
  EXPECT_EQ(LandcProfile(1e-9).count, 1);  // never zero
}

TEST(CatalogTest, ProfilesMatchTable2Counts) {
  EXPECT_EQ(LandcProfile().count, 14731);
  EXPECT_EQ(LandoProfile().count, 33860);
  EXPECT_EQ(States50Profile().count, 31);
  EXPECT_EQ(PrismProfile().count, 6243);
  EXPECT_EQ(WaterProfile().count, 21866);
  EXPECT_EQ(States50Profile().min_vertices, 4);
  EXPECT_EQ(WaterProfile().max_vertices, 39360);
}

TEST(BaseDistanceTest, MatchesEquation2) {
  Dataset a("a"), b("b");
  a.Add(geom::Polygon({{0, 0}, {2, 0}, {2, 2}, {0, 2}}));  // 2x2 MBR
  b.Add(geom::Polygon({{0, 0}, {8, 0}, {8, 2}, {0, 2}}));  // 8x2 MBR
  // sqrt(2*2) = 2, sqrt(8*2) = 4 -> BaseD = 3.
  EXPECT_DOUBLE_EQ(BaseDistance(a, b), 3.0);
}

TEST(IoTest, SaveLoadRoundTrip) {
  GeneratorProfile p;
  p.name = "roundtrip";
  p.count = 25;
  p.mean_vertices = 12;
  p.max_vertices = 40;
  p.extent = geom::Box(-10, -10, 10, 10);
  p.seed = 7;
  const Dataset original = GenerateDataset(p);
  const std::string path = ::testing::TempDir() + "/hasj_roundtrip.wkt";
  ASSERT_TRUE(SaveDataset(original, path).ok());
  const auto loaded = LoadDataset(path, "roundtrip");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded->polygon(i).size(), original.polygon(i).size());
    for (size_t v = 0; v < original.polygon(i).size(); ++v) {
      EXPECT_EQ(loaded->polygon(i).vertex(v), original.polygon(i).vertex(v));
    }
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadRejectsBadFile) {
  const std::string path = ::testing::TempDir() + "/hasj_bad.wkt";
  {
    std::ofstream out(path);
    out << "# comment\nPOLYGON ((0 0, 1 0, 0 1))\nnot wkt at all\n";
  }
  const auto loaded = LoadDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":3:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFile) {
  EXPECT_EQ(LoadDataset("/nonexistent/nope.wkt").status().code(),
            StatusCode::kNotFound);
}

TEST(IoTest, LoadEnforcesLineByteCap) {
  const std::string path = ::testing::TempDir() + "/hasj_longline.wkt";
  {
    std::ofstream out(path);
    out << "POLYGON ((0 0, 9 0, 0 9))\n";
    out << "POLYGON ((" << std::string(512, ' ') << "0 0, 9 0, 0 9))\n";
  }
  LoadLimits limits;
  limits.max_line_bytes = 128;
  const auto loaded = LoadDataset(path, "capped", limits);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos);
  // Default limits admit the same file minus the oversized line.
  std::remove(path.c_str());
}

TEST(IoTest, LoadEnforcesObjectCountCap) {
  const std::string path = ::testing::TempDir() + "/hasj_manyobjs.wkt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 10; ++i) out << "POLYGON ((0 0, 9 0, 0 9))\n";
  }
  LoadLimits limits;
  limits.max_objects = 4;
  const auto capped = LoadDataset(path, "capped", limits);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
  const auto full = LoadDataset(path, "full");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 10u);
  std::remove(path.c_str());
}

TEST(IoTest, LoadAppliesWktVertexCapWithLineContext) {
  const std::string path = ::testing::TempDir() + "/hasj_fatpoly.wkt";
  {
    std::ofstream out(path);
    out << "POLYGON ((0 0, 9 0, 0 9))\n";
    out << "POLYGON ((";
    for (int i = 0; i < 32; ++i) out << i << " " << i % 2 << ", ";
    out << "0 10))\n";
  }
  LoadLimits limits;
  limits.wkt.max_vertices = 8;
  const auto loaded = LoadDataset(path, "capped", limits);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IoTest, LoadPreservesParseErrorCode) {
  // A truncated WKT line keeps kInvalidArgument (not flattened) and gains
  // the path:line prefix.
  const std::string path = ::testing::TempDir() + "/hasj_truncated.wkt";
  {
    std::ofstream out(path);
    out << "POLYGON ((0 0, 9 0, 0 9))\n";
    out << "POLYGON ((0 0, 9 0, 0 9\n";
  }
  const auto loaded = LoadDataset(path, "truncated");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SvgTest, WritesWellFormedFile) {
  GeneratorProfile p;
  p.name = "svg";
  p.count = 10;
  p.mean_vertices = 20;
  p.max_vertices = 60;
  p.extent = geom::Box(0, 0, 10, 10);
  p.seed = 3;
  const Dataset ds = GenerateDataset(p);
  const std::string path = ::testing::TempDir() + "/hasj_fig1.svg";
  ASSERT_TRUE(WriteSvg(ds, path, 5).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
  // 5 polygons requested.
  size_t count = 0, pos = 0;
  while ((pos = content.find("<polygon", pos)) != std::string::npos) {
    ++count;
    pos += 8;
  }
  EXPECT_EQ(count, 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hasj::data
