// Ablation (DESIGN.md): R-tree build strategies for the MBR-filtering
// substrate — Guttman quadratic-split insertion, R*-split insertion, and
// STR bulk loading — compared by build time and by the number of nodes a
// window-query workload touches (the classic I/O proxy).

#include <cstdio>

#include "bench/harness.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "index/rtree.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.1);
  BenchReport report("ablation_rtree", args);
  PrintHeader("Ablation: R-tree build strategies (WATER MBRs)", args);
  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  PrintDataset(water);
  std::vector<index::RTree::Entry> entries;
  for (size_t i = 0; i < water.size(); ++i) {
    entries.push_back({water.mbr(i), static_cast<int64_t>(i)});
  }

  // Window-query workload: 1000 windows of ~1% extent area.
  const geom::Box extent = water.Bounds();
  Rng rng(args.seed + 17);
  std::vector<geom::Box> windows;
  const double ww = extent.Width() * 0.1, wh = extent.Height() * 0.1;
  for (int q = 0; q < 1000; ++q) {
    const double x = rng.Uniform(extent.min_x, extent.max_x - ww);
    const double y = rng.Uniform(extent.min_y, extent.max_y - wh);
    windows.emplace_back(x, y, x + ww, y + wh);
  }

  const auto measure = [&](const char* name, const index::RTree& tree,
                           double build_ms) {
    int64_t nodes = 0, results = 0;
    Stopwatch watch;
    for (const geom::Box& w : windows) {
      nodes += tree.NodesTouched(w);
      results += static_cast<int64_t>(tree.QueryIntersects(w).size());
    }
    const double query_ms = watch.ElapsedMillis();
    const double nodes_per_query =
        static_cast<double>(nodes) / static_cast<double>(windows.size());
    std::printf("%-22s build %8.1f ms   query %8.2f ms   nodes/query %6.1f"
                "   results %lld\n",
                name, build_ms, query_ms, nodes_per_query,
                static_cast<long long>(results));
    report.Row(name, {{"build_ms", build_ms},
                      {"query_ms", query_ms},
                      {"nodes_per_query", nodes_per_query},
                      {"results", static_cast<double>(results)}});
  };

  {
    Stopwatch watch;
    index::RTree tree(16, index::SplitPolicy::kQuadratic);
    for (const auto& e : entries) HASJ_CHECK_OK(tree.Insert(e.box, e.id));
    measure("insert + quadratic", tree, watch.ElapsedMillis());
  }
  {
    Stopwatch watch;
    index::RTree tree(16, index::SplitPolicy::kRStar);
    for (const auto& e : entries) HASJ_CHECK_OK(tree.Insert(e.box, e.id));
    measure("insert + R* split", tree, watch.ElapsedMillis());
  }
  {
    Stopwatch watch;
    auto copy = entries;
    const index::RTree tree = index::RTree::BulkLoad(std::move(copy), 16);
    measure("STR bulk load", tree, watch.ElapsedMillis());
  }
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
