// Differential pin for the R-tree's structure and traversal orders.
//
// Each case builds a tree from a seeded entry set (sizes 0, 1, 17, 500 and
// 5000) and reduces it to one golden line:
//   - a structural trace: Visit with an accept-all predicate reports every
//     child box of every node in traversal order, each leaf entry followed
//     by its id, so any change to node contents, fan-out or child order
//     changes the trace;
//   - size and height;
//   - the *ordered* QueryIntersects / QueryWithinDistance results and the
//     NodesTouched counts over fixed windows;
//   - the ordered pairs of JoinIntersects / JoinWithinDistance against a
//     fixed partner tree and against itself, and (static trees) the probe
//     order of JoinDetect.
// Constructions: static BulkLoad at M=16 and M=8, static Insert with the
// quadratic and the R* split, and DynamicRTree::BulkLoad followed by a
// seeded insert/delete stream, digested at several pinned versions after
// the stream has finished (so the digests also pin snapshot isolation).
//
// The goldens below were recorded from the separate static and
// copy-on-write tree implementations that the persistent RTree replaced.
// Regenerate (only for an intended, explained behaviour change) by running
// the binary with HASJ_PRINT_RTREE_GOLDENS=1 and pasting its output over
// the table in Goldens().

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/dynamic_rtree.h"
#include "index/rtree.h"

namespace hasj::index {
namespace {

using geom::Box;
using PairVec = std::vector<std::pair<int64_t, int64_t>>;

const std::map<std::string, std::string>& Goldens() {
  static const std::map<std::string, std::string> goldens = {
      {"bulk_m16/n=0",
       "size=0 height=0 nodes=0 pairs=0 trace=cbf29ce484222325 queries=cc6a1ff5f8a224a5 joins=3ecb33e15783bec5"},
      {"bulk_m16/n=1",
       "size=1 height=1 nodes=1 pairs=33 trace=52af6008a0184789 queries=a9434e1ec2afd284 joins=e0603a8d3caaa1c0"},
      {"bulk_m16/n=17",
       "size=17 height=2 nodes=11 pairs=326 trace=e909fc632f12a648 queries=9cd6198f0a1a46c5 joins=50a7401bf9f26d75"},
      {"bulk_m16/n=500",
       "size=500 height=3 nodes=59 pairs=11715 trace=db6d3e5f20f18679 queries=eeb7c41779802248 joins=00512f327266fad0"},
      {"bulk_m16/n=5000",
       "size=5000 height=4 nodes=459 pairs=186129 trace=bb1d1631c45e0af3 queries=b3040b4dbdf6a822 joins=4230c2acb6467e31"},
      {"bulk_m8/n=0",
       "size=0 height=0 nodes=0 pairs=0 trace=cbf29ce484222325 queries=cc6a1ff5f8a224a5 joins=3ecb33e15783bec5"},
      {"bulk_m8/n=1",
       "size=1 height=1 nodes=1 pairs=30 trace=0241fdac4ad55feb queries=f10aaf89a793c6a5 joins=99461af9185ea8e2"},
      {"bulk_m8/n=17",
       "size=17 height=2 nodes=12 pairs=390 trace=3cad5d059b6e3d5a queries=0c5c66fdcd37564b joins=d8e38d9fa63e8160"},
      {"bulk_m8/n=500",
       "size=500 height=3 nodes=112 pairs=11866 trace=e97a804a8ad314f2 queries=95cf9a61ec41af3c joins=7905b02e60ead24f"},
      {"bulk_m8/n=5000",
       "size=5000 height=5 nodes=956 pairs=187180 trace=96e783bffcf58591 queries=97f467bd314ea3b2 joins=9ba329a53eeba227"},
      {"insert_quadratic/n=0",
       "size=0 height=0 nodes=0 pairs=0 trace=cbf29ce484222325 queries=cc6a1ff5f8a224a5 joins=3ecb33e15783bec5"},
      {"insert_quadratic/n=1",
       "size=1 height=1 nodes=1 pairs=19 trace=0ef8491c18fe485a queries=d9c5bac405c33304 joins=48f97be4efc230bf"},
      {"insert_quadratic/n=17",
       "size=17 height=2 nodes=15 pairs=301 trace=5b15529c36194bc3 queries=ccb515b21d0d3f29 joins=aad29cc581ab01da"},
      {"insert_quadratic/n=500",
       "size=500 height=4 nodes=164 pairs=12256 trace=11053001471a8232 queries=0919ca6bc3412900 joins=ec67692526e2253c"},
      {"insert_quadratic/n=5000",
       "size=5000 height=5 nodes=1473 pairs=188742 trace=57020e7681dca839 queries=f9a4eb5a22c6e18f joins=3b00709acd2d8048"},
      {"insert_rstar/n=0",
       "size=0 height=0 nodes=0 pairs=0 trace=cbf29ce484222325 queries=cc6a1ff5f8a224a5 joins=3ecb33e15783bec5"},
      {"insert_rstar/n=1",
       "size=1 height=1 nodes=1 pairs=35 trace=bbfffea8691ea25e queries=f10aaf89a793c6a5 joins=d1b4a28ac7561dfb"},
      {"insert_rstar/n=17",
       "size=17 height=2 nodes=11 pairs=410 trace=46e03d2949b1f297 queries=0483fb4e23ca22a1 joins=70cd364c9576a700"},
      {"insert_rstar/n=500",
       "size=500 height=4 nodes=159 pairs=11698 trace=e5a7237a54b5712d queries=2c25cc345ea01d16 joins=3edde388faaa25ed"},
      {"insert_rstar/n=5000",
       "size=5000 height=5 nodes=1467 pairs=187063 trace=ea657c23f8bd6744 queries=2d9911c2e50b3b6d joins=0b512261f6e61534"},
      {"dynamic/n=0/v1",
       "size=0 height=0 nodes=0 pairs=0 trace=cbf29ce484222325 queries=cc6a1ff5f8a224a5 joins=8ac123d6f7dce585"},
      {"dynamic/n=0/v51",
       "size=8 height=2 nodes=8 pairs=147 trace=71d1e1b5ef62edb5 queries=6c5e9d0e5a008ace joins=024673b1f8c54625"},
      {"dynamic/n=0/v151",
       "size=20 height=2 nodes=15 pairs=398 trace=26ade2ba86f37b14 queries=fc61eb6bcc5d37a3 joins=c07723fc068e0890"},
      {"dynamic/n=0/v401",
       "size=74 height=3 nodes=43 pairs=1461 trace=e761a860569a0dcb queries=94d5ab294f0d5104 joins=7feef37e5865a288"},
      {"dynamic/n=1/v1",
       "size=1 height=1 nodes=1 pairs=18 trace=b1677323afb36d4e queries=f10aaf89a793c6a5 joins=43afb00588109966"},
      {"dynamic/n=1/v51",
       "size=13 height=2 nodes=11 pairs=226 trace=52ec92fad12a506d queries=53cbb035234f8959 joins=2946f3037f1297c7"},
      {"dynamic/n=1/v151",
       "size=13 height=2 nodes=13 pairs=276 trace=bc0447b56cbf19f5 queries=89516672f57c2dd3 joins=6d1b5eb1d3460014"},
      {"dynamic/n=1/v401",
       "size=19 height=2 nodes=13 pairs=343 trace=30fe7b8c97dd3346 queries=041c8ede6f2c80ec joins=870db4e0700c042b"},
      {"dynamic/n=17/v1",
       "size=17 height=2 nodes=14 pairs=375 trace=5006d08c21a6cc35 queries=9babdb48240e4fb4 joins=0a6a34577d7e6e2a"},
      {"dynamic/n=17/v51",
       "size=11 height=2 nodes=11 pairs=213 trace=c1fa747e26c0e4f9 queries=477c2138338bc8d4 joins=4f25184064078c3c"},
      {"dynamic/n=17/v151",
       "size=19 height=2 nodes=12 pairs=357 trace=f6c64df28f1a75db queries=9ce97af9d08e9d45 joins=3c54a8b65b968526"},
      {"dynamic/n=17/v401",
       "size=55 height=3 nodes=30 pairs=980 trace=1569a67abd1f83b9 queries=5800df6977361342 joins=388071a560e1b500"},
      {"dynamic/n=500/v1",
       "size=500 height=3 nodes=113 pairs=12784 trace=80da32f1746393df queries=c58422b5e4c3c62f joins=c85beac9b3274a13"},
      {"dynamic/n=500/v51",
       "size=504 height=4 nodes=154 pairs=12744 trace=431db434972c985b queries=e6d42569192f635f joins=4dae3d6417caea61"},
      {"dynamic/n=500/v151",
       "size=528 height=4 nodes=181 pairs=13127 trace=fce54f692859702a queries=ec5c3caa5c703fbd joins=d1783e3b4603daf9"},
      {"dynamic/n=500/v401",
       "size=560 height=4 nodes=205 pairs=13430 trace=dac7e5d7ddd1ab63 queries=f411bc43255fc2d7 joins=2c855294e578cf60"},
      {"dynamic/n=5000/v1",
       "size=5000 height=5 nodes=960 pairs=261388 trace=33f37179b5c9c5e2 queries=14a2d861dae01850 joins=3c764c3afcca9e47"},
      {"dynamic/n=5000/v51",
       "size=4992 height=5 nodes=1021 pairs=260514 trace=14d87179973cda7e queries=4e9d1dce4eb89a5a joins=6d18463a8c90c67d"},
      {"dynamic/n=5000/v151",
       "size=5016 height=5 nodes=1124 pairs=260729 trace=b226577a23da97fe queries=e55010775b62848b joins=c4765482a2d4f5c2"},
      {"dynamic/n=5000/v401",
       "size=5050 height=5 nodes=1253 pairs=259757 trace=132d87686ad890ce queries=f8ebc0def9e5ba53 joins=49eae95d41fbdc2c"},
  };
  return goldens;
}

// FNV-1a over the bytes of every mixed value.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Mix(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void Mix(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Mix(const Box& b) {
    Mix(b.min_x);
    Mix(b.min_y);
    Mix(b.max_x);
    Mix(b.max_y);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Seeded entries in [0, 100)^2. Every 11th entry repeats an earlier box and
// every 7th is degenerate (zero width), so split and STR tie-breaking is
// exercised too.
std::vector<RTree::Entry> Entries(uint64_t seed, int n) {
  hasj::Rng rng(seed);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    Box box;
    if (i % 11 == 10) {
      box = entries[static_cast<size_t>(rng.UniformInt(0, i - 1))].box;
    } else {
      const double x = rng.Uniform(0, 100);
      const double y = rng.Uniform(0, 100);
      const double w = i % 7 == 6 ? 0.0 : rng.Uniform(0, 6);
      box = Box(x, y, x + w, y + rng.Uniform(0, 6));
    }
    entries.push_back({box, static_cast<int64_t>(i)});
  }
  return entries;
}

const Box kWindows[] = {
    Box(0, 0, 100, 100), Box(10, 10, 30, 30),   Box(45, 45, 55, 55),
    Box(-5, -5, 2, 2),   Box(60, 5, 95, 40),    Box(33, 70, 34, 71),
    Box(200, 200, 201, 201),
};
const double kDistances[] = {0.0, 2.5, 10.0};

// The facts of one case, reduced to a golden line.
struct Digest {
  Fnv trace, queries, joins;
  size_t size = 0;
  int height = 0;
  int64_t nodes = 0;
  int64_t pairs = 0;

  std::string Line() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "size=%zu height=%d nodes=%" PRId64 " pairs=%" PRId64
                  " trace=%016" PRIx64 " queries=%016" PRIx64
                  " joins=%016" PRIx64,
                  size, height, nodes, pairs, trace.value(), queries.value(),
                  joins.value());
    return buf;
  }
};

void MixPairs(const PairVec& pairs, Digest* d) {
  d->joins.Mix(static_cast<int64_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    d->joins.Mix(a);
    d->joins.Mix(b);
  }
  d->pairs += static_cast<int64_t>(pairs.size());
}

// Structure, size, height and the window queries of one tree.
void DigestTree(const RTree& t, Digest* d) {
  t.Visit(
      [&](const Box& b) {
        d->trace.Mix(b);
        return true;
      },
      [&](const Box&, int64_t id) { d->trace.Mix(id); });
  d->size = t.size();
  d->height = t.height();
  for (const Box& w : kWindows) {
    const std::vector<int64_t> hits = t.QueryIntersects(w);
    d->queries.Mix(static_cast<int64_t>(hits.size()));
    for (int64_t id : hits) d->queries.Mix(id);
    d->nodes += t.NodesTouched(w);
    for (double dist : kDistances) {
      const std::vector<int64_t> near = t.QueryWithinDistance(w, dist);
      d->queries.Mix(static_cast<int64_t>(near.size()));
      for (int64_t id : near) d->queries.Mix(id);
    }
  }
}

void DigestJoins(const RTree& t, const RTree& partner, Digest* d) {
  MixPairs(JoinIntersects(t, partner), d);
  MixPairs(JoinIntersects(partner, t), d);
  MixPairs(JoinIntersects(t, t), d);
  for (double dist : kDistances) {
    MixPairs(JoinWithinDistance(t, partner, dist), d);
  }
}

// JoinDetect's probe order: every intersecting pair in detection order
// (the probe never fires), then the prefix up to a probe that fires.
void DigestDetect(const RTree& t, const RTree& partner, Digest* d) {
  PairVec seen;
  EXPECT_FALSE(JoinDetect(t, partner, [&](int64_t a, int64_t b) {
    seen.emplace_back(a, b);
    return false;
  }));
  MixPairs(seen, d);
  seen.clear();
  const bool hit = JoinDetect(partner, t, [&](int64_t a, int64_t b) {
    seen.emplace_back(a, b);
    return seen.size() == 7;
  });
  d->joins.Mix(static_cast<int64_t>(hit));
  MixPairs(seen, d);
}

constexpr int kSizes[] = {0, 1, 17, 500, 5000};
constexpr uint64_t kPartnerSeed = 0x9a27;

RTree Partner() { return RTree::BulkLoad(Entries(kPartnerSeed, 300), 16); }

void CheckGolden(const std::string& name, const Digest& d) {
  const std::string line = d.Line();
  if (std::getenv("HASJ_PRINT_RTREE_GOLDENS") != nullptr) {
    std::printf("      {\"%s\",\n       \"%s\"},\n", name.c_str(),
                line.c_str());
    return;
  }
  const auto it = Goldens().find(name);
  ASSERT_NE(it, Goldens().end()) << "no golden for " << name;
  EXPECT_EQ(line, it->second) << name;
}

std::string CaseName(const char* kind, int n) {
  return std::string(kind) + "/n=" + std::to_string(n);
}

void CheckStatic(const char* kind, int n, const RTree& tree) {
  const RTree partner = Partner();
  Digest d;
  DigestTree(tree, &d);
  DigestJoins(tree, partner, &d);
  DigestDetect(tree, partner, &d);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << kind << " n=" << n;
  CheckGolden(CaseName(kind, n), d);
}

TEST(RTreeDifferentialTest, BulkLoadM16) {
  for (int n : kSizes) {
    CheckStatic("bulk_m16", n, RTree::BulkLoad(Entries(1000 + n, n), 16));
  }
}

TEST(RTreeDifferentialTest, BulkLoadM8) {
  for (int n : kSizes) {
    CheckStatic("bulk_m8", n, RTree::BulkLoad(Entries(2000 + n, n), 8));
  }
}

RTree InsertAll(int n, uint64_t seed, SplitPolicy split) {
  RTree tree(8, split);
  for (const RTree::Entry& e : Entries(seed, n)) {
    EXPECT_TRUE(tree.Insert(e.box, e.id).ok());
  }
  return tree;
}

TEST(RTreeDifferentialTest, InsertQuadratic) {
  for (int n : kSizes) {
    CheckStatic("insert_quadratic", n,
                InsertAll(n, 3000 + n, SplitPolicy::kQuadratic));
  }
}

TEST(RTreeDifferentialTest, InsertRStar) {
  for (int n : kSizes) {
    CheckStatic("insert_rstar", n,
                InsertAll(n, 4000 + n, SplitPolicy::kRStar));
  }
}

// BulkLoad, then 400 seeded inserts/deletes; versions pinned after the
// load and after 50, 150 and 400 operations are digested once the stream
// is done, each joined against the partner, itself and the previous pin.
TEST(RTreeDifferentialTest, DynamicStream) {
  constexpr int kPinAfter[] = {0, 50, 150, 400};
  for (int n : kSizes) {
    DynamicRTree partner_tree(16);
    ASSERT_TRUE(partner_tree.BulkLoad(Entries(kPartnerSeed, 300)).ok());
    const DynamicRTree::Snapshot partner_pin = partner_tree.snapshot();
    const RTree& partner = partner_pin.tree();

    DynamicRTree tree(8);
    std::vector<RTree::Entry> live = Entries(5000 + n, n);
    ASSERT_TRUE(tree.BulkLoad(live).ok());
    hasj::Rng rng(6000 + static_cast<uint64_t>(n));
    std::vector<DynamicRTree::Snapshot> pins;
    for (int op = 0; op <= kPinAfter[3]; ++op) {
      if (op == kPinAfter[pins.size()]) pins.push_back(tree.snapshot());
      if (op == kPinAfter[3]) break;
      if (!live.empty() && rng.Bernoulli(0.45)) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        ASSERT_TRUE(tree.Delete(live[pick].box, live[pick].id).ok());
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        const double x = rng.Uniform(0, 100);
        const double y = rng.Uniform(0, 100);
        const RTree::Entry e{
            Box(x, y, x + rng.Uniform(0, 4), y + 1.5), 100000 + op};
        ASSERT_TRUE(tree.Insert(e.box, e.id).ok());
        live.push_back(e);
      }
    }
    ASSERT_EQ(pins.size(), 4u);
    for (size_t k = 0; k < pins.size(); ++k) {
      const RTree& version = pins[k].tree();
      Digest d;
      DigestTree(version, &d);
      DigestJoins(version, partner, &d);
      MixPairs(JoinIntersects(version, pins[k == 0 ? 0 : k - 1].tree()), &d);
      EXPECT_TRUE(version.CheckInvariants().ok()) << "n=" << n << " k=" << k;
      CheckGolden(
          CaseName("dynamic", n) + "/v" + std::to_string(pins[k].version()),
          d);
    }
  }
}

// The copy-on-write tree's bulk load and the static one build the same
// tree from the same entries.
TEST(RTreeDifferentialTest, DynamicBulkLoadMatchesStatic) {
  for (int n : kSizes) {
    DynamicRTree dynamic(8);
    ASSERT_TRUE(dynamic.BulkLoad(Entries(7000 + n, n)).ok());
    Digest from_dynamic, from_static;
    DigestTree(dynamic.snapshot().tree(), &from_dynamic);
    DigestTree(RTree::BulkLoad(Entries(7000 + n, n), 8), &from_static);
    EXPECT_EQ(from_dynamic.Line(), from_static.Line()) << "n=" << n;
  }
}

}  // namespace
}  // namespace hasj::index
