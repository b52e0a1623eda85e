#ifndef HASJ_INDEX_RTREE_H_
#define HASJ_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geom/box.h"

namespace hasj::index {

// Node split algorithm used on insertion overflow.
enum class SplitPolicy {
  kQuadratic,  // Guttman's quadratic split (the 2003-era default)
  kRStar,      // R*-tree split: margin-sum axis choice, min-overlap cut
};

// Persistent R-tree over (MBR, id) entries: Guttman insertion with a choice
// of split policy, exact-entry deletion, and Sort-Tile-Recursive bulk
// loading. This is the MBR-filtering substrate of the paper's query
// pipeline (Figure 8); ids refer into a dataset.
//
// Nodes are immutable once built and shared between copies, so copying a
// tree is O(1) and a copy taken before an Insert or Delete keeps its old
// contents: writes path-copy the root-to-leaf descent and share every
// untouched subtree. Copies of one tree may be read from many threads
// while a writer changes its own copy; one RTree object must not be
// written while it is read. DynamicRTree publishes versions of this tree
// to concurrent readers (DESIGN.md §16).
class RTree {
 public:
  struct Entry {
    geom::Box box;
    int64_t id = 0;
  };

  // max_entries: node fanout M; min fill is max(2, M * 2/5) per Guttman's
  // recommendation.
  explicit RTree(int max_entries = 16,
                 SplitPolicy split = SplitPolicy::kQuadratic);

  // Builds a packed tree bottom-up with Sort-Tile-Recursive; much better
  // quality and build time than repeated insertion for static datasets.
  [[nodiscard]] static RTree BulkLoad(std::vector<Entry> entries, int max_entries = 16);

  // Adds one entry. `box` must be non-empty and finite (kInvalidArgument
  // otherwise). Duplicate (box, id) pairs are legal: the tree is a
  // multiset, and Delete removes one occurrence.
  [[nodiscard]] Status Insert(const geom::Box& box, int64_t id);

  // Removes one entry matching (box, id) exactly; kNotFound when absent.
  // Emptied nodes are dropped and a single-child internal root collapses,
  // but no re-distribution happens — underfull nodes are tolerated exactly
  // as STR bulk load's are.
  [[nodiscard]] Status Delete(const geom::Box& box, int64_t id);

  size_t size() const { return size_; }
  int height() const;  // 1 for a single leaf; 0 only for the empty tree
  // Union of the entry boxes; empty for the empty tree.
  geom::Box Bounds() const;

  // Ids of entries whose box intersects the window (closed boxes).
  std::vector<int64_t> QueryIntersects(const geom::Box& window) const;

  // Number of tree nodes a window query touches — the I/O proxy used to
  // compare split policies (bench/ablation_rtree).
  int64_t NodesTouched(const geom::Box& window) const;

  // Ids of entries whose box is within distance d of the query box.
  std::vector<int64_t> QueryWithinDistance(const geom::Box& query,
                                           double d) const;

  // Visits ids of entries whose box satisfies the (conservative) node
  // predicate; `node_pred` must be monotone: true for an entry box implies
  // true for every ancestor box.
  void Visit(const std::function<bool(const geom::Box&)>& node_pred,
             const std::function<void(const geom::Box&, int64_t)>& emit) const;

  // Structural invariants: child boxes contained in and tight to parent
  // boxes, no overfull node, no empty non-root node, uniform leaf depth,
  // and as many entries as size(). Underfull nodes are legal (STR tails,
  // non-rebalancing deletes).
  [[nodiscard]] Status CheckInvariants() const;

  struct Node;  // exposed for the join's synchronized traversal
  const Node* root() const { return root_.get(); }  // nullptr when empty

 private:
  std::shared_ptr<const Node> root_;
  int max_entries_;
  int min_entries_;
  SplitPolicy split_ = SplitPolicy::kQuadratic;
  size_t size_ = 0;
};

// All candidate pairs (id_a, id_b) with intersecting MBRs, via synchronized
// tree traversal. The MBR-filtering step of the intersection join.
std::vector<std::pair<int64_t, int64_t>> JoinIntersects(const RTree& a,
                                                        const RTree& b);

// All candidate pairs whose MBRs are within distance d (the MBR distance is
// a lower bound of the object distance). The MBR-filtering step of the
// within-distance join.
std::vector<std::pair<int64_t, int64_t>> JoinWithinDistance(const RTree& a,
                                                            const RTree& b,
                                                            double d);

// Early-exit synchronized traversal: invokes `probe` on entry pairs with
// intersecting boxes until it returns true. Returns whether any probe
// returned true. Used for detection problems (e.g. boundary intersection
// via per-polygon edge trees) where materializing all pairs would waste
// the common early hit.
bool JoinDetect(const RTree& a, const RTree& b,
                const std::function<bool(int64_t, int64_t)>& probe);

}  // namespace hasj::index

#endif  // HASJ_INDEX_RTREE_H_
