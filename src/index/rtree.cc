#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace hasj::index {

// Immutable once reachable from a tree: writes clone the nodes they change
// (InsertCow/DeleteCow), so every subtree a copy can reach stays frozen.
struct RTree::Node {
  bool leaf = true;
  geom::Box box;  // union of boxes
  // Leaf: boxes[i]/ids[i] are entries. Internal: boxes[i] mirrors
  // children[i]->box (cached to keep descent scans contiguous).
  std::vector<geom::Box> boxes;
  std::vector<int64_t> ids;
  std::vector<std::shared_ptr<const Node>> children;

  size_t Count() const { return leaf ? ids.size() : children.size(); }

  void Recompute() {
    box = geom::Box::Empty();
    for (const geom::Box& b : boxes) box.Extend(b);
  }
};

namespace {

using Node = RTree::Node;

double EnlargementNeeded(const geom::Box& node, const geom::Box& add) {
  geom::Box merged = node;
  merged.Extend(add);
  return merged.Area() - node.Area();
}

// Guttman's quadratic PickSeeds: the pair wasting the most area together.
std::pair<size_t, size_t> PickSeeds(const std::vector<geom::Box>& boxes) {
  size_t s0 = 0, s1 = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < boxes.size(); ++i) {
    for (size_t j = i + 1; j < boxes.size(); ++j) {
      geom::Box merged = boxes[i];
      merged.Extend(boxes[j]);
      const double waste = merged.Area() - boxes[i].Area() - boxes[j].Area();
      if (waste > worst) {
        worst = waste;
        s0 = i;
        s1 = j;
      }
    }
  }
  return {s0, s1};
}

}  // namespace

RTree::RTree(int max_entries, SplitPolicy split)
    : max_entries_(max_entries),
      min_entries_(std::max(2, max_entries * 2 / 5)),
      split_(split) {
  HASJ_CHECK(max_entries >= 4);
}

int RTree::height() const {
  int h = 0;
  for (const Node* n = root_.get(); n != nullptr;
       n = n->leaf ? nullptr : n->children[0].get()) {
    ++h;
  }
  return h;
}

geom::Box RTree::Bounds() const {
  return root_ == nullptr ? geom::Box::Empty() : root_->box;
}

namespace {

// Splits the children of a freshly cloned `node` (boxes plus either ids or
// child nodes) into two groups with Guttman's quadratic algorithm. Returns
// the new sibling; `node` keeps group 1.
std::shared_ptr<Node> QuadraticSplit(Node* node, int min_entries) {
  const size_t n = node->boxes.size();
  auto [seed0, seed1] = PickSeeds(node->boxes);

  std::vector<geom::Box> boxes = std::move(node->boxes);
  std::vector<int64_t> ids = std::move(node->ids);
  std::vector<std::shared_ptr<const Node>> children =
      std::move(node->children);
  node->boxes.clear();
  node->ids.clear();
  node->children.clear();

  auto sibling = std::make_shared<Node>();
  sibling->leaf = node->leaf;

  std::vector<bool> assigned(n, false);
  auto put = [&](Node* dst, size_t i) {
    dst->boxes.push_back(boxes[i]);
    if (dst->leaf) {
      dst->ids.push_back(ids[i]);
    } else {
      dst->children.push_back(std::move(children[i]));
    }
    assigned[i] = true;
  };
  put(node, seed0);
  put(sibling.get(), seed1);
  geom::Box cover0 = boxes[seed0];
  geom::Box cover1 = boxes[seed1];

  size_t remaining = n - 2;
  while (remaining > 0) {
    // If one group must take everything left to reach the minimum fill,
    // assign the rest to it.
    Node* forced = nullptr;
    if (node->Count() + remaining == static_cast<size_t>(min_entries)) {
      forced = node;
    } else if (sibling->Count() + remaining ==
               static_cast<size_t>(min_entries)) {
      forced = sibling.get();
    }
    if (forced != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          put(forced, i);
          (forced == node ? cover0 : cover1).Extend(boxes[i]);
        }
      }
      remaining = 0;
      break;
    }

    // PickNext: the entry with the largest preference for one group.
    size_t best = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      const double d0 = EnlargementNeeded(cover0, boxes[i]);
      const double d1 = EnlargementNeeded(cover1, boxes[i]);
      const double diff = std::fabs(d0 - d1);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
      }
    }
    const double d0 = EnlargementNeeded(cover0, boxes[best]);
    const double d1 = EnlargementNeeded(cover1, boxes[best]);
    Node* dst;
    if (d0 < d1) {
      dst = node;
    } else if (d1 < d0) {
      dst = sibling.get();
    } else {
      dst = cover0.Area() <= cover1.Area() ? node : sibling.get();
    }
    put(dst, best);
    (dst == node ? cover0 : cover1).Extend(boxes[best]);
    --remaining;
  }

  node->Recompute();
  sibling->Recompute();
  return sibling;
}

// R*-tree split (Beckmann et al.): pick the axis with the smallest sum of
// group margins over all valid sorted distributions, then the distribution
// with the least overlap between the two group boxes (ties: least total
// area). No forced reinsertion — this is the split alone, which already
// captures most of the query-quality difference against the quadratic
// split (see bench/ablation_rtree).
std::shared_ptr<Node> RStarSplit(Node* node, int min_entries) {
  const int n = static_cast<int>(node->boxes.size());
  std::vector<int> order(static_cast<size_t>(n));

  double best_axis_margin = std::numeric_limits<double>::infinity();
  std::vector<int> best_order;
  int best_axis = 0;
  for (int axis = 0; axis < 2; ++axis) {
    for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const geom::Box& ba = node->boxes[static_cast<size_t>(a)];
      const geom::Box& bb = node->boxes[static_cast<size_t>(b)];
      const double la = axis == 0 ? ba.min_x : ba.min_y;
      const double lb = axis == 0 ? bb.min_x : bb.min_y;
      if (la != lb) return la < lb;
      const double ua = axis == 0 ? ba.max_x : ba.max_y;
      const double ub = axis == 0 ? bb.max_x : bb.max_y;
      return ua < ub;
    });
    // Prefix/suffix covers for O(1) group boxes per distribution.
    std::vector<geom::Box> prefix(static_cast<size_t>(n)),
        suffix(static_cast<size_t>(n));
    geom::Box cover = geom::Box::Empty();
    for (int i = 0; i < n; ++i) {
      cover.Extend(node->boxes[static_cast<size_t>(order[static_cast<size_t>(i)])]);
      prefix[static_cast<size_t>(i)] = cover;
    }
    cover = geom::Box::Empty();
    for (int i = n - 1; i >= 0; --i) {
      cover.Extend(node->boxes[static_cast<size_t>(order[static_cast<size_t>(i)])]);
      suffix[static_cast<size_t>(i)] = cover;
    }
    double margin_sum = 0.0;
    for (int k = min_entries; k <= n - min_entries; ++k) {
      margin_sum += prefix[static_cast<size_t>(k - 1)].Perimeter() +
                    suffix[static_cast<size_t>(k)].Perimeter();
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_order = order;
      best_axis = axis;
    }
  }
  (void)best_axis;

  // Pick the distribution on the chosen axis.
  std::vector<geom::Box> prefix(static_cast<size_t>(n)),
      suffix(static_cast<size_t>(n));
  geom::Box cover = geom::Box::Empty();
  for (int i = 0; i < n; ++i) {
    cover.Extend(
        node->boxes[static_cast<size_t>(best_order[static_cast<size_t>(i)])]);
    prefix[static_cast<size_t>(i)] = cover;
  }
  cover = geom::Box::Empty();
  for (int i = n - 1; i >= 0; --i) {
    cover.Extend(
        node->boxes[static_cast<size_t>(best_order[static_cast<size_t>(i)])]);
    suffix[static_cast<size_t>(i)] = cover;
  }
  int best_k = min_entries;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int k = min_entries; k <= n - min_entries; ++k) {
    const geom::Box& g1 = prefix[static_cast<size_t>(k - 1)];
    const geom::Box& g2 = suffix[static_cast<size_t>(k)];
    const double overlap = g1.Intersection(g2).Area();
    const double area = g1.Area() + g2.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // Materialize the two groups: node keeps the first best_k in sort order.
  std::vector<geom::Box> boxes = std::move(node->boxes);
  std::vector<int64_t> ids = std::move(node->ids);
  std::vector<std::shared_ptr<const Node>> children =
      std::move(node->children);
  node->boxes.clear();
  node->ids.clear();
  node->children.clear();
  auto sibling = std::make_shared<Node>();
  sibling->leaf = node->leaf;
  for (int i = 0; i < n; ++i) {
    const size_t src = static_cast<size_t>(best_order[static_cast<size_t>(i)]);
    Node* dst = i < best_k ? node : sibling.get();
    dst->boxes.push_back(boxes[src]);
    if (dst->leaf) {
      dst->ids.push_back(ids[src]);
    } else {
      dst->children.push_back(std::move(children[src]));
    }
  }
  node->Recompute();
  sibling->Recompute();
  return sibling;
}

std::shared_ptr<Node> Split(Node* node, int min_entries, SplitPolicy policy) {
  return policy == SplitPolicy::kRStar ? RStarSplit(node, min_entries)
                                       : QuadraticSplit(node, min_entries);
}

// Copy-on-write insert: returns a clone of `node` with (box, id) added.
// Only the descent path is cloned; all other subtrees are shared with the
// source tree. On overflow the clone is split and *split receives the
// sibling.
std::shared_ptr<Node> InsertCow(const Node& node, const geom::Box& box,
                                int64_t id, int max_entries, int min_entries,
                                SplitPolicy policy,
                                std::shared_ptr<Node>* split) {
  auto clone = std::make_shared<Node>(node);
  if (clone->leaf) {
    clone->boxes.push_back(box);
    clone->ids.push_back(id);
    clone->box.Extend(box);
    if (clone->Count() > static_cast<size_t>(max_entries)) {
      *split = Split(clone.get(), min_entries, policy);
    }
    return clone;
  }

  // ChooseLeaf: child needing least enlargement, ties by smallest area.
  size_t best = 0;
  double best_enl = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < clone->boxes.size(); ++i) {
    const double enl = EnlargementNeeded(clone->boxes[i], box);
    const double area = clone->boxes[i].Area();
    if (enl < best_enl || (enl == best_enl && area < best_area)) {
      best_enl = enl;
      best_area = area;
      best = i;
    }
  }

  std::shared_ptr<Node> child_split;
  clone->children[best] =
      InsertCow(*clone->children[best], box, id, max_entries, min_entries,
                policy, &child_split);
  clone->boxes[best] = clone->children[best]->box;
  clone->box.Extend(box);
  if (child_split != nullptr) {
    clone->boxes.push_back(child_split->box);
    clone->children.push_back(std::move(child_split));
    if (clone->Count() > static_cast<size_t>(max_entries)) {
      *split = Split(clone.get(), min_entries, policy);
    }
  }
  return clone;
}

// Copy-on-write delete of one exact (box, id) entry. Returns the cloned
// subtree with the entry removed, or nullptr when the subtree emptied out
// (the caller drops it). *found stays false when no entry matched, in
// which case nothing was cloned along this branch.
std::shared_ptr<const Node> DeleteCow(const Node& node, const geom::Box& box,
                                      int64_t id, bool* found) {
  if (node.leaf) {
    for (size_t i = 0; i < node.ids.size(); ++i) {
      if (node.ids[i] == id && node.boxes[i] == box) {
        *found = true;
        if (node.ids.size() == 1) return nullptr;
        auto clone = std::make_shared<Node>(node);
        clone->boxes.erase(clone->boxes.begin() +
                           static_cast<ptrdiff_t>(i));
        clone->ids.erase(clone->ids.begin() + static_cast<ptrdiff_t>(i));
        clone->Recompute();
        return clone;
      }
    }
    return nullptr;
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    // Every entry box is contained in its ancestors' boxes (Insert extends
    // the whole descent path), so only containing children can hold it.
    if (!node.boxes[i].Contains(box)) continue;
    bool child_found = false;
    std::shared_ptr<const Node> child =
        DeleteCow(*node.children[i], box, id, &child_found);
    if (!child_found) continue;
    *found = true;
    if (child == nullptr && node.children.size() == 1) return nullptr;
    auto clone = std::make_shared<Node>(node);
    if (child == nullptr) {
      clone->boxes.erase(clone->boxes.begin() + static_cast<ptrdiff_t>(i));
      clone->children.erase(clone->children.begin() +
                            static_cast<ptrdiff_t>(i));
    } else {
      clone->boxes[i] = child->box;
      clone->children[i] = std::move(child);
    }
    clone->Recompute();
    return clone;
  }
  return nullptr;
}

}  // namespace

Status RTree::Insert(const geom::Box& box, int64_t id) {
  if (box.IsEmpty() || !std::isfinite(box.min_x) ||
      !std::isfinite(box.min_y) || !std::isfinite(box.max_x) ||
      !std::isfinite(box.max_y)) {
    return Status::InvalidArgument("Insert box must be non-empty and finite");
  }
  if (root_ == nullptr) {
    auto leaf = std::make_shared<Node>();
    leaf->boxes.push_back(box);
    leaf->ids.push_back(id);
    leaf->box = box;
    root_ = std::move(leaf);
  } else {
    std::shared_ptr<Node> split;
    std::shared_ptr<Node> root = InsertCow(*root_, box, id, max_entries_,
                                           min_entries_, split_, &split);
    if (split != nullptr) {
      auto new_root = std::make_shared<Node>();
      new_root->leaf = false;
      new_root->boxes.push_back(root->box);
      new_root->boxes.push_back(split->box);
      new_root->children.push_back(std::move(root));
      new_root->children.push_back(std::move(split));
      new_root->Recompute();
      root = std::move(new_root);
    }
    root_ = std::move(root);
  }
  ++size_;
  return Status::Ok();
}

Status RTree::Delete(const geom::Box& box, int64_t id) {
  bool found = false;
  std::shared_ptr<const Node> root;
  if (root_ != nullptr) root = DeleteCow(*root_, box, id, &found);
  if (!found) return Status::NotFound("Delete: entry not in tree");
  // Collapse a single-child internal root so the height shrinks back.
  while (root != nullptr && !root->leaf && root->children.size() == 1) {
    root = root->children[0];
  }
  root_ = std::move(root);
  --size_;
  return Status::Ok();
}

RTree RTree::BulkLoad(std::vector<Entry> entries, int max_entries) {
  RTree tree(max_entries);
  tree.size_ = entries.size();
  if (entries.empty()) return tree;

  // Sort-Tile-Recursive: sort by center x, cut into vertical slices of
  // ~sqrt(n/M) * M entries, sort each slice by center y, pack runs of M.
  const auto center_x_less = [](const Entry& a, const Entry& b) {
    return a.box.Center().x < b.box.Center().x;
  };
  const auto center_y_less = [](const Entry& a, const Entry& b) {
    return a.box.Center().y < b.box.Center().y;
  };

  std::sort(entries.begin(), entries.end(), center_x_less);
  const size_t n = entries.size();
  const size_t m = static_cast<size_t>(max_entries);
  const size_t num_leaves = (n + m - 1) / m;
  const size_t num_slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size = ((num_leaves + num_slices - 1) / num_slices) * m;

  std::vector<std::shared_ptr<Node>> level;
  for (size_t s = 0; s < n; s += slice_size) {
    const size_t end = std::min(n, s + slice_size);
    std::sort(entries.begin() + static_cast<ptrdiff_t>(s),
              entries.begin() + static_cast<ptrdiff_t>(end), center_y_less);
    for (size_t i = s; i < end; i += m) {
      auto leaf = std::make_shared<Node>();
      leaf->leaf = true;
      for (size_t j = i; j < std::min(end, i + m); ++j) {
        leaf->boxes.push_back(entries[j].box);
        leaf->ids.push_back(entries[j].id);
      }
      leaf->Recompute();
      level.push_back(std::move(leaf));
    }
  }

  // Pack upper levels the same way until a single root remains.
  const auto node_center_x_less = [](const std::shared_ptr<Node>& a,
                                     const std::shared_ptr<Node>& b) {
    return a->box.Center().x < b->box.Center().x;
  };
  const auto node_center_y_less = [](const std::shared_ptr<Node>& a,
                                     const std::shared_ptr<Node>& b) {
    return a->box.Center().y < b->box.Center().y;
  };
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), node_center_x_less);
    const size_t nodes = level.size();
    const size_t num_parents = (nodes + m - 1) / m;
    const size_t slices =
        static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_parents))));
    const size_t sz = ((num_parents + slices - 1) / slices) * m;

    std::vector<std::shared_ptr<Node>> next;
    for (size_t s = 0; s < nodes; s += sz) {
      const size_t end = std::min(nodes, s + sz);
      std::sort(level.begin() + static_cast<ptrdiff_t>(s),
                level.begin() + static_cast<ptrdiff_t>(end),
                node_center_y_less);
      for (size_t i = s; i < end; i += m) {
        auto parent = std::make_shared<Node>();
        parent->leaf = false;
        for (size_t j = i; j < std::min(end, i + m); ++j) {
          parent->boxes.push_back(level[j]->box);
          parent->children.push_back(std::move(level[j]));
        }
        parent->Recompute();
        next.push_back(std::move(parent));
      }
    }
    level = std::move(next);
  }
  tree.root_ = std::move(level.front());
  return tree;
}

void RTree::Visit(
    const std::function<bool(const geom::Box&)>& node_pred,
    const std::function<void(const geom::Box&, int64_t)>& emit) const {
  if (root_ == nullptr) return;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      for (size_t i = 0; i < node->boxes.size(); ++i) {
        if (node_pred(node->boxes[i])) emit(node->boxes[i], node->ids[i]);
      }
    } else {
      for (size_t i = 0; i < node->boxes.size(); ++i) {
        if (node_pred(node->boxes[i])) stack.push_back(node->children[i].get());
      }
    }
  }
}

int64_t RTree::NodesTouched(const geom::Box& window) const {
  if (root_ == nullptr) return 0;
  int64_t touched = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->box.Intersects(window)) continue;
    ++touched;
    if (!node->leaf) {
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
  return touched;
}

std::vector<int64_t> RTree::QueryIntersects(const geom::Box& window) const {
  std::vector<int64_t> out;
  Visit([&](const geom::Box& b) { return b.Intersects(window); },
        [&](const geom::Box&, int64_t id) { out.push_back(id); });
  return out;
}

std::vector<int64_t> RTree::QueryWithinDistance(const geom::Box& query,
                                                double d) const {
  std::vector<int64_t> out;
  Visit([&](const geom::Box& b) { return geom::MinDistance(b, query) <= d; },
        [&](const geom::Box&, int64_t id) { out.push_back(id); });
  return out;
}

namespace {

Status CheckNode(const Node* node, bool is_root, int max_entries, int depth,
                 int leaf_depth, size_t* entries) {
  if (node->leaf) {
    if (depth != leaf_depth) return Status::Internal("leaves at unequal depth");
    if (node->ids.size() != node->boxes.size()) {
      return Status::Internal("leaf id/box count mismatch");
    }
    *entries += node->ids.size();
  } else {
    if (node->children.size() != node->boxes.size()) {
      return Status::Internal("internal child/box count mismatch");
    }
  }
  const size_t count = node->Count();
  // Underfull nodes are legal (STR tails, non-rebalancing deletes); only
  // emptiness is an error for non-root nodes.
  if (!is_root && count == 0) {
    return Status::Internal("empty non-root node");
  }
  if (count > static_cast<size_t>(max_entries)) {
    return Status::Internal("node overfull");
  }
  geom::Box cover = geom::Box::Empty();
  for (const geom::Box& b : node->boxes) {
    if (!node->box.Contains(b)) return Status::Internal("child box escapes parent");
    cover.Extend(b);
  }
  if (count > 0 && !(cover == node->box)) {
    return Status::Internal("node box not tight");
  }
  if (!node->leaf) {
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (!(node->children[i]->box == node->boxes[i])) {
        return Status::Internal("stale child box");
      }
      Status s = CheckNode(node->children[i].get(), false, max_entries,
                           depth + 1, leaf_depth, entries);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace

Status RTree::CheckInvariants() const {
  if (root_ == nullptr) {
    if (size_ != 0) return Status::Internal("size nonzero with null root");
    return Status::Ok();
  }
  if (size_ == 0) return Status::Internal("size zero with live root");
  size_t entries = 0;
  Status s =
      CheckNode(root_.get(), true, max_entries_, 0, height() - 1, &entries);
  if (!s.ok()) return s;
  if (entries != size_) {
    return Status::Internal("entry count does not match size");
  }
  return Status::Ok();
}

namespace {

// Synchronized traversal emitting entry pairs whose boxes satisfy `pred`
// (monotone under box enlargement).
template <typename Pred>
void JoinRec(const Node* a, const Node* b, const Pred& pred,
             std::vector<std::pair<int64_t, int64_t>>& out) {
  if (!pred(a->box, b->box)) return;
  if (a->leaf && b->leaf) {
    for (size_t i = 0; i < a->boxes.size(); ++i) {
      for (size_t j = 0; j < b->boxes.size(); ++j) {
        if (pred(a->boxes[i], b->boxes[j])) {
          out.emplace_back(a->ids[i], b->ids[j]);
        }
      }
    }
    return;
  }
  // Descend the non-leaf side(s); with both internal, descend pairwise.
  if (a->leaf) {
    for (const auto& child : b->children) JoinRec(a, child.get(), pred, out);
  } else if (b->leaf) {
    for (const auto& child : a->children) JoinRec(child.get(), b, pred, out);
  } else {
    for (const auto& ca : a->children) {
      for (const auto& cb : b->children) {
        JoinRec(ca.get(), cb.get(), pred, out);
      }
    }
  }
}

}  // namespace

std::vector<std::pair<int64_t, int64_t>> JoinIntersects(const RTree& a,
                                                        const RTree& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (a.size() == 0 || b.size() == 0) return out;
  JoinRec(a.root(), b.root(),
          [](const geom::Box& x, const geom::Box& y) { return x.Intersects(y); },
          out);
  return out;
}

namespace {

bool JoinDetectRec(const Node* a, const Node* b,
                   const std::function<bool(int64_t, int64_t)>& probe) {
  if (!a->box.Intersects(b->box)) return false;
  if (a->leaf && b->leaf) {
    for (size_t i = 0; i < a->boxes.size(); ++i) {
      for (size_t j = 0; j < b->boxes.size(); ++j) {
        if (a->boxes[i].Intersects(b->boxes[j]) &&
            probe(a->ids[i], b->ids[j])) {
          return true;
        }
      }
    }
    return false;
  }
  if (a->leaf) {
    for (const auto& child : b->children) {
      if (JoinDetectRec(a, child.get(), probe)) return true;
    }
    return false;
  }
  if (b->leaf) {
    for (const auto& child : a->children) {
      if (JoinDetectRec(child.get(), b, probe)) return true;
    }
    return false;
  }
  for (const auto& ca : a->children) {
    for (const auto& cb : b->children) {
      if (JoinDetectRec(ca.get(), cb.get(), probe)) return true;
    }
  }
  return false;
}

}  // namespace

bool JoinDetect(const RTree& a, const RTree& b,
                const std::function<bool(int64_t, int64_t)>& probe) {
  if (a.size() == 0 || b.size() == 0) return false;
  return JoinDetectRec(a.root(), b.root(), probe);
}

std::vector<std::pair<int64_t, int64_t>> JoinWithinDistance(const RTree& a,
                                                            const RTree& b,
                                                            double d) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (a.size() == 0 || b.size() == 0) return out;
  JoinRec(a.root(), b.root(),
          [d](const geom::Box& x, const geom::Box& y) {
            return geom::MinDistance(x, y) <= d;
          },
          out);
  return out;
}

}  // namespace hasj::index
