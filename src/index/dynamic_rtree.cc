#include "index/dynamic_rtree.h"

#include <limits>
#include <utility>

#include "common/macros.h"

namespace hasj::index {

// A published version: the tree and the version stamp frozen at publish
// time. VersionStates are immutable after Publish.
struct DynamicRTree::VersionState {
  RTree tree;
  uint64_t version = 0;
};

// Unpins its version on destruction. Shared by every copy of a Snapshot.
struct DynamicRTree::Snapshot::Pin {
  const DynamicRTree* tree = nullptr;
  std::shared_ptr<const VersionState> state;

  Pin(const DynamicRTree* t, std::shared_ptr<const VersionState> s)
      : tree(t), state(std::move(s)) {}
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;
  ~Pin() { tree->Unpin(state->version); }
};

DynamicRTree::DynamicRTree(int max_entries) : max_entries_(max_entries) {
  auto empty =
      std::make_shared<VersionState>(VersionState{RTree(max_entries), 0});
  MutexLock lock(&state_mu_);
  current_ = std::move(empty);
}

DynamicRTree::~DynamicRTree() = default;

std::shared_ptr<const DynamicRTree::VersionState> DynamicRTree::Current()
    const {
  MutexLock lock(&state_mu_);
  return current_;
}

void DynamicRTree::Publish(RTree tree) {
  std::vector<std::shared_ptr<const VersionState>> reclaim;
  {
    MutexLock lock(&state_mu_);
    auto next = std::make_shared<const VersionState>(
        VersionState{std::move(tree), current_->version + 1});
    limbo_.push_back(std::move(current_));
    ++retired_total_;
    current_ = std::move(next);
    CollectLocked(&reclaim);
  }
  // Node destruction (potentially a whole unshared subtree) happens here,
  // outside both locks.
}

void DynamicRTree::Unpin(uint64_t version) const {
  std::vector<std::shared_ptr<const VersionState>> reclaim;
  {
    MutexLock lock(&state_mu_);
    auto it = pins_.find(version);
    HASJ_CHECK(it != pins_.end());
    if (--it->second == 0) {
      pins_.erase(it);
      CollectLocked(&reclaim);
    }
  }
}

void DynamicRTree::CollectLocked(
    std::vector<std::shared_ptr<const VersionState>>* reclaim) const {
  const uint64_t min_pinned = pins_.empty()
                                  ? std::numeric_limits<uint64_t>::max()
                                  : pins_.begin()->first;
  size_t kept = 0;
  for (auto& state : limbo_) {
    if (state->version < min_pinned) {
      reclaim->push_back(std::move(state));
      ++reclaimed_total_;
    } else {
      limbo_[kept++] = std::move(state);
    }
  }
  limbo_.resize(kept);
}

Status DynamicRTree::BulkLoad(std::vector<Entry> entries) {
  MutexLock writer(&writer_mu_);
  if (Current()->tree.size() != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  for (const Entry& entry : entries) {
    if (entry.box.IsEmpty()) {
      return Status::InvalidArgument("BulkLoad entry with empty box");
    }
  }
  Publish(RTree::BulkLoad(std::move(entries), max_entries_));
  return Status::Ok();
}

Status DynamicRTree::Insert(const geom::Box& box, int64_t id) {
  MutexLock writer(&writer_mu_);
  RTree next = Current()->tree;
  const Status s = next.Insert(box, id);
  if (!s.ok()) return s;
  Publish(std::move(next));
  return Status::Ok();
}

Status DynamicRTree::Delete(const geom::Box& box, int64_t id) {
  MutexLock writer(&writer_mu_);
  RTree next = Current()->tree;
  const Status s = next.Delete(box, id);
  if (!s.ok()) return s;
  Publish(std::move(next));
  return Status::Ok();
}

DynamicRTree::Snapshot DynamicRTree::snapshot() const {
  Snapshot snap;
  MutexLock lock(&state_mu_);
  ++pins_[current_->version];
  snap.pin_ = std::make_shared<const Snapshot::Pin>(this, current_);
  return snap;
}

// size() and version() read under the lock rather than through Current():
// a copied version pointer could become the last reference to a retired
// version and free it on the reader's side.
size_t DynamicRTree::size() const {
  MutexLock lock(&state_mu_);
  return current_->tree.size();
}

uint64_t DynamicRTree::version() const {
  MutexLock lock(&state_mu_);
  return current_->version;
}

int64_t DynamicRTree::retired_versions() const {
  MutexLock lock(&state_mu_);
  return retired_total_;
}

int64_t DynamicRTree::reclaimed_versions() const {
  MutexLock lock(&state_mu_);
  return reclaimed_total_;
}

int64_t DynamicRTree::limbo_versions() const {
  MutexLock lock(&state_mu_);
  return static_cast<int64_t>(limbo_.size());
}

const RTree& DynamicRTree::Snapshot::tree() const {
  static const RTree kEmpty;
  return pin_ == nullptr ? kEmpty : pin_->state->tree;
}

uint64_t DynamicRTree::Snapshot::version() const {
  return pin_ == nullptr ? 0 : pin_->state->version;
}

}  // namespace hasj::index
