#ifndef HASJ_INDEX_DYNAMIC_RTREE_H_
#define HASJ_INDEX_DYNAMIC_RTREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "geom/box.h"
#include "index/rtree.h"

namespace hasj::index {

// Publishes versions of a persistent RTree to snapshot-isolated concurrent
// readers (DESIGN.md §16). The tree itself — copy-on-write insert and
// delete, bulk load, queries, joins — is RTree; this class adds only
// version publishing and epoch reclamation.
//
// Writers (Insert/Delete/BulkLoad) serialize on a writer mutex, copy the
// current RTree value (O(1): the copy shares every node), apply the
// operation to the copy, and publish the result by swapping an immutable
// version-state pointer under a second, briefly held state mutex — the
// only lock readers ever take, so readers never block on an in-progress
// build and never observe torn state.
//
// Reclamation is epoch-based: snapshot() pins the current version; retired
// versions park on a limbo list until no pin at or below their version
// remains, at which point the writer (or the last unpinning reader) frees
// them outside the lock. shared_ptr sharing already makes this memory-safe;
// the pin/limbo protocol makes it deterministic — retired roots die at a
// publish/unpin boundary, never lazily on a reader's query path.
//
// Snapshots must not outlive the tree. The version counter doubles as the
// store epoch data::VersionedDataset reports (QueryResponse::epoch).
class DynamicRTree {
 public:
  using Entry = RTree::Entry;

  // A pinned, immutable view of one published version. Copyable (copies
  // share the pin); the version unpins when the last copy is destroyed.
  // Default-constructed snapshots are empty and pin nothing.
  class Snapshot {
   public:
    Snapshot() = default;

    // The pinned version's tree; valid while this snapshot (or a copy of
    // it) lives.
    const RTree& tree() const;
    uint64_t version() const;

   private:
    friend class DynamicRTree;
    struct Pin;
    std::shared_ptr<const Pin> pin_;
  };

  explicit DynamicRTree(int max_entries = 16);
  ~DynamicRTree();

  DynamicRTree(const DynamicRTree&) = delete;
  DynamicRTree& operator=(const DynamicRTree&) = delete;

  // STR bulk load into an empty tree: kInvalidArgument if the tree already
  // holds entries or an entry box is empty. Publishes one version.
  [[nodiscard]] Status BulkLoad(std::vector<Entry> entries);

  // RTree::Insert on the current version, published as a new version.
  [[nodiscard]] Status Insert(const geom::Box& box, int64_t id);

  // RTree::Delete on the current version, published as a new version;
  // kNotFound when absent.
  [[nodiscard]] Status Delete(const geom::Box& box, int64_t id);

  // Pins and returns the current version. O(1); never blocks on writers.
  Snapshot snapshot() const HASJ_EXCLUDES(state_mu_);

  size_t size() const HASJ_EXCLUDES(state_mu_);
  // Published version counter; bumps once per successful mutation.
  uint64_t version() const HASJ_EXCLUDES(state_mu_);

  // Reclamation telemetry for tests: versions retired to limbo / freed.
  int64_t retired_versions() const HASJ_EXCLUDES(state_mu_);
  int64_t reclaimed_versions() const HASJ_EXCLUDES(state_mu_);
  // Versions currently parked in limbo (pinned by some snapshot).
  int64_t limbo_versions() const HASJ_EXCLUDES(state_mu_);

 private:
  struct VersionState;

  // The current version, for writers: under writer_mu_ it cannot be
  // retired while the caller holds it.
  std::shared_ptr<const VersionState> Current() const
      HASJ_REQUIRES(writer_mu_) HASJ_EXCLUDES(state_mu_);
  // Publishes `tree` as the version after the current one.
  void Publish(RTree tree) HASJ_REQUIRES(writer_mu_) HASJ_EXCLUDES(state_mu_);
  void Unpin(uint64_t version) const HASJ_EXCLUDES(state_mu_);
  // Moves every limbo version below the lowest pin into *reclaim (caller
  // destroys outside the lock).
  void CollectLocked(
      std::vector<std::shared_ptr<const VersionState>>* reclaim) const
      HASJ_REQUIRES(state_mu_);

  const int max_entries_;  // fanout M of every published tree

  // Serializes writers across their whole copy-on-write build; never held
  // by readers. Acquired before state_mu_ (Publish).
  mutable Mutex writer_mu_;
  // Guards only the publish/pin/unpin bookkeeping below; held for O(1)
  // (plus a limbo sweep) so readers never wait behind a build.
  mutable Mutex state_mu_;
  std::shared_ptr<const VersionState> current_ HASJ_GUARDED_BY(state_mu_);
  // Pin count per still-referenced version.
  mutable std::map<uint64_t, int64_t> pins_ HASJ_GUARDED_BY(state_mu_);
  // Retired versions awaiting the release of older pins.
  mutable std::vector<std::shared_ptr<const VersionState>> limbo_
      HASJ_GUARDED_BY(state_mu_);
  mutable int64_t retired_total_ HASJ_GUARDED_BY(state_mu_) = 0;
  mutable int64_t reclaimed_total_ HASJ_GUARDED_BY(state_mu_) = 0;
};

}  // namespace hasj::index

#endif  // HASJ_INDEX_DYNAMIC_RTREE_H_
