#ifndef HASJ_DATA_DATASET_INDEX_H_
#define HASJ_DATA_DATASET_INDEX_H_

#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "index/rtree.h"

namespace hasj::data {

// Epoch-keyed R-tree cache over a Dataset: pipelines acquire one Pinned
// view at Run() start, getting a content snapshot and the matching R-tree
// as one consistent unit (DESIGN.md §16). A reload-in-place between two
// queries rebuilds the tree on the next Acquire; a reload *during* a query
// changes nothing the running query can see — every polygon/mbr/tree
// access routes through its pin.
class DatasetIndex {
 public:
  // A dataset version and its index. Copyable; keeps the content alive.
  struct Pinned {
    DatasetSnapshot data;
    index::RTree rtree;  // shares its nodes with the cached tree

    size_t size() const { return data.size(); }
    uint64_t epoch() const { return data.epoch(); }
    const geom::Box& Bounds() const { return data.Bounds(); }
    const geom::Polygon& polygon(size_t id) const { return data.polygon(id); }
    const geom::Box& mbr(size_t id) const { return data.mbr(id); }
  };

  // Builds the first tree eagerly so the initial query does not pay the
  // bulk load inside its timed region (matching the old
  // build-in-pipeline-constructor behaviour).
  explicit DatasetIndex(const Dataset& dataset, int max_entries = 16);

  DatasetIndex(const DatasetIndex&) = delete;
  DatasetIndex& operator=(const DatasetIndex&) = delete;

  // Pins the dataset's current content and returns it with the matching
  // tree, rebuilding (under the cache lock) if the epoch moved.
  Pinned Acquire() const HASJ_EXCLUDES(mu_);

 private:
  const Dataset& dataset_;
  const int max_entries_;
  mutable Mutex mu_;
  mutable uint64_t cached_epoch_ HASJ_GUARDED_BY(mu_) = 0;
  mutable index::RTree cached_tree_ HASJ_GUARDED_BY(mu_);
};

}  // namespace hasj::data

#endif  // HASJ_DATA_DATASET_INDEX_H_
