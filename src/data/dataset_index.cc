#include "data/dataset_index.h"

namespace hasj::data {

DatasetIndex::DatasetIndex(const Dataset& dataset, int max_entries)
    : dataset_(dataset), max_entries_(max_entries) {
  const DatasetSnapshot snap = dataset_.snapshot();
  MutexLock lock(&mu_);
  cached_epoch_ = snap.epoch();
  cached_tree_ = snap.BuildRTree(max_entries_);
}

DatasetIndex::Pinned DatasetIndex::Acquire() const {
  Pinned pin;
  pin.data = dataset_.snapshot();
  MutexLock lock(&mu_);
  if (cached_epoch_ != pin.data.epoch()) {
    cached_tree_ = pin.data.BuildRTree(max_entries_);
    cached_epoch_ = pin.data.epoch();
  }
  pin.rtree = cached_tree_;
  return pin;
}

}  // namespace hasj::data
