#include "data/dataset.h"

#include <cmath>
#include <utility>

namespace hasj::data {

Dataset::Dataset(const Dataset& other) {
  MutexLock lock(&other.mu_);
  name_ = other.name_;
  content_ = other.content_;  // shared until either side mutates
  extent_ = other.extent_;
}

Dataset::Dataset(Dataset&& other) noexcept {
  MutexLock lock(&other.mu_);
  name_ = std::move(other.name_);
  content_ = std::exchange(other.content_,
                           std::make_shared<std::vector<geom::Polygon>>());
  extent_ = std::exchange(other.extent_, geom::Box::Empty());
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  Dataset copy(other);
  return *this = std::move(copy);
}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  Dataset taken(std::move(other));
  MutexLock lock(&mu_);
  name_ = std::move(taken.name_);
  content_ = std::move(taken.content_);
  extent_ = taken.extent_;
  return *this;
}

void Dataset::EnsureUniqueLocked() {
  if (content_.use_count() > 1) {
    content_ = std::make_shared<std::vector<geom::Polygon>>(*content_);
  }
}

void Dataset::Add(geom::Polygon polygon) {
  MutexLock lock(&mu_);
  EnsureUniqueLocked();
  extent_.Extend(polygon.Bounds());
  content_->push_back(std::move(polygon));
}

DatasetSnapshot Dataset::snapshot() const {
  DatasetSnapshot snap;
  MutexLock lock(&mu_);
  snap.polygons_ = content_;
  snap.extent_ = extent_;
  return snap;
}

DatasetStats Dataset::Stats() const {
  DatasetStats s;
  s.count = static_cast<int64_t>(content_->size());
  s.extent = extent_;
  if (content_->empty()) return s;
  RunningStats vertices, widths, heights;
  for (const geom::Polygon& p : *content_) {
    vertices.Add(static_cast<double>(p.size()));
    widths.Add(p.Bounds().Width());
    heights.Add(p.Bounds().Height());
  }
  s.min_vertices = static_cast<int64_t>(vertices.min());
  s.max_vertices = static_cast<int64_t>(vertices.max());
  s.mean_vertices = vertices.mean();
  s.total_vertices = static_cast<int64_t>(vertices.sum());
  s.mean_mbr_width = widths.mean();
  s.mean_mbr_height = heights.mean();
  return s;
}

index::RTree DatasetSnapshot::BuildRTree() const {
  std::vector<index::RTree::Entry> entries;
  entries.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    entries.push_back({mbr(i), static_cast<int64_t>(i)});
  }
  return index::RTree::BulkLoad(std::move(entries));
}

double BaseDistance(const Dataset& a, const Dataset& b) {
  const DatasetStats sa = a.Stats();
  const DatasetStats sb = b.Stats();
  const double da = std::sqrt(sa.mean_mbr_width * sa.mean_mbr_height);
  const double db = std::sqrt(sb.mean_mbr_width * sb.mean_mbr_height);
  return (da + db) * 0.5;
}

}  // namespace hasj::data
