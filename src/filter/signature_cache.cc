#include "filter/signature_cache.h"

#include <mutex>  // lint:allow(naked-mutex): std::once_flag / std::call_once only — per-slot build serialization, not a lock the analysis tracks

#include "common/macros.h"

namespace hasj::filter {

struct SignatureCache::Snapshot::State {
  struct Slot {
    std::once_flag once;
    std::unique_ptr<RasterSignature> signature;
  };

  int grid = 0;
  std::span<const geom::Polygon> polygons;
  std::unique_ptr<Slot[]> slots;
};

SignatureCache::Snapshot::Snapshot(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

int SignatureCache::Snapshot::grid() const { return state_->grid; }

const RasterSignature& SignatureCache::Snapshot::Get(size_t id) const {
  HASJ_CHECK(id < state_->polygons.size());
  State::Slot& slot = state_->slots[id];
  std::call_once(slot.once, [&] {
    slot.signature =
        std::make_unique<RasterSignature>(state_->polygons[id], state_->grid);
  });
  return *slot.signature;
}

SignatureCache::SignatureCache(std::span<const geom::Polygon> polygons)
    : polygons_(polygons) {}

SignatureCache::~SignatureCache() = default;

SignatureCache::Snapshot SignatureCache::Acquire(int grid) const {
  HASJ_CHECK(grid > 0);
  MutexLock lock(&mu_);
  if (state_ == nullptr || state_->grid != grid) {
    auto fresh = std::make_shared<Snapshot::State>();
    fresh->grid = grid;
    fresh->polygons = polygons_;
    fresh->slots = std::make_unique<Snapshot::State::Slot[]>(polygons_.size());
    state_ = std::move(fresh);
  }
  return Snapshot(state_);
}

}  // namespace hasj::filter
