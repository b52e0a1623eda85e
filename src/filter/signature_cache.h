#ifndef HASJ_FILTER_SIGNATURE_CACHE_H_
#define HASJ_FILTER_SIGNATURE_CACHE_H_

#include <cstddef>
#include <memory>
#include <span>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "filter/raster_signature.h"
#include "geom/polygon.h"

namespace hasj::filter {

// Thread-safe, reset-correct lazy cache of per-object RasterSignatures over
// one fixed polygon set, for one grid size at a time.
//
// A query run acquires a Snapshot for its grid before its filter stage;
// the snapshot pins the slot array, so a later (or concurrent) run that
// requests a different grid installs a fresh array without invalidating
// signatures the first run still references — the reset-correctness the
// old clear-and-rebuild-inside-const-Run scheme lacked. Slot builds are
// serialized per object with std::call_once, so concurrent workers of one
// run (or concurrent runs at the same grid) build each signature exactly
// once and never observe a half-built one.
class SignatureCache {
 public:
  class Snapshot {
   public:
    int grid() const;

    // The signature of object `id`, built on first use. Safe to call
    // concurrently for any ids, including the same id.
    const RasterSignature& Get(size_t id) const;

   private:
    friend class SignatureCache;
    struct State;
    explicit Snapshot(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;
  };

  // Binds the cache to `polygons` (object id = position), which must
  // outlive the cache and every snapshot it hands out.
  explicit SignatureCache(std::span<const geom::Polygon> polygons);
  ~SignatureCache();

  // Snapshot for `grid`; reuses the live slot array when the grid matches
  // (the cross-query amortization the paper's pre-processing taxonomy
  // describes), otherwise installs a fresh one.
  Snapshot Acquire(int grid) const HASJ_EXCLUDES(mu_);

 private:
  const std::span<const geom::Polygon> polygons_;
  mutable Mutex mu_;
  // The live slot array. mu_ guards the grid-keyed swap of this pointer
  // only; the pointed-to State is immutable apart from its per-slot
  // call_once builds, which synchronize themselves.
  mutable std::shared_ptr<Snapshot::State> state_ HASJ_GUARDED_BY(mu_);
};

}  // namespace hasj::filter

#endif  // HASJ_FILTER_SIGNATURE_CACHE_H_
