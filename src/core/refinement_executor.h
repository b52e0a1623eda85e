#ifndef HASJ_CORE_REFINEMENT_EXECUTOR_H_
#define HASJ_CORE_REFINEMENT_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/hw_config.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace hasj::core {

// Outcome of one refinement stage: the accepted candidates in candidate
// order plus the per-worker testers' counters merged in worker order.
//
// status/attempted carry the deadline contract (DESIGN.md §11): on
// kDeadlineExceeded (budget or cancellation) or kInternal (a worker task
// failed), `accepted` holds the verdicts of the first `attempted`
// candidates only — a prefix of the full refinement in candidate order, so
// a truncated query result is a prefix of the untruncated one.
template <typename Item>
struct RefinementOutcome {
  std::vector<Item> accepted;
  HwCounters counters;
  Status status;           // Ok unless truncated
  int64_t attempted = 0;   // length of the refined candidate prefix
};

// Runs the geometry-comparison stage of a query pipeline over a candidate
// list, optionally in parallel.
//
// Each worker gets its own tester from the factory — an
// HwIntersectionTester/HwDistanceTester owns its render context, pixel
// masks, and point-locator cache, so workers share nothing and need no
// locks (the paper's off-screen window simply exists once per worker).
// Workers record per-candidate verdicts into a preallocated array and a
// serial pass gathers the accepted items, so the output order is the
// candidate order and byte-identical to the serial loop at every thread
// count. Counters are merged in worker order: the integer totals are
// scheduling-independent (every candidate is tested exactly once); only
// the wall-clock fields vary run to run, as they do for the serial loop.
//
// num_threads as carried by the query options: 1 (the default) is the
// serial loop with a single tester, 0 means hardware concurrency.
class RefinementExecutor {
 public:
  // `hw` supplies the observability sinks (worker trace tracks and chunk
  // spans; per-worker queue wait into the pool.queue_wait_us histogram)
  // and the fault injector, whose kPoolTask site can fail worker chunks —
  // exercising the thread pool's exception surface end-to-end (the chunk
  // body throws, the pool catches at the chunk boundary, Refine reports
  // kInternal with a prefix result). `deadline` (null = none) is polled at
  // stride/chunk boundaries, truncating to a candidate prefix on expiry;
  // it must outlive the executor.
  RefinementExecutor(int num_threads, const HwConfig& hw,
                     const QueryDeadline* deadline)
      : threads_(ThreadPool::ResolveThreadCount(num_threads)),
        trace_(hw.trace),
        metrics_(hw.metrics),
        deadline_(deadline),
        faults_(hw.faults) {
    if (threads_ > 1) pool_.emplace(threads_);
  }

  int threads() const { return threads_; }

  // Chunked parallel loop over [0, n): body(begin, end, worker). Runs
  // inline when the executor is serial. Used by the pipelines to pre-build
  // shared read-only state (raster-signature caches) before a serial scan.
  // Non-OK only when a body threw (kInternal, first message).
  [[nodiscard]] Status ParallelFor(int64_t n, const ThreadPool::Body& body) {
    if (n <= 0) return Status::Ok();
    if (!pool_.has_value()) {
      body(0, n, 0);
      return Status::Ok();
    }
    Status status = pool_->ParallelFor(n, Grain(n), body);
    RecordPoolWait();
    return status;
  }

  // Refines `items`: decide(tester, begin, end, verdicts) writes the
  // keep/drop verdict of items [begin, end) to verdicts[begin, end), with
  // the tester built once per worker by make_tester() — calling a
  // per-pair tester once per item, or BatchHardwareTester once for the
  // whole range. The serial path polls the deadline every
  // `stride` items (the budget can overrun by at most one stride); the
  // parallel path polls per chunk. Returns the accepted items in input
  // order plus the testers' counters merged in worker order.
  template <typename Item, typename MakeTester, typename Decide>
  RefinementOutcome<Item> Refine(const std::vector<Item>& items,
                                 MakeTester&& make_tester, int64_t stride,
                                 Decide&& decide) const {
    RefinementOutcome<Item> out;
    const int64_t n = static_cast<int64_t>(items.size());
    const bool guarded = deadline_ != nullptr && deadline_->active();
    const bool serial = !pool_.has_value() || n <= 1;
    using Tester = decltype(make_tester());
    std::vector<Tester> testers;
    for (int w = 0; w < (serial ? 1 : threads_); ++w) {
      testers.push_back(make_tester());
    }
    verdict_.assign(items.size(), 0);
    tested_.assign(items.size(), 0);
    Status pool_status;
    if (serial) {
      HASJ_TRACE_SCOPE(trace_, "compare-chunk", "refine", "pairs", n);
      const int64_t step = std::max<int64_t>(1, guarded ? stride : n);
      for (int64_t off = 0; off < n && !(guarded && deadline_->Expired());
           off += step) {
        const int64_t end = std::min(off + step, n);
        decide(testers[0], off, end, verdict_.data());
        std::fill(tested_.begin() + off, tested_.begin() + end, 1);
      }
    } else {
      named_.assign(static_cast<size_t>(threads_), 0);
      pool_status = pool_->ParallelFor(
          n, Grain(n), [&](int64_t begin, int64_t end, int worker) {
            MaybeInjectPoolFault();
            if (guarded && deadline_->Expired()) return;  // stays untested
            NameWorkerTrack(named_, worker);
            HASJ_TRACE_SCOPE(trace_, "compare-chunk", "refine", "pairs",
                             end - begin);
            decide(testers[static_cast<size_t>(worker)], begin, end,
                   verdict_.data());
            std::fill(tested_.begin() + begin, tested_.begin() + end, 1);
          });
      RecordPoolWait();
    }

    // The accepted items are the verdicts over the fully-tested candidate
    // prefix, in candidate order. With no truncation the prefix is
    // everything and the output is byte-identical to the serial loop at
    // every thread count; with truncation (deadline skip or a failed
    // worker task) it is a prefix of that output.
    out.attempted = std::find(tested_.begin(), tested_.end(), 0) -
                    tested_.begin();
    out.accepted.reserve(static_cast<size_t>(out.attempted));
    for (int64_t i = 0; i < out.attempted; ++i) {
      if (verdict_[static_cast<size_t>(i)]) {
        out.accepted.push_back(items[static_cast<size_t>(i)]);
      }
    }
    if (!pool_status.ok()) {
      out.status = pool_status;
    } else if (out.attempted < n) {
      out.status = deadline_ != nullptr
                       ? deadline_->ToStatus()
                       : Status::DeadlineExceeded("refinement truncated");
    }
    for (const Tester& tester : testers) out.counters += tester.counters();
    return out;
  }

 private:
  // ~8 handouts per worker: coarse enough that the shared cursor is cold,
  // fine enough that one slow chunk cannot serialize the tail.
  int64_t Grain(int64_t n) const {
    return std::max<int64_t>(1, n / (static_cast<int64_t>(threads_) * 8));
  }

  // kPoolTask injection: a firing check fails the whole chunk by throwing,
  // which is exactly the failure mode the pool's chunk-boundary catch
  // exists for. No-op (one pointer test) without an injector.
  void MaybeInjectPoolFault() const {
    if (faults_ == nullptr) return;
    if (Status s = faults_->Check(FaultSite::kPoolTask); !s.ok()) {
      throw std::runtime_error(s.ToString());
    }
  }

  // Labels the calling worker's trace track on its first chunk. Safe
  // without atomics: invocations for one worker index are serial, and each
  // worker touches only its own slot.
  void NameWorkerTrack(std::vector<uint8_t>& named, int worker) const {
    if (trace_ == nullptr || named[static_cast<size_t>(worker)] != 0) return;
    named[static_cast<size_t>(worker)] = 1;
    trace_->NameCurrentTrack("refine-worker-" + std::to_string(worker));
  }

  // Feeds the last job's per-worker queue wait into the registry (worker 0
  // is the caller and never queues, so it is skipped).
  void RecordPoolWait() const {
    if (metrics_ == nullptr || !pool_.has_value()) return;
    obs::Histogram& hist = metrics_->GetHistogram(obs::kHistQueueWaitUs);
    const std::vector<double>& waits = pool_->last_wait_us();
    for (size_t w = 1; w < waits.size(); ++w) {
      hist.Record(static_cast<int64_t>(waits[w]));
    }
  }

  int threads_;
  mutable std::optional<ThreadPool> pool_;
  // Gather scratch reused across Refine calls (capacity persists;
  // assign() only rewrites contents). Mutable for the same reason as
  // pool_: the executor runs one refinement stage at a time, so the const
  // entry points may use per-executor scratch.
  mutable std::vector<uint8_t> verdict_;
  mutable std::vector<uint8_t> tested_;
  mutable std::vector<uint8_t> named_;
  obs::TraceSession* trace_;
  obs::Registry* metrics_;
  const QueryDeadline* deadline_;
  FaultInjector* faults_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_REFINEMENT_EXECUTOR_H_
