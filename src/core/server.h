#ifndef HASJ_CORE_SERVER_H_
#define HASJ_CORE_SERVER_H_

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "core/snapshot_query.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "geom/polygon.h"
#include "obs/metrics.h"

namespace hasj::core {

enum class QueryKind {
  kSelection,
  kJoin,              // self-join of the store against one pinned snapshot
  kDistanceSelection,
  kDistanceJoin,      // self-join within `distance`
};

// Two admission classes: interactive queries are always dequeued before
// batch queries; both count against the same queue cap.
enum class QueryPriority { kInteractive = 0, kBatch = 1 };

struct QueryRequest {
  QueryKind kind = QueryKind::kSelection;
  // Query geometry for the selection forms; ignored by the join forms.
  geom::Polygon query;
  // Distance budget for the distance forms.
  double distance = 0.0;
  QueryPriority priority = QueryPriority::kInteractive;
  // Per-query latency budget / cooperative cancellation, forwarded into
  // the snapshot query's HwConfig (common/cancel.h semantics). A query
  // cancelled while still queued fails without running.
  double deadline_ms = 0.0;
  const CancelToken* cancel = nullptr;
};

struct QueryResponse {
  SnapshotQueryResult result;
  // The ladder level this query actually ran at.
  DegradeLevel degrade = DegradeLevel::kNone;
  // The store version the query was pinned to (for oracle replay).
  uint64_t epoch = 0;
  // Time spent waiting in the admission queue.
  double wait_ms = 0.0;
  // kResourceExhausted: shed at admission (queue at cap; nothing ran).
  // kUnavailable: server not running, or shut down while queued.
  // kDeadlineExceeded: budget/cancellation truncated the run.
  Status status;
};

struct ServerConfig {
  // 0 is admission-only mode: queries queue (and shed at cap) but never
  // execute until Shutdown fails them — deterministic queue-policy tests.
  int num_workers = 2;
  // Admission cap across both priority classes; a Submit finding the queue
  // at cap fails fast with kResourceExhausted.
  size_t queue_capacity = 64;
  // Degradation-ladder watermarks as fractions of queue_capacity
  // (DESIGN.md §16): queue depth >= l1 drops batching, >= l2 also lowers
  // the raster resolution, >= l3 also goes intervals-only. Verdicts are
  // exact at every level.
  double l1_watermark = 0.5;
  double l2_watermark = 0.75;
  double l3_watermark = 0.9;
  // Base execution options; the server overrides degrade/deadline/cancel
  // per query. L3 queries consult options.intervals/intervals_b: each
  // store needs a slot per store id, and both must share frame and grid
  // bits (Start checks both).
  SnapshotQueryOptions options;
  // Re-run every verify_every-th completed query against the serial oracle
  // on its pinned snapshot (0 = never). A mismatch bumps
  // server.verify_mismatch and fails that query with kInternal.
  int64_t verify_every = 0;
  // Metric export (server.* names in obs/names.h); may be null.
  obs::Registry* metrics = nullptr;
};

// A long-running query server over a mutable VersionedDataset: worker
// threads drain a bounded two-priority admission queue, pin a store
// snapshot per query, and execute through the snapshot query engine —
// so concurrent Insert/Delete traffic never changes what a running query
// sees. Overload behaviour is deterministic: beyond queue_capacity,
// Execute fails fast; between the watermarks, queries run at the ladder
// level their admission-time depth dictates.
class QueryServer {
 public:
  QueryServer(const data::VersionedDataset* store, const ServerConfig& config);
  ~QueryServer();  // implies Shutdown()

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Spawns the workers. kFailedPrecondition-free: Ok, or kInvalidArgument
  // for a bad config (including an interval store with fewer slots than
  // the store's capacity, or two interval stores that disagree on frame or
  // grid bits), or kUnavailable if already started.
  [[nodiscard]] Status Start() HASJ_EXCLUDES(mu_);

  // Stops accepting queries, fails every still-queued query with
  // kUnavailable, lets in-flight queries finish, and joins the workers.
  // Idempotent.
  void Shutdown() HASJ_EXCLUDES(mu_);

  // Submits `request` and blocks until its outcome; the response's status
  // says how far it got (see QueryResponse). Safe from any number of
  // threads. The request (and its cancel token) must stay alive for the
  // duration of the call.
  QueryResponse Execute(const QueryRequest& request) HASJ_EXCLUDES(mu_);

  // The ladder level a query admitted at `depth` queued entries runs at —
  // the deterministic core of the overload policy, exposed for tests.
  static DegradeLevel DegradeLevelForDepth(size_t depth,
                                           const ServerConfig& config);

  // Point-in-time queued count (both classes).
  size_t queue_depth() const HASJ_EXCLUDES(mu_);

  // Queries dequeued and currently executing.
  size_t inflight() const HASJ_EXCLUDES(mu_);

 private:
  // One submitted query, owned by its Execute frame; done_cv_ hands it
  // back.
  struct PendingQuery {
    const QueryRequest* request = nullptr;
    QueryResponse response;
    Stopwatch queued_at;
    bool verify = false;  // sampled-oracle check, decided at dequeue
    bool done = false;
  };

  void WorkerLoop() HASJ_EXCLUDES(mu_);
  // Executes one query against a fresh snapshot pin. Called without mu_.
  void RunQuery(PendingQuery* pending);
  void BumpCounter(const char* name, int64_t delta = 1);

  const data::VersionedDataset* const store_;
  const ServerConfig config_;

  mutable Mutex mu_;
  CondVar work_cv_;  // workers wait: queue non-empty or stopping
  CondVar done_cv_;  // Execute frames wait: their PendingQuery done
  bool started_ HASJ_GUARDED_BY(mu_) = false;
  bool stopping_ HASJ_GUARDED_BY(mu_) = false;
  std::deque<PendingQuery*> interactive_ HASJ_GUARDED_BY(mu_);
  std::deque<PendingQuery*> batch_ HASJ_GUARDED_BY(mu_);
  size_t max_depth_seen_ HASJ_GUARDED_BY(mu_) = 0;
  size_t inflight_ HASJ_GUARDED_BY(mu_) = 0;
  int64_t completed_ HASJ_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> workers_ HASJ_GUARDED_BY(mu_);
};

}  // namespace hasj::core

#endif  // HASJ_CORE_SERVER_H_
