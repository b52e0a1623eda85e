#include "core/server.h"

#include <algorithm>
#include <utility>

#include "obs/names.h"

namespace hasj::core {

namespace {

// Sorted copies for order-insensitive comparison against the oracle.
std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::pair<int64_t, int64_t>> Sorted(
    std::vector<std::pair<int64_t, int64_t>> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

QueryServer::QueryServer(const data::VersionedDataset* store,
                         const ServerConfig& config)
    : store_(store), config_(config) {}

QueryServer::~QueryServer() { Shutdown(); }

DegradeLevel QueryServer::DegradeLevelForDepth(size_t depth,
                                               const ServerConfig& config) {
  const double cap = static_cast<double>(config.queue_capacity);
  const double d = static_cast<double>(depth);
  if (d >= config.l3_watermark * cap) return DegradeLevel::kIntervalsOnly;
  if (d >= config.l2_watermark * cap) return DegradeLevel::kLowRes;
  if (d >= config.l1_watermark * cap) return DegradeLevel::kNoBatch;
  return DegradeLevel::kNone;
}

void QueryServer::BumpCounter(const char* name, int64_t delta) {
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter(name).Add(delta);
  }
}

Status QueryServer::Start() {
  if (config_.num_workers < 0) {
    return Status::InvalidArgument("server worker count must be >= 0");
  }
  if (config_.queue_capacity < 1) {
    return Status::InvalidArgument("server needs a positive queue capacity");
  }
  if (!(config_.l1_watermark <= config_.l2_watermark &&
        config_.l2_watermark <= config_.l3_watermark)) {
    return Status::InvalidArgument(
        "degradation watermarks must be non-decreasing");
  }
  // An L3 query indexes the interval stores by store id, so each must
  // cover them all, and a self-join compares the two stores' cells.
  const filter::IntervalApprox* const a = config_.options.intervals;
  for (const filter::IntervalApprox* b : {a, config_.options.intervals_b}) {
    if (b != nullptr && (b->size() < store_->capacity() ||
                         (a != nullptr && !a->SameGrid(*b)))) {
      return Status::InvalidArgument(
          "interval stores must cover the store on one frame and grid");
    }
  }
  MutexLock lock(&mu_);
  if (started_) return Status::Unavailable("server already started");
  started_ = true;
  stopping_ = false;
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void QueryServer::Shutdown() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    if (!started_) return;
    stopping_ = true;
    // Fail everything still queued; in-flight queries run to completion.
    while (!interactive_.empty() || !batch_.empty()) {
      std::deque<PendingQuery*>& q =
          interactive_.empty() ? batch_ : interactive_;
      PendingQuery* pending = q.front();
      q.pop_front();
      pending->response.status =
          Status::Unavailable("server shut down before the query ran");
      pending->done = true;
    }
    done_cv_.NotifyAll();
    work_cv_.NotifyAll();
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) worker.join();
  MutexLock lock(&mu_);
  started_ = false;
}

size_t QueryServer::queue_depth() const {
  MutexLock lock(&mu_);
  return interactive_.size() + batch_.size();
}

size_t QueryServer::inflight() const {
  MutexLock lock(&mu_);
  return inflight_;
}

QueryResponse QueryServer::Execute(const QueryRequest& request) {
  PendingQuery pending;
  pending.request = &request;
  MutexLock lock(&mu_);
  if (!started_ || stopping_) {
    pending.response.status = Status::Unavailable("server is not running");
    return std::move(pending.response);
  }
  const size_t depth = interactive_.size() + batch_.size();
  if (depth >= config_.queue_capacity) {
    BumpCounter(obs::kServerShed);
    pending.response.status = Status::ResourceExhausted(
        "admission queue at capacity; retry with backoff");
    return std::move(pending.response);
  }
  // The ladder level is fixed at admission, from the depth including this
  // query — deterministic in the queue state, regardless of which worker
  // picks it up when.
  pending.response.degrade = DegradeLevelForDepth(depth + 1, config_);
  pending.queued_at.Restart();
  (request.priority == QueryPriority::kInteractive ? interactive_ : batch_)
      .push_back(&pending);
  max_depth_seen_ = std::max(max_depth_seen_, depth + 1);
  BumpCounter(obs::kServerAdmitted);
  switch (pending.response.degrade) {
    case DegradeLevel::kNone:
      break;
    case DegradeLevel::kNoBatch:
      BumpCounter(obs::kServerDegradedL1);
      break;
    case DegradeLevel::kLowRes:
      BumpCounter(obs::kServerDegradedL2);
      break;
    case DegradeLevel::kIntervalsOnly:
      BumpCounter(obs::kServerDegradedL3);
      break;
  }
  if (config_.metrics != nullptr) {
    config_.metrics->GetGauge(obs::kServerQueueDepth)
        .Set(static_cast<double>(depth + 1));
    config_.metrics->GetGauge(obs::kServerQueueDepthMax)
        .Set(static_cast<double>(max_depth_seen_));
  }
  work_cv_.NotifyOne();
  while (!pending.done) done_cv_.Wait(mu_);
  return std::move(pending.response);
}

void QueryServer::WorkerLoop() {
  while (true) {
    PendingQuery* pending = nullptr;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && interactive_.empty() && batch_.empty()) {
        work_cv_.Wait(mu_);
      }
      if (stopping_) return;
      std::deque<PendingQuery*>& q =
          !interactive_.empty() ? interactive_ : batch_;
      pending = q.front();
      q.pop_front();
      if (config_.metrics != nullptr) {
        config_.metrics->GetGauge(obs::kServerQueueDepth)
            .Set(static_cast<double>(interactive_.size() + batch_.size()));
      }
      ++inflight_;
      ++completed_;
      pending->verify = config_.verify_every > 0 &&
                        (completed_ % config_.verify_every) == 0;
    }
    pending->response.wait_ms = pending->queued_at.ElapsedMillis();
    if (config_.metrics != nullptr) {
      config_.metrics->GetHistogram(obs::kHistAdmissionWaitUs)
          .Record(static_cast<int64_t>(pending->response.wait_ms * 1e3));
    }
    RunQuery(pending);
    BumpCounter(obs::kServerCompleted);
    MutexLock lock(&mu_);
    --inflight_;
    pending->done = true;
    done_cv_.NotifyAll();
  }
}

void QueryServer::RunQuery(PendingQuery* pending) {
  const QueryRequest& request = *pending->request;
  QueryResponse& response = pending->response;
  // A query cancelled while it sat in the queue fails without running.
  if (request.cancel != nullptr && request.cancel->cancelled()) {
    response.status = Status::DeadlineExceeded("cancelled while queued");
    return;
  }
  SnapshotQueryOptions options = config_.options;
  options.degrade = response.degrade;
  options.hw.deadline_ms = request.deadline_ms;
  options.hw.cancel = request.cancel;
  // Pin one store version for this query; updates published after this
  // line are invisible to it (and to its oracle replay).
  const data::VersionedDataset::Snapshot snap = store_->snapshot();
  response.epoch = snap.epoch();
  switch (request.kind) {
    case QueryKind::kSelection:
      response.result = SnapshotSelection(snap, request.query, options);
      break;
    case QueryKind::kJoin:
      response.result = SnapshotJoin(snap, snap, options);
      break;
    case QueryKind::kDistanceSelection:
      response.result = SnapshotDistanceSelection(snap, request.query,
                                                  request.distance, options);
      break;
    case QueryKind::kDistanceJoin:
      response.result =
          SnapshotDistanceJoin(snap, snap, request.distance, options);
      break;
  }
  response.status = response.result.status;
  if (!pending->verify || !response.status.ok()) return;
  // Sampled self-verification: replay against the serial oracle on the
  // same pinned snapshot. Any divergence is a correctness bug, not load.
  BumpCounter(obs::kServerVerified);
  bool match = true;
  switch (request.kind) {
    case QueryKind::kSelection:
      match = Sorted(response.result.ids) == OracleSelection(snap, request.query);
      break;
    case QueryKind::kJoin:
      match = Sorted(response.result.pairs) == OracleJoin(snap, snap);
      break;
    case QueryKind::kDistanceSelection:
      match = Sorted(response.result.ids) ==
              OracleDistanceSelection(snap, request.query, request.distance);
      break;
    case QueryKind::kDistanceJoin:
      match = Sorted(response.result.pairs) ==
              OracleDistanceJoin(snap, snap, request.distance);
      break;
  }
  if (!match) {
    BumpCounter(obs::kServerVerifyMismatch);
    response.status =
        Status::Internal("server verdict diverged from the serial oracle");
  }
}

}  // namespace hasj::core
