#ifndef HASJ_CORE_QUERY_OBS_H_
#define HASJ_CORE_QUERY_OBS_H_

#include <cstdint>

#include "core/hw_config.h"
#include "core/query_stats.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"

namespace hasj::core {

// Intermediate-filter decision tallies a pipeline run reports alongside
// its StageCounts (zero for pipelines without the corresponding filter).
struct QueryObsTallies {
  // 0-/1-Object distance-bound accepts: reported in the distance forms'
  // results; the sinks see them only inside StageCounts::filter_hits.
  int64_t zero_object_hits = 0;
  int64_t one_object_hits = 0;
  int64_t raster_positives = 0;   // raster-signature filter decisions
  int64_t raster_negatives = 0;
  int64_t interval_hits = 0;      // raster-interval filter decisions
  int64_t interval_misses = 0;
  int64_t interval_undecided = 0;
};

// Canonical per-query observability fan-out (DESIGN.md §10, §15). The
// per-query StageCosts / StageCounts / HwCounters structs stay the
// pipelines' return values; this bridge is the single place that
// translates them into every attached sink, so all consumers — EXPLAIN
// ANALYZE, bench --json, the query log, tests — read one schema:
//
//  * config.metrics   — counters/gauges under obs/names.h names, plus the
//                       per-pipeline per-stage latency histograms
//                       ("pipeline.<kind>.mbr_us", ...) feeding the
//                       report's p50/p90/p99 columns, plus the per-stage
//                       PMU delta counters and the pmu.available gauge
//                       when config.pmu is attached;
//  * config.query_log — one JSONL record (config fingerprint, costs,
//                       counts, hardware counters, filter tallies,
//                       fault/breaker/deadline events, PMU deltas) when
//                       ShouldSample(config.query_log_sample) fires.
//
// `kind` is the pipeline name ("selection", "join", "distance_selection",
// "distance_join"). `pmu_begin` is the PMU snapshot the pipeline captured
// at Run() entry (obs::PmuSnapshotOf(config.pmu)); the per-query delta is
// the session snapshot now minus then. No-op per sink when that sink is
// null.
void RecordQueryObs(const HwConfig& config, const char* kind,
                    const StageCosts& costs, const StageCounts& counts,
                    const HwCounters& hw, const QueryObsTallies& tallies,
                    const obs::PmuSnapshot& pmu_begin);

}  // namespace hasj::core

#endif  // HASJ_CORE_QUERY_OBS_H_
