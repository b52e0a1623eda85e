#!/usr/bin/env bash
# ThreadSanitizer check for the parallel refinement executor: builds the
# tree with -DHASJ_SANITIZE=thread and runs the thread pool unit tests, the
# thread-count cross-check tests (tests/core_parallel_refinement_test.cc),
# the concurrent observability tests (sharded counters/histograms,
# multi-thread trace tracks), the chaos/fault tests (concurrent fault
# ordinal claims, multi-thread degradation + deadlines — DESIGN.md §11),
# and the snapshot-isolation layer (DESIGN.md §16): the persistent R-tree
# (copies sharing nodes across threads), its DynamicRTree version publisher,
# the versioned dataset store, the QueryServer admission queue, and the
# writers-vs-pinned-readers chaos suite, plus concurrent lazy fills of the
# per-object interval store. Any data race in the per-worker testers, the
# chunk cursor, the signature caches, the interval store's slots, the
# metric shards, the fault injector, or the epoch publish/pin protocol
# fails the run.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHASJ_SANITIZE=thread \
  -DHASJ_BUILD_BENCHMARKS=OFF \
  -DHASJ_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target common_thread_pool_test core_parallel_refinement_test \
  obs_metrics_test obs_trace_test common_fault_test chaos_fault_test \
  index_rtree_test index_dynamic_rtree_test data_versioned_dataset_test \
  core_server_test core_pinned_input_test chaos_snapshot_test \
  filter_interval_approx_test

# Halt on the first report and fail the process so CI sees it.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'ThreadPoolTest|ParallelRefinementTest|CounterTest|HistogramTest|HistogramBucketsTest|GaugeTest|RegistryTest|MetricsSnapshotTest|TraceSessionTest|FaultInjectorTest|CircuitBreakerTest|ChaosFaultTest|RTreeTest|DynamicRTreeTest|VersionedDatasetTest|QueryServerTest|PinnedInputTest|ChaosSnapshotTest|LazyIntervalApproxTest'

echo "TSan check passed."
