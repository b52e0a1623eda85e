#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace hasj::obs {
namespace {

// PMU availability is an environment property: most CI containers deny
// perf_event_open. Every test here must pass in both worlds — the
// PMU-available assertions are gated on Supported(), and the degradation
// contract (zero deltas, inert scopes, no errors) is what always runs.

TEST(PerfCountersTest, StageAndEventNames) {
  EXPECT_STREQ(PmuStageName(PmuStage::kHwFill), "hw_fill");
  EXPECT_STREQ(PmuStageName(PmuStage::kHwScan), "hw_scan");
  EXPECT_STREQ(PmuStageName(PmuStage::kIntervalDecide), "interval_decide");
  EXPECT_STREQ(PmuStageName(PmuStage::kExactCompare), "exact_compare");
  EXPECT_STREQ(PmuEventName(PmuEvent::kCycles), "cycles");
  EXPECT_STREQ(PmuEventName(PmuEvent::kBranchMisses), "branch_misses");
}

TEST(PerfCountersTest, NullSessionScopeIsInert) {
  // The HwConfig default: pmu == nullptr. A scope on it must be a no-op.
  PmuScope scope(nullptr, PmuStage::kHwFill);
  PmuScope with_trace(nullptr, PmuStage::kExactCompare, nullptr);
  EXPECT_EQ(PmuSnapshotOf(nullptr), PmuSnapshot{});
}

TEST(PerfCountersTest, SupportedMatchesAvailable) {
  PerfCounters pmu;
  EXPECT_EQ(pmu.available(), PerfCounters::Supported());
}

TEST(PerfCountersTest, UnavailableSessionStaysZero) {
  PerfCounters pmu;
  {
    PmuScope scope(&pmu, PmuStage::kIntervalDecide);
    // Some work so an available PMU would count something.
    volatile int64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const PmuSnapshot snap = pmu.Snapshot();
  if (!pmu.available()) {
    EXPECT_EQ(snap, PmuSnapshot{});
  } else {
    EXPECT_EQ(snap.scopes[static_cast<size_t>(PmuStage::kIntervalDecide)], 1);
    EXPECT_GT(snap.at(PmuStage::kIntervalDecide, PmuEvent::kCycles), 0);
    EXPECT_GT(snap.at(PmuStage::kIntervalDecide, PmuEvent::kInstructions), 0);
    // Nothing was attributed to the stages no scope covered.
    EXPECT_EQ(snap.at(PmuStage::kHwFill, PmuEvent::kCycles), 0);
  }
}

TEST(PerfCountersTest, SnapshotSubtractionGivesPerQueryDeltas) {
  PerfCounters pmu;
  const PmuSnapshot begin = PmuSnapshotOf(&pmu);
  {
    PmuScope scope(&pmu, PmuStage::kExactCompare);
    volatile int64_t sink = 0;
    for (int64_t i = 0; i < 100000; ++i) sink = sink + i * i;
  }
  PmuSnapshot delta = pmu.Snapshot();
  delta -= begin;
  if (pmu.available()) {
    EXPECT_EQ(delta.scopes[static_cast<size_t>(PmuStage::kExactCompare)], 1);
    EXPECT_GT(delta.total(PmuEvent::kCycles), 0);
  } else {
    EXPECT_EQ(delta, PmuSnapshot{});
  }
  // A second delta over no work is empty either way.
  const PmuSnapshot after = pmu.Snapshot();
  PmuSnapshot idle = pmu.Snapshot();
  idle -= after;
  EXPECT_EQ(idle, PmuSnapshot{});
}

TEST(PerfCountersTest, TotalSumsAcrossStages) {
  PmuSnapshot snap;
  snap.value[static_cast<size_t>(PmuStage::kHwFill)]
      [static_cast<size_t>(PmuEvent::kCacheMisses)] = 3;
  snap.value[static_cast<size_t>(PmuStage::kExactCompare)]
      [static_cast<size_t>(PmuEvent::kCacheMisses)] = 4;
  EXPECT_EQ(snap.total(PmuEvent::kCacheMisses), 7);
  EXPECT_EQ(snap.total(PmuEvent::kCycles), 0);
}

}  // namespace
}  // namespace hasj::obs
