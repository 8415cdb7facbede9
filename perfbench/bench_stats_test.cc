// Unit tests of the benchmark's measurement rules (bench_stats.h).
#include "bench_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(TailQuantile, KeepsTheWantedQuantileWhenTenSamplesLieBeyondIt) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(1000000, 0.99), 0.99);
}

TEST(TailQuantile, FallsBackToTheHighestSupportedQuantile) {
  // 500 samples: p99 would have only 5 beyond it; p98 has exactly 10.
  EXPECT_DOUBLE_EQ(TailQuantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(TailQuantile(100, 0.99), 0.9);
  // Below 20 samples no tail has ten beyond it and above the median.
  EXPECT_DOUBLE_EQ(TailQuantile(19, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0, 0.99), 0.5);
}

TEST(NearestRank, LeavesExactlyTenSamplesBeyondTheTail) {
  std::vector<float> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<float>(1001 - i));
  double p99 = NearestRank(v, TailQuantile(v.size(), 0.99));
  EXPECT_DOUBLE_EQ(p99, 990.0);  // samples 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.5), 500.0);
}

TEST(NearestRank, SmallAndEmptyInputs) {
  std::vector<float> empty;
  EXPECT_DOUBLE_EQ(NearestRank(empty, 0.5), 0.0);
  std::vector<float> one = {7};
  EXPECT_DOUBLE_EQ(NearestRank(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(NearestRank(one, 0.99), 7.0);
}

TEST(Reservoir, HoldsEverySampleUntilFullThenSamplesUniformly) {
  Reservoir r(100, 1);
  for (int i = 0; i < 50; ++i) r.Add(static_cast<float>(i));
  EXPECT_EQ(r.seen(), 50u);
  EXPECT_EQ(r.held(), 50u);
  EXPECT_DOUBLE_EQ(r.Quantile(1.0), 49.0);
  for (int i = 50; i < 100000; ++i) r.Add(static_cast<float>(i));
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_EQ(r.held(), 100u);
  // A uniform sample of 0..99999: its median is near the stream's.
  EXPECT_NEAR(r.Median(), 50000.0, 15000.0);
}

Span At(uint64_t start, uint64_t end) { return Span{start, end, 0, kNoParent, 0}; }

TEST(SelfTime, ParentMinusDisjointChildren) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {{10, 20}, {50, 70}}), 70u);
  EXPECT_EQ(SelfTimeNs(At(0, 100), {}), 100u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) cover [10,60); [45,50) lies inside both.
  EXPECT_EQ(SelfTimeNs(At(0, 100), {{30, 60}, {10, 40}, {45, 50}}), 50u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(At(100, 200), {{50, 120}, {180, 300}}), 60u);
  EXPECT_EQ(SelfTimeNs(At(100, 200), {{0, 50}, {250, 300}}), 100u);
  EXPECT_EQ(SelfTimeNs(At(100, 200), {{0, 300}}), 0u);
}

TEST(Tracer, AggregatesTotalsAndSelfTimePerName) {
  Tracer tr(true, 16);
  uint32_t root = tr.Open(kClientLoop, kNoParent, 0);
  tr.Add(kClientBuild, root, 0, 0, 10);
  tr.Add(kClientSubmit, root, 0, 10, 15);
  tr.Add(kClientWait, root, 0, 15, 90);
  tr.Add(kTxn, kNoParent, 7, 10, 80);  // async: not a child of the loop
  tr.Close(root, 100);
  auto t = tr.Aggregate();
  EXPECT_EQ(t[kClientLoop].total_ns, 100u);
  EXPECT_EQ(t[kClientLoop].self_ns, 10u);
  EXPECT_EQ(t[kClientWait].total_ns, 75u);
  EXPECT_EQ(t[kTxn].count, 1u);
  // The loop's children and its self time partition it exactly.
  EXPECT_EQ(t[kClientBuild].total_ns + t[kClientSubmit].total_ns +
                t[kClientWait].total_ns + t[kClientLoop].self_ns,
            t[kClientLoop].total_ns);
}

TEST(Tracer, CountsSpansBeyondItsCapAndRecordsNothingWhenOff) {
  Tracer capped(true, 2);
  capped.Add(kTxn, kNoParent, 0, 0, 1);
  capped.Add(kTxn, kNoParent, 0, 0, 1);
  EXPECT_EQ(capped.Add(kTxn, kNoParent, 0, 0, 1), kNoParent);
  EXPECT_EQ(capped.dropped(), 1u);
  Tracer off(false, 2);
  EXPECT_EQ(off.Open(kClientLoop, kNoParent, 0), kNoParent);
  off.Close(kNoParent, 5);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
