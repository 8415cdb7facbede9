#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "obs/histogram.h"
#include "util/backoff.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace atrapos {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key 7");
  EXPECT_EQ(s.ToString(), "NotFound: key 7");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 64; ++i) diff += a.Next() != b.Next();
  EXPECT_GT(diff, 60);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRangeRoughlyEvenly) {
  Rng r(99);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.Uniform(10)];
  for (auto& [v, c] : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 50) << "value " << v;
  }
}

TEST(RngTest, NURandWithinBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NURand(255, 0, 999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  ZipfRng z(100000, 0.99, 3);
  int hot = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i)
    if (z.Next() < 1000) ++hot;  // top 1% of keys
  // Zipf(0.99): the top 1% should absorb far more than 1% of draws.
  EXPECT_GT(hot, kDraws / 5);
}

TEST(ZipfTest, StaysInRange) {
  ZipfRng z(1000, 0.5, 11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 1000u);
}

TEST(HotSetTest, MatchesPaperSkew) {
  // Fig. 11: 50% of requests to 20% of the data.
  HotSetRng h(100000, 0.2, 0.5, 17);
  int hot = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (h.Next() < 20000) ++hot;
  EXPECT_NEAR(hot, kDraws / 2, kDraws / 50);
}

TEST(StreamingStatsTest, MeanAndStddev) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StreamingStatsTest, ResetClears) {
  StreamingStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, QuantilesOrdered) {
  obs::Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GE(h.max(), 1000u);
  EXPECT_EQ(h.min(), 1u);
}

TEST(HistogramTest, MergeCombines) {
  obs::Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(SlidingWindowTest, KeepsLastN) {
  SlidingWindow w(5);
  for (int i = 1; i <= 10; ++i) w.Add(i);
  EXPECT_TRUE(w.full());
  // last five: 6..10 -> avg 8
  EXPECT_DOUBLE_EQ(w.Average(), 8.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"alpha", TablePrinter::Num(1.5)});
  tp.AddRow({"b", TablePrinter::Int(42)});
  std::string s = tp.ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(StatusTest, DeadlineExceededCode) {
  Status s = Status::DeadlineExceeded("no ack in time");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.ToString().find("DeadlineExceeded"), std::string::npos);
}

TEST(BackoffTest, FirstDelayIsBase) {
  util::Backoff b(200, 50'000, 7);
  EXPECT_EQ(b.NextDelayUs(), 200u);
}

TEST(BackoffTest, DelaysStayWithinBaseAndCap) {
  util::Backoff b(100, 2'000, 11);
  uint64_t prev = b.NextDelayUs();
  for (int i = 0; i < 50; ++i) {
    uint64_t d = b.NextDelayUs();
    EXPECT_GE(d, 100u);
    EXPECT_LE(d, 2'000u);
    // Decorrelated jitter: each delay is bounded by 3x the previous one.
    EXPECT_LE(d, std::max<uint64_t>(prev * 3, 100));
    prev = d;
  }
  EXPECT_EQ(b.attempts(), 51u);
}

TEST(BackoffTest, DeterministicForSameSeed) {
  util::Backoff a(50, 10'000, 42), b(50, 10'000, 42), c(50, 10'000, 43);
  bool diverged = false;
  for (int i = 0; i < 20; ++i) {
    uint64_t da = a.NextDelayUs();
    EXPECT_EQ(da, b.NextDelayUs());
    diverged |= da != c.NextDelayUs();
  }
  EXPECT_TRUE(diverged);
}

TEST(BackoffTest, ResetRestartsFromBase) {
  util::Backoff b(100, 5'000, 3);
  for (int i = 0; i < 5; ++i) (void)b.NextDelayUs();
  EXPECT_EQ(b.attempts(), 5u);
  b.Reset();
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_EQ(b.NextDelayUs(), 100u);  // history forgotten: base again
}

// A flag no getter read is a typo or a retired option: RejectUnknown()
// names it and exits 2 instead of running the default configuration.
TEST(FlagsTest, RejectUnknownExitsOnAFlagNoGetterRead) {
  const char* argv[] = {"bench", "--cores=2", "--quick", "--durabilty=group",
                        "--seed", "7"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("cores", 4), 2);
  EXPECT_TRUE(flags.GetBool("quick", false));
  EXPECT_EQ(flags.GetInt("seed", 42), 7);
  EXPECT_EQ(flags.GetString("json", "none"), "none");  // absent: default
  EXPECT_EXIT(flags.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag: --durabilty");
  EXPECT_TRUE(flags.Has("durabilty"));  // Has reads the name too
  flags.RejectUnknown();                // every flag read: returns
}

}  // namespace
}  // namespace atrapos
