// Unit tests for the util substrate.
#include <atomic>
#include <cmath>
#include <ctime>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/datetime.h"
#include "util/distributions.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/zorder.h"

namespace snb::util {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("person 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: person 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kAlreadyExists, StatusCode::kAborted,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailingHelper() { return Status::Aborted("inner"); }

Status PropagatingHelper() {
  SNB_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kAborted);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, SameKeySameSequence) {
  Rng a(1, 2, RandomPurpose::kFirstName);
  Rng b(1, 2, RandomPurpose::kFirstName);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentPurposeDifferentSequence) {
  Rng a(1, 2, RandomPurpose::kFirstName);
  Rng b(1, 2, RandomPurpose::kLastName);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3, 4, RandomPurpose::kGender);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5, 6, RandomPurpose::kDegree);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, BoundedUniformish) {
  Rng rng(7, 8, RandomPurpose::kIp);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

// ---- Distributions ----------------------------------------------------------

TEST(GeometricRankSamplerTest, RankZeroMostLikely) {
  Rng rng(1, 1, RandomPurpose::kInterests);
  GeometricRankSampler sampler(0.2, 50);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[0], 50000 / 10);
}

TEST(GeometricRankSamplerTest, StaysInDomain) {
  Rng rng(2, 2, RandomPurpose::kInterests);
  GeometricRankSampler sampler(0.01, 7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(sampler.Sample(rng), 7u);
  }
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  Rng rng(3, 3, RandomPurpose::kLocation);
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(BoundedParetoTest, WithinBoundsAndSkewed) {
  Rng rng(4, 4, RandomPurpose::kEventSpike);
  BoundedParetoSampler sampler(1.2, 1.0, 100.0);
  double below10 = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    double v = sampler.Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
    if (v < 10.0) ++below10;
  }
  EXPECT_GT(below10 / kDraws, 0.8);  // Heavy head.
}

TEST(ExponentialTest, MeanMatchesRate) {
  Rng rng(5, 5, RandomPurpose::kPostDate);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += SampleExponential(rng, 0.5);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

// ---- Z-order ----------------------------------------------------------------

TEST(ZOrderTest, InterleavesBits) {
  EXPECT_EQ(MortonInterleave16(0, 0), 0u);
  EXPECT_EQ(MortonInterleave16(1, 0), 1u);
  EXPECT_EQ(MortonInterleave16(0, 1), 2u);
  EXPECT_EQ(MortonInterleave16(3, 3), 15u);
}

TEST(ZOrderTest, NearbyCoordinatesShareZOrder) {
  uint8_t berlin = ZOrder8(52.5, 13.4);
  uint8_t hamburg = ZOrder8(53.5, 10.0);
  uint8_t sydney = ZOrder8(-33.8, 151.2);
  EXPECT_EQ(berlin, hamburg);  // 4-bit quantization: same cell.
  EXPECT_NE(berlin, sydney);
}

TEST(ZOrderTest, StudyLocationKeyPacksFields) {
  uint32_t key = StudyLocationKey(0xAB, 0x123, 0x7D5);
  EXPECT_EQ(key >> 24, 0xABu);
  EXPECT_EQ((key >> 12) & 0xfff, 0x123u);
  EXPECT_EQ(key & 0xfff, 0x7D5u);
}

// ---- Datetime ----------------------------------------------------------------

TEST(DatetimeTest, NetworkStartFormats) {
  EXPECT_EQ(FormatTimestamp(kNetworkStartMs), "2010-01-01 00:00:00");
}

TEST(DatetimeTest, TimestampFromDateRoundTrips) {
  TimestampMs ts = TimestampFromDate(2012, 6, 15);
  EXPECT_EQ(FormatTimestamp(ts), "2012-06-15 00:00:00");
}

TEST(DatetimeTest, MonthIndexClampsAndCounts) {
  EXPECT_EQ(MonthIndex(kNetworkStartMs), 0);
  EXPECT_EQ(MonthIndex(kNetworkStartMs - 1), 0);
  EXPECT_EQ(MonthIndex(kNetworkStartMs + kMillisPerMonth), 1);
  EXPECT_EQ(MonthIndex(NetworkEndMs() + kMillisPerDay),
            kSimulationMonths - 1);
}

TEST(DatetimeTest, UpdateSplitIsFourMonthsBeforeEnd) {
  EXPECT_EQ(NetworkEndMs() - UpdateStreamStartMs(), 4 * kMillisPerMonth);
}

TEST(DatetimeTest, MonthDayOfMatchesGmtime) {
  uint64_t checked = 0;
  auto matches = [&checked](TimestampMs ts) {
    std::time_t secs = static_cast<std::time_t>(ts / kMillisPerSecond);
    std::tm tm_utc{};
    gmtime_r(&secs, &tm_utc);
    int month = 0, day = 0;
    MonthDayOf(ts, &month, &day);
    ++checked;
    if (month == tm_utc.tm_mon + 1 && day == tm_utc.tm_mday) return true;
    ADD_FAILURE() << "ts " << ts << ": got " << month << "-" << day
                  << ", gmtime_r " << tm_utc.tm_mon + 1 << "-"
                  << tm_utc.tm_mday;
    return false;
  };
  const TimestampMs lo = TimestampFromDate(1900, 1, 1);
  const TimestampMs hi = TimestampFromDate(2100, 1, 1);
  // Every midnight, with the milliseconds and seconds around it: before
  // 1970 the second truncates toward zero and the day must still floor.
  for (TimestampMs midnight = lo; midnight < hi; midnight += kMillisPerDay) {
    for (TimestampMs offset : {-kMillisPerSecond - 1, -kMillisPerSecond,
                               TimestampMs{-999}, TimestampMs{-1},
                               TimestampMs{0}, TimestampMs{1},
                               kMillisPerSecond - 1, kMillisPerSecond}) {
      if (!matches(midnight + offset)) return;
    }
  }
  // Times of day anywhere in the range.
  Rng rng(0xda7e);
  for (int i = 0; i < 200000; ++i) {
    if (!matches(lo + static_cast<TimestampMs>(
                          rng.Next() % static_cast<uint64_t>(hi - lo)))) {
      return;
    }
  }
  EXPECT_GT(checked, 700000u);
}

// ---- Histogram / stats --------------------------------------------------------

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.Variance(), 1.25);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_NEAR(stats.Percentile(50), 50.5, 0.5);
  EXPECT_NEAR(stats.Percentile(99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 100.0);
}

TEST(SampleStatsTest, MergeCombines) {
  SampleStats a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(SampleStatsTest, SumIsRunningAndExact) {
  SampleStats stats;
  EXPECT_DOUBLE_EQ(stats.Sum(), 0.0);
  stats.Add(1.5);
  stats.Add(2.5);
  EXPECT_DOUBLE_EQ(stats.Sum(), 4.0);
  SampleStats other;
  other.Add(6.0);
  stats.Merge(other);
  EXPECT_DOUBLE_EQ(stats.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), stats.Sum() / 3.0);
}

TEST(SampleStatsTest, LazySortInvalidatedByAddAndMerge) {
  SampleStats stats;
  for (double v : {5.0, 1.0, 3.0}) stats.Add(v);
  // Query once to trigger the sort, then mutate and query again: the new
  // extremes must be visible (the sorted cache was invalidated).
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 9.0);
  SampleStats lower;
  lower.Add(0.5);
  stats.Merge(lower);
  EXPECT_DOUBLE_EQ(stats.Min(), 0.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 0.5);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(-1.0);
  h.Add(10.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
}

// ---- Thread pool ----------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelForRanges(1000, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForRanges(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---- Stopwatch --------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotoneAndResets) {
  Stopwatch watch;
  uint64_t a = watch.ElapsedNanos();
  uint64_t b = watch.ElapsedNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
  watch.Reset();
  EXPECT_GE(watch.ElapsedNanos(), 0u);
}

// ---- String utils -------------------------------------------------------------------

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

}  // namespace
}  // namespace snb::util
