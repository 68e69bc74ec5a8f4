#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/threadpool.h"

namespace gal {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kAborted,
        StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusConstructionBecomesInternalError) {
  Result<int> r = Status::Ok();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailingHelper() { return Status::Aborted("nope"); }
Status PropagatingHelper(bool fail) {
  if (fail) GAL_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(PropagatingHelper(true).code(), StatusCode::kAborted);
  EXPECT_TRUE(PropagatingHelper(false).ok());
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntHonorsInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(5000);
  pool.ParallelFor(5000, [&visits](size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForShardsCoversRangeExactly) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelForShards(1001, [&total](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 1001u);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

// ---------------------------------------------------------------------------
// Env knobs: the table's parsers, through its one pure entry point

// The value `knob`'s row reads from `text`: nullopt when it reads the
// text as unset or rejects it.
std::optional<env::Value> Parsed(env::Knob knob, const char* text) {
  Result<std::optional<env::Value>> value = env::Parse(knob, text);
  return value.ok() ? std::move(value).value() : std::nullopt;
}

bool Rejected(env::Knob knob, const char* text) {
  return !env::Parse(knob, text).ok();
}

TEST(EnvSwitchTest, MatchesWholeSpellingsOnly) {
  constexpr env::Knob kSwitch = env::Knob::kSimd;
  for (const char* text : {"1", "on", "true", "yes"}) {
    const std::optional<env::Value> value = Parsed(kSwitch, text);
    ASSERT_TRUE(value.has_value()) << text;
    EXPECT_TRUE(value->on) << text;
  }
  for (const char* text : {"0", "off", "false", "no"}) {
    const std::optional<env::Value> value = Parsed(kSwitch, text);
    ASSERT_TRUE(value.has_value()) << text;
    EXPECT_FALSE(value->on) << text;
  }
  // Empty reads as unset; prefixes, typos and padding are rejected.
  EXPECT_FALSE(Rejected(kSwitch, ""));
  EXPECT_FALSE(Parsed(kSwitch, "").has_value());
  for (const char* text : {"of", "o", "offf", "10", " 1", "On", "y"}) {
    EXPECT_TRUE(Rejected(kSwitch, text)) << text;
  }
}

TEST(EnvNumberTest, ParsesWholeIntegersOnly) {
  // A byte count: any whole 64-bit integer, 0 included.
  constexpr env::Knob kBytes = env::Knob::kOocBudgetBytes;
  ASSERT_TRUE(Parsed(kBytes, "0").has_value());
  EXPECT_EQ(Parsed(kBytes, "0")->integer, 0u);
  ASSERT_TRUE(Parsed(kBytes, "18446744073709551615").has_value());
  EXPECT_EQ(Parsed(kBytes, "18446744073709551615")->integer, UINT64_MAX);
  for (const char* text : {"", "abc", "-1", "+1", " 1", "64M", "1e6",
                           "18446744073709551616"}) {
    EXPECT_TRUE(Rejected(kBytes, text)) << text;
  }
  // A positive integer that fits in 32 bits.
  constexpr env::Knob kCount = env::Knob::kTaskThreads;
  ASSERT_TRUE(Parsed(kCount, "4294967295").has_value());
  EXPECT_EQ(Parsed(kCount, "4294967295")->integer, UINT32_MAX);
  for (const char* text : {"0", "4294967296", "two", "3x", "-3", ""}) {
    EXPECT_TRUE(Rejected(kCount, text)) << text;
  }
  // A shard size is a positive byte count: 0 is malformed, not ignored.
  EXPECT_TRUE(Rejected(env::Knob::kOocShardBytes, "0"));
  ASSERT_TRUE(Parsed(env::Knob::kOocShardBytes, "512").has_value());
  EXPECT_EQ(Parsed(env::Knob::kOocShardBytes, "512")->integer, 512u);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterAccumulatesConcurrently) {
  Counter c;
  ThreadPool pool(8);
  pool.ParallelFor(10000, [&c](size_t) { c.Increment(); });
  EXPECT_EQ(c.Get(), 10000);
  c.Reset();
  EXPECT_EQ(c.Get(), 0);
}

TEST(MetricsTest, MaxGaugeTracksMaximum) {
  MaxGauge g;
  g.Observe(5);
  g.Observe(3);
  g.Observe(9);
  g.Observe(7);
  EXPECT_EQ(g.Get(), 9);
}

TEST(MetricsTest, HistogramQuantilesAndMax) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.P50(), 50.5, 1e-9);
  EXPECT_NEAR(h.P95(), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, HistogramEmptyReadsAsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
  EXPECT_DOUBLE_EQ(h.P95(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
}

TEST(MetricsTest, HistogramObserveIsThreadSafe) {
  Histogram h;
  ThreadPool pool(8);
  pool.ParallelFor(5000, [&h](size_t) { h.Observe(1.0); });
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_DOUBLE_EQ(h.sum(), 5000.0);
}

TEST(MetricsTest, ScopedSpanRecordsOneSample) {
  Histogram h;
  {
    ScopedSpan span(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.Max(), 0.0);
}

TEST(MetricsTest, StageTimingStatSummarizesHistogram) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(3.0);
  StageTimingStat stat = StageTimingStat::FromHistogram("forward", h);
  EXPECT_EQ(stat.name, "forward");
  EXPECT_DOUBLE_EQ(stat.total_seconds, 6.0);
  EXPECT_DOUBLE_EQ(stat.p50_seconds, 2.0);
  EXPECT_DOUBLE_EQ(stat.max_seconds, 3.0);
}

}  // namespace
}  // namespace gal
