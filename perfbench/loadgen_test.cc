// Tests of the benchmark's own accounting (perfbench/loadgen.h):
//   python3 perfbench/run.py --self-test
// builds and runs them.

#include "loadgen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr int64_t kUs = 1000;  // nanoseconds per microsecond

TEST(InflightBookTest, LatencyRunsFromDueTimeAcrossAGeneratorStall) {
  // Requests are due every 100 us; the generator stalls for 1 ms before
  // request 3 and then sends 3..5 at once. The server answers each 20 us
  // after it was sent.
  InflightBook book(6);
  const int64_t gap = 100 * kUs;
  const int64_t stall_end = 3 * gap + 1000 * kUs;
  for (uint64_t i = 0; i < 6; ++i) {
    const int64_t due = int64_t(i) * gap;
    const int64_t sent = i < 3 ? due : stall_end;
    book.Sent(i, due, sent, i);
    ASSERT_TRUE(book.Complete(i, sent + 20 * kUs).has_value());
  }
  const std::vector<double>& latency = book.latency_us();
  ASSERT_EQ(latency.size(), 6u);
  EXPECT_DOUBLE_EQ(latency[0], 20.0);
  EXPECT_DOUBLE_EQ(latency[2], 20.0);
  // The stall is charged to every request it delayed, not only the first.
  EXPECT_DOUBLE_EQ(latency[3], 1020.0);
  EXPECT_DOUBLE_EQ(latency[4], 920.0);
  EXPECT_DOUBLE_EQ(latency[5], 820.0);
  EXPECT_DOUBLE_EQ(book.lag_us()[5], 800.0);
  EXPECT_EQ(PercentileOf(book.lag_us(), 100.0).value, 1000.0);
}

TEST(InflightBookTest, MatchesOutOfOrderResponsesBySequence) {
  InflightBook book(16);
  book.Sent(10, 0, 0, 100);
  book.Sent(11, 5 * kUs, 5 * kUs, 101);
  book.Sent(12, 10 * kUs, 10 * kUs, 102);
  EXPECT_EQ(book.inflight(), 3u);
  EXPECT_EQ(book.peak(), 3u);

  const auto third = book.Complete(12, 30 * kUs);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->item, 102u);
  const auto first = book.Complete(10, 40 * kUs);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->item, 100u);
  // A duplicate, a never-sent and an out-of-range sequence are not in
  // flight.
  EXPECT_FALSE(book.Complete(10, 41 * kUs).has_value());
  EXPECT_FALSE(book.Complete(13, 41 * kUs).has_value());
  EXPECT_FALSE(book.Complete(99, 41 * kUs).has_value());
  EXPECT_EQ(book.inflight(), 1u);
  EXPECT_EQ(book.latency_us(), (std::vector<double>{20.0, 40.0}));
  EXPECT_EQ(book.sent(), 3u);

  // A sequence number past the capacity grows the book instead of writing
  // out of bounds.
  book.Sent(40, 50 * kUs, 50 * kUs, 140);
  const auto grown = book.Complete(40, 60 * kUs);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->item, 140u);
  EXPECT_EQ(book.inflight(), 1u);
}

TEST(PercentileTest, NeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(double(i));
  const Percentile p99 = PercentileOf(samples, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported);

  samples.pop_back();  // 999 samples: only 9 beyond the p99 rank
  const Percentile short_p99 = PercentileOf(samples, 99.0);
  EXPECT_EQ(short_p99.beyond, 9u);
  EXPECT_FALSE(short_p99.supported);

  const Percentile p50 = PercentileOf({3.0, 1.0, 2.0}, 50.0);
  EXPECT_EQ(p50.value, 2.0);
  EXPECT_FALSE(p50.supported);
  EXPECT_FALSE(PercentileOf({}, 50.0).supported);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
  //   == [2.75, 5.5, 8.25]
  const Quartiles q = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = QuartilesOf({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

RungStats PassingRung(double rate) {
  RungStats s;
  s.rate = rate;
  s.attempted = 2000;
  std::vector<double> latency(2000, 100.0);
  s.p90_us = PercentileOf(latency, 90.0);
  s.lag_p50_us = 5.0;
  s.inflight_first_half = 2.0;
  s.inflight_second_half = 2.0;
  return s;
}

TEST(RungTest, EachConditionCanFailARung) {
  const double limit_us = 1000.0;
  EXPECT_TRUE(RungPasses(PassingRung(10000.0), limit_us));

  RungStats slow = PassingRung(10000.0);
  slow.p90_us.value = 1500.0;
  EXPECT_FALSE(RungPasses(slow, limit_us));

  RungStats failing = PassingRung(10000.0);
  failing.failed = 3;  // 0.15% > 0.1%
  EXPECT_FALSE(RungPasses(failing, limit_us));
  failing.failed = 2;  // exactly 0.1%
  EXPECT_TRUE(RungPasses(failing, limit_us));

  RungStats backlog = PassingRung(10000.0);  // 10 arrive within the limit
  backlog.inflight_second_half = 13.0;
  EXPECT_FALSE(BacklogGrew(backlog, limit_us));
  backlog.inflight_second_half = 14.0;
  EXPECT_TRUE(BacklogGrew(backlog, limit_us));
  EXPECT_FALSE(RungPasses(backlog, limit_us));

  RungStats thin = PassingRung(10000.0);
  thin.p90_us.supported = false;
  EXPECT_FALSE(RungPasses(thin, limit_us));
}

TEST(GeneratorTest, KeptUpWhileMedianLagIsWithinAQuarterGap) {
  RungStats s = PassingRung(10000.0);  // due every 100 us
  s.lag_p50_us = 25.0;
  EXPECT_TRUE(GeneratorKeptUp(s));
  s.lag_p50_us = 30.0;
  EXPECT_FALSE(GeneratorKeptUp(s));
  s.rate = 0.0;  // no rate, no schedule to keep
  s.lag_p50_us = 0.0;
  EXPECT_FALSE(GeneratorKeptUp(s));
}

/// Drives a ladder whose rungs pass exactly when `pass(step)` says so;
/// returns the best step (or -1000 for none) and the rungs run. A failing
/// rung runs 1 + kLadderRetries = 3 times before it counts.
std::pair<int, std::vector<int>> Search(const std::function<bool(int)>& pass) {
  LadderSearch ladder(1000.0, 1.05, -5, 20);
  std::vector<int> steps;
  while (!ladder.done()) {
    steps.push_back(ladder.step());
    ladder.Report(pass(ladder.step()));
  }
  return {ladder.best().value_or(-1000), steps};
}

TEST(LadderTest, ClimbsUntilTwoConsecutiveFailures) {
  const auto [best, steps] = Search([](int step) { return step <= 4; });
  EXPECT_EQ(best, 4);
  EXPECT_EQ(steps, (std::vector<int>{0, 1, 2, 3, 4, 5, 5, 5, 6, 6, 6}));
}

TEST(LadderTest, OneNoisyRungDoesNotEndTheSearch) {
  const auto [best, steps] =
      Search([](int step) { return step <= 6 && step != 3; });
  EXPECT_EQ(best, 6);
  EXPECT_EQ(steps, (std::vector<int>{0, 1, 2, 3, 3, 3, 4, 5, 6, 7, 7, 7, 8,
                                     8, 8}));
}

TEST(LadderTest, RetriesAFailingRungBeforeCountingIt) {
  // Rung 2 fails on its first two runs only (stalls), rungs above 3
  // always.
  int runs_of_2 = 0;
  const auto [best, steps] = Search([&](int step) {
    if (step == 2) return ++runs_of_2 > 2;
    return step <= 3;
  });
  EXPECT_EQ(best, 3);
  EXPECT_EQ(steps, (std::vector<int>{0, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5}));
}

TEST(LadderTest, DescendsWhenTheFirstRungFails) {
  const auto [best, steps] = Search([](int step) { return step <= -2; });
  EXPECT_EQ(best, -2);
  EXPECT_EQ(steps, (std::vector<int>{0, 0, 0, -1, -1, -1, -2}));
}

TEST(LadderTest, StopsAtTheEndsOfTheLadder) {
  const auto [none, failed_steps] = Search([](int) { return false; });
  EXPECT_EQ(none, -1000);
  EXPECT_EQ(failed_steps.size(), 18u);  // steps 0..-5, three runs each
  EXPECT_EQ(failed_steps.back(), -5);
  EXPECT_EQ(Search([](int) { return true; }).first, 20);
}

TEST(LadderTest, RatesAreGeometric) {
  LadderSearch ladder(1000.0, 1.05, -5, 5);
  EXPECT_DOUBLE_EQ(ladder.Rate(), 1000.0);
  ladder.Report(true);
  EXPECT_DOUBLE_EQ(ladder.Rate(), 1050.0);
}

}  // namespace
}  // namespace perfbench
