// Unit tests of the benchmark's own measurement helpers (stats.h).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99.0);  // rank 990, 10 beyond
  EXPECT_EQ(tail_percentile(999), 95.0);   // p99 would leave 9
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  for (std::size_t n = 20; n < 3000; ++n) {
    const double p = tail_percentile(n);
    const auto s = summarize(one_to(n));
    // Samples 1..n: the value equals its rank; count those strictly above.
    EXPECT_GE(static_cast<double>(n) - s.tail, 10.0) << n;
    EXPECT_EQ(s.tail_pct, p);
  }
}

TEST(Summarize, NearestRankMedianAndTail) {
  const auto s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(Summarize, FailuresMissEveryLimit) {
  auto v = one_to(1000);
  for (int i = 0; i < 11; ++i) v[i] = std::numeric_limits<double>::infinity();
  const auto s = summarize(v);
  EXPECT_TRUE(std::isinf(s.tail));  // 11 failures > the 10 beyond p99
  v[0] = 1.0;
  EXPECT_FALSE(std::isinf(summarize(v).tail));  // 10 failures: just fits
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span make(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // child 2 has its own child [25,35), clipped to [25,30).
  const std::vector<Span> spans = {
      make(1, 0, 0, 100), make(2, 1, 10, 30), make(3, 1, 20, 50),
      make(4, 2, 25, 35)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 15);  // [10,30) minus [25,30), the child clipped
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, ClipsChildrenToParentAndIgnoresOrphans) {
  const std::vector<Span> spans = {make(5, 0, 100, 200), make(6, 5, 150, 260),
                                   make(7, 99, 0, 10)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 110);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, LayerSelfTimesSumToRoot) {
  std::vector<Span> spans = {make(1, 0, 0, 1000)};
  std::uint64_t id = 2;
  for (std::int64_t t = 0; t < 1000; t += 100) {
    spans.push_back(make(id, 1, t, t + 90));
    spans.push_back(make(id + 1, id, t + 10, t + 40));
    id += 2;
  }
  const auto self = self_times(spans);
  std::int64_t sum = 0;
  for (const auto s : self) sum += s;
  EXPECT_EQ(sum, 1000);
}

TEST(ScopedSpan, RecordsNestingAndInertWithoutLog) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner", outer.id(), 42);
  }
  { ScopedSpan none(nullptr, "ignored"); }
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].request, 42u);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
}

RequestSample sample(double due, double sent, double done, bool ok = true) {
  RequestSample s;
  s.due_ms = due;
  s.sent_ms = sent;
  s.done_ms = done;
  s.ok = ok;
  return s;
}

TEST(Lateness, TimedFromDueTime) {
  const auto s = sample(10.0, 15.0, 18.0);
  EXPECT_DOUBLE_EQ(s.lateness_ms(), 5.0);
  EXPECT_DOUBLE_EQ(s.latency_ms(), 8.0);  // includes the 5 ms of lateness
  EXPECT_DOUBLE_EQ(sample(10.0, 9.5, 12.0).lateness_ms(), 0.0);
  EXPECT_TRUE(std::isinf(sample(0, 0, 1, false).latency_ms()));
  EXPECT_DOUBLE_EQ(due_ms(250, 100.0), 2500.0);
}

std::vector<RequestSample> steady(std::size_t n, double rate, double service,
                                  double late_growth_per_req = 0.0) {
  std::vector<RequestSample> v;
  for (std::size_t k = 0; k < n; ++k) {
    const double due = due_ms(k, rate);
    const double late = late_growth_per_req * static_cast<double>(k);
    v.push_back(sample(due, due + late, due + late + service));
  }
  return v;
}

TEST(Backlog, FlatLatenessIsNoBacklog) {
  EXPECT_NEAR(lateness_growth_ms(steady(1000, 100, 5)), 0.0, 1e-9);
  // Lateness growing 0.05 ms per request: ~37.5 ms over 1000 requests.
  const double g = lateness_growth_ms(steady(1000, 100, 5, 0.05));
  EXPECT_NEAR(g, 37.5, 0.1);
}

TEST(JudgeStep, PassesFailsOnTailFailuresAndBacklog) {
  const auto ok = judge_step({steady(1000, 100, 5)}, 100, 50, 0.002, 10);
  EXPECT_TRUE(ok.passed);
  EXPECT_EQ(ok.latency.tail_pct, 99.0);
  EXPECT_NEAR(ok.achieved_rps, 100.0, 0.6);

  EXPECT_FALSE(judge_step({steady(1000, 100, 60)}, 100, 50, 0.002, 10).passed);

  auto some_fail = steady(1000, 100, 5);
  for (const std::size_t i : {0, 7, 14}) some_fail[i].ok = false;
  const auto f = judge_step({some_fail}, 100, 50, 0.002, 10);
  EXPECT_EQ(f.failed, 3u);
  EXPECT_FALSE(f.passed);  // 0.3% > 0.2%, though p99 still meets the limit

  const auto b = judge_step({steady(1000, 100, 1, 0.03)}, 100, 50, 0.002, 10);
  EXPECT_TRUE(b.backlog);  // 22.5 ms growth
  EXPECT_FALSE(b.passed);
}

TEST(JudgeStep, PoolsPartsOfOneRate) {
  // Four 250-request parts at 100 req/s: the tail pools to p99 over 1000,
  // the achieved rate ignores the gaps between parts, and one part with a
  // growing backlog fails the rate.
  std::vector<std::vector<RequestSample>> parts(4, steady(250, 100, 5));
  const auto v = judge_step(parts, 100, 50, 0.002, 10);
  EXPECT_EQ(v.latency.n, 1000u);
  EXPECT_EQ(v.latency.tail_pct, 99.0);
  EXPECT_NEAR(v.achieved_rps, 100.0, 2.0);
  EXPECT_TRUE(v.passed);
  parts[2] = steady(250, 100, 1, 0.2);  // 37.5 ms growth within the part
  EXPECT_FALSE(judge_step(parts, 100, 50, 0.002, 10).passed);
}

TEST(Ladder, HighestPassingStepBeforeFirstFailure) {
  StepVerdict a, b, c, d;
  a.passed = true;
  a.achieved_rps = 99.5;
  b.passed = true;
  b.achieved_rps = 199.0;
  c.passed = false;
  c.achieved_rps = 280.0;
  d.passed = true;  // above a failing step: not counted
  d.achieved_rps = 440.0;
  EXPECT_EQ(max_passing_rps({a, b, c, d}), 199.0);
  EXPECT_EQ(max_passing_rps({c, a}), 0.0);
  EXPECT_EQ(max_passing_rps({}), 0.0);
}

}  // namespace
}  // namespace perfbench
