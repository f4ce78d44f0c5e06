// Tests of the benchmark's own helpers: percentiles with their sample
// counts, per-frame medians over repetitions, pinning to one CPU, span self
// time, frame accounting against frames timed from outside, and metric-name
// validity.
// Built as perfbench_selftest; run.py runs it after every build.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span span(std::uint32_t id, std::uint32_t parent, double start, double end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(Percentile, InterpolatesAndCountsTheTail) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, shuffled order is irrelevant
  std::swap(v[3], v[97]);

  const Percentile p50 = percentile(v, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p99 = percentile(v, 99.0);
  EXPECT_DOUBLE_EQ(p99.value, 99.01);
  EXPECT_EQ(p99.beyond, 1u);  // too thin a tail to trust: fewer than ten

  std::vector<double> big(2000);
  std::iota(big.begin(), big.end(), 0.0);
  EXPECT_GE(percentile(big, 99.0).beyond, 10u);
}

TEST(Percentile, EdgeCases) {
  EXPECT_EQ(percentile({}, 50.0).samples, 0u);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0).value, 0.0);
  const Percentile one = percentile({7.0}, 99.0);
  EXPECT_DOUBLE_EQ(one.value, 7.0);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 100.0).value, 2.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, PerFrameMedianOverRepetitions) {
  const std::vector<double> m =
      per_frame_median({{1.0, 10.0, 5.0}, {3.0, 30.0, 5.0}, {2.0, 90.0, 4.0}});
  EXPECT_EQ(m, (std::vector<double>{2.0, 30.0, 5.0}));
  // Two repetitions: the median is their mean.
  EXPECT_EQ(per_frame_median({{1.0, 4.0}, {3.0, 8.0}}),
            (std::vector<double>{2.0, 6.0}));
  EXPECT_TRUE(per_frame_median({}).empty());
  EXPECT_TRUE(per_frame_median({{1.0, 2.0}, {1.0}}).empty());
}

TEST(PinToOneCpu, PinsThenRestores) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    const PinToOneCpu pin;
    ASSERT_GE(pin.cpu(), 0);
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    EXPECT_TRUE(CPU_ISSET(pin.cpu(), &now));
  }
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0,10]; children [1,3] and [2,5] overlap, [8,12] sticks out.
  const std::vector<Span> spans{span(1, 0, 0, 10), span(2, 1, 1, 3),
                                span(3, 1, 2, 5), span(4, 1, 8, 12),
                                span(5, 2, 1.5, 2.5)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));  // covered [1,5] + [8,10]
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);           // grandchild inside
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, TotalsByName) {
  const std::vector<Span> spans{span(1, 0, 0, 20), span(2, 1, 1, 9),
                                span(3, 2, 2, 4), span(4, 2, 5, 8),
                                span(5, 1, 10, 19), span(6, 0, 25, 30)};
  TotalsByName totals;
  accumulate(spans, totals);
  EXPECT_EQ(totals["x"].count, 6u);
  EXPECT_DOUBLE_EQ(totals["x"].total_ms, (20 + 8 + 2 + 3 + 9 + 5) / 1000.0);
  EXPECT_DOUBLE_EQ(totals["x"].self_ms, (20 + 5) / 1000.0);
}

TEST(FrameAccounting, SpansThatCoverTheFrameAgreeWithIt) {
  // Two frames timed from outside; each holds a root span (1 us of timer
  // slack on each side) with nested children. A span enclosing both frames
  // (a mission) and one between them lie outside every frame.
  const std::vector<Span> spans{span(1, 0, 0, 100),  span(2, 1, 11, 29),
                                span(3, 2, 12, 20),  span(4, 2, 21, 28),
                                span(5, 1, 30, 40),  span(6, 1, 51, 69),
                                span(7, 6, 52, 60)};
  const FrameAccounting a =
      account_frames(spans, {{10, 30}, {50, 70}}, /*tolerance_us_per_span=*/1.0);
  EXPECT_EQ(a.frames, 2u);
  EXPECT_EQ(a.spans, 5u);
  EXPECT_EQ(a.over, 0u);
  EXPECT_EQ(a.negative, 0u);
  EXPECT_EQ(a.straddling, 0u);
  EXPECT_DOUBLE_EQ(a.frame_ms, 40 / 1000.0);
  EXPECT_DOUBLE_EQ(a.residual_ms, 4 / 1000.0);  // 2 us of slack per frame
  EXPECT_DOUBLE_EQ(a.worst_residual_us, 2.0);
}

TEST(FrameAccounting, FlagsTimeTheSpansMiss) {
  // The frame took 50 us, its spans only 20: work no span covers.
  const std::vector<Span> spans{span(1, 0, 5, 15), span(2, 0, 30, 40)};
  const FrameAccounting a = account_frames(spans, {{0, 50}}, 1.0);
  EXPECT_EQ(a.spans, 2u);
  EXPECT_EQ(a.over, 1u);
  EXPECT_DOUBLE_EQ(a.worst_residual_us, 30.0);
  // The same residual is within a tracing cost of 10 us per span.
  EXPECT_EQ(account_frames(spans, {{0, 50}}, 10.0).over, 0u);
}

TEST(FrameAccounting, FlagsSpansThatExceedOrCrossTheFrame) {
  // Overlapping siblings claim more time than the frame took.
  const std::vector<Span> overlap{span(1, 0, 0, 6), span(2, 0, 4, 10)};
  EXPECT_EQ(account_frames(overlap, {{0, 10}}, 1.0).negative, 1u);
  // A span that starts before the frame and ends inside it, and one that
  // starts inside and ends after it.
  const std::vector<Span> crossing{span(1, 0, 0, 15), span(2, 0, 25, 40)};
  const FrameAccounting a = account_frames(crossing, {{10, 30}}, 1.0);
  EXPECT_EQ(a.straddling, 2u);
  EXPECT_EQ(a.spans, 0u);
}

TEST(Tracer, NestsByCallOrderAndSharesTheGroup) {
  Tracer t;
  t.set_group(42);
  {
    Scope outer(&t, "outer");
    { Scope inner(&t, "inner"); }
    { Scope inner(&t, "inner"); }
  }
  { Scope untraced(nullptr, "ignored"); }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, 0u);
  EXPECT_EQ(t.spans()[1].parent, 1u);
  EXPECT_EQ(t.spans()[2].parent, 1u);
  for (const Span& s : t.spans()) {
    EXPECT_EQ(s.group, 42u);
    EXPECT_LE(s.start_us, s.end_us);
  }
}

TEST(Tracer, RecordsClosedSpansUnderTheOpenOne) {
  Tracer t(16);
  {
    Scope outer(&t, "outer");
    t.record("between", 1.0, 2.0);
  }
  t.record("root", 3.0, 4.0);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 1u);
  EXPECT_DOUBLE_EQ(t.spans()[1].end_us, 2.0);
  EXPECT_EQ(t.spans()[2].parent, 0u);
}

TEST(Tracer, AccountsForAFrameTimedAroundIt) {
  Tracer t;
  const double t0 = now_us();
  {
    Scope frame(&t, "frame");
    { Scope inner(&t, "inner"); }
  }
  const double t1 = now_us();
  const double cost = calibrate_span_cost_us(1000);
  EXPECT_GT(cost, 0.0);
  const FrameAccounting a = account_frames(t.spans(), {{t0, t1}}, 1e6);
  EXPECT_EQ(a.spans, 2u);
  EXPECT_EQ(a.negative, 0u);
  EXPECT_EQ(a.straddling, 0u);
  EXPECT_GE(a.worst_residual_us, 0.0);
}

TEST(MetricName, AcceptsTheContractAlphabetOnly) {
  EXPECT_TRUE(valid_metric_name("frame_p50_ms"));
  EXPECT_TRUE(valid_metric_name("co.trajopt_ms"));
  EXPECT_TRUE(valid_metric_name("mission-traffic.2"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/unit"));
  EXPECT_FALSE(valid_metric_name("percent%"));
}

}  // namespace
}  // namespace perfbench
