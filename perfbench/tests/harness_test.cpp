// Tests of the benchmark's own helpers: the percentile rule, span self
// time, trace parsing, schedule determinism and the response checks.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "mix.h"

namespace perfbench {
namespace {

using mobivine::support::SeedSequence;

// ---- percentile rule -------------------------------------------------------

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  // 1000 samples: 1% is exactly ten, so p99 is supported.
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  // 200 samples: the highest supported quantile is 1 - 10/200 = 0.95.
  EXPECT_DOUBLE_EQ(SupportedQuantile(200, 0.99), 0.95);
  // 500 samples: 0.98 leaves exactly ten beyond it.
  EXPECT_DOUBLE_EQ(SupportedQuantile(500, 0.99), 0.98);
  // Never above the quantile asked for.
  EXPECT_DOUBLE_EQ(SupportedQuantile(1'000'000, 0.99), 0.99);
  // Too few samples for anything above the median.
  EXPECT_DOUBLE_EQ(SupportedQuantile(10, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(19, 0.99), 0.5);
}

TEST(PercentileRule, LeavesAtLeastTenSamplesAbove) {
  for (std::size_t n : {20u, 37u, 100u, 999u, 1000u, 1001u, 4321u}) {
    std::vector<double> samples;
    for (std::size_t i = 1; i <= n; ++i) samples.push_back(double(i));
    const LatencySummary summary = Summarize(samples);
    std::size_t beyond = 0;
    for (double v : samples) beyond += v > summary.p99;
    EXPECT_GE(beyond, 10u) << n;
    EXPECT_LE(summary.p99_quantile, 0.99);
  }
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 0.5), 50);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 0.99), 99);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 1.0), 100);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 0.001), 1);
  EXPECT_TRUE(std::isinf(NearestRank({}, 0.5)));
}

TEST(PercentileRule, FailedOperationsCountAsInfinite) {
  std::vector<double> samples(2000, 100.0);
  for (int i = 0; i < 30; ++i) samples[i] = kFailedLatency;
  const LatencySummary summary = Summarize(samples);
  EXPECT_EQ(summary.failed, 30u);
  EXPECT_DOUBLE_EQ(summary.p50, 100.0);
  // 30 failures are 1.5% of the samples: p99 lands on one of them.
  EXPECT_TRUE(std::isinf(summary.p99));
}

TEST(PercentileRule, Median) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Goodput, LateDrainLowersTheRate) {
  // 10,000 operations due over one second from t = 5 s.
  const std::uint64_t first_due = 5'000'000'000;
  const Rate on_time =
      Rate::Between(10'000, first_due, first_due + 1'000'000'000);
  EXPECT_DOUBLE_EQ(on_time.PerSecond(), 10'000);
  // The same operations, but the backlog drains two seconds late.
  const Rate late =
      Rate::Between(10'000, first_due, first_due + 3'000'000'000);
  EXPECT_LT(late.PerSecond(), on_time.PerSecond() / 2);
  EXPECT_DOUBLE_EQ(Rate::Between(5, first_due, first_due).PerSecond(), 0);
}

TEST(Goodput, PhasesAddUpOverTheirSpans) {
  Rate total = Rate::Between(1000, 0, 1'000'000'000);
  total += Rate::Between(3000, 7'000'000'000, 8'000'000'000);
  EXPECT_DOUBLE_EQ(total.PerSecond(), 2000);
}

TEST(Windows, P50PerWindowByDueTime) {
  // Two 1-second windows: the first fast, the second slow.
  std::vector<std::uint64_t> due;
  std::vector<double> latency;
  for (std::uint64_t i = 0; i < 100; ++i) {
    due.push_back(i * 20'000'000);  // 50 per second over 2 s
    latency.push_back(i < 50 ? 10.0 + static_cast<double>(i % 5) : 1000.0);
  }
  const std::vector<double> p50s =
      WindowP50s(due, latency, 1'000'000'000, 2'000'000'000);
  ASSERT_EQ(p50s.size(), 2u);
  EXPECT_DOUBLE_EQ(p50s[0], 12.0);
  EXPECT_DOUBLE_EQ(p50s[1], 1000.0);
}

TEST(Windows, TrailingPartJoinsTheLastWindowAndEmptyOnesAreSkipped) {
  // 2.5 s phase, 1 s windows: two windows, the second holding [1, 2.5).
  const std::vector<std::uint64_t> due = {100, 1'200'000'000, 2'400'000'000};
  const std::vector<double> latency = {5, 7, kFailedLatency};
  const std::vector<double> p50s =
      WindowP50s(due, latency, 1'000'000'000, 2'500'000'000);
  ASSERT_EQ(p50s.size(), 2u);
  EXPECT_DOUBLE_EQ(p50s[0], 5.0);
  EXPECT_DOUBLE_EQ(p50s[1], 7.0);  // nearest rank 1 of {7, +inf}
  // Nothing due in the first of three windows: it gives no entry.
  EXPECT_EQ(WindowP50s({1'500'000'000}, {3}, 1'000'000'000, 3'000'000'000)
                .size(),
            1u);
}

TEST(Windows, SlowSpellUnderHalfTheRunBarelyMovesTheMedian) {
  // Eight windows at 100 us, three during a slow spell at 5 ms.
  std::vector<double> p50s(8, 100.0);
  p50s.insert(p50s.end(), 3, 5000.0);
  EXPECT_DOUBLE_EQ(Median(p50s), 100.0);
  // Most of the run slow: the figure is slow.
  std::vector<double> slow(8, 5000.0);
  slow.insert(slow.end(), 3, 100.0);
  EXPECT_DOUBLE_EQ(Median(slow), 5000.0);
}

TEST(Windows, RatesPerWindowDropTheUnfinishedTail) {
  WindowRates rates(250'000'000, 1'000'000'000);
  rates.Sample(1'100'000'000, 10);     // inside the first window
  rates.Sample(1'250'000'000, 250);    // 250 in 0.25 s
  EXPECT_EQ(rates.next_ns(), 1'500'000'000u);
  rates.Sample(1'550'000'000, 400);    // 150 in 0.3 s
  rates.Sample(1'700'000'000, 10'000);  // tail after the last boundary
  ASSERT_EQ(rates.rates().size(), 2u);
  EXPECT_DOUBLE_EQ(rates.rates()[0], 1000.0);
  EXPECT_DOUBLE_EQ(rates.rates()[1], 500.0);
  rates.Finish(1'800'000'000, 20'000);  // windows were kept: no effect
  EXPECT_EQ(rates.rates().size(), 2u);
}

TEST(Windows, LoopShorterThanAWindowKeepsItsPartialRate) {
  WindowRates rates(250'000'000, 0);
  rates.Sample(100'000'000, 50);
  rates.Finish(200'000'000, 100);
  ASSERT_EQ(rates.rates().size(), 1u);
  EXPECT_DOUBLE_EQ(rates.rates()[0], 500.0);
}

TEST(PercentileRule, HistogramQuantileInterpolatesInsideBuckets) {
  mobivine::support::LatencyHistogram histogram;
  for (std::uint64_t v = 1000; v < 2000; ++v) histogram.Record(v);
  const auto snapshot = histogram.Snapshot();
  const double p50 = HistogramQuantile(snapshot, 0.5);
  EXPECT_GT(p50, 1300);
  EXPECT_LT(p50, 1700);
  EXPECT_LT(HistogramQuantile(snapshot, 0.1), HistogramQuantile(snapshot, 0.2));
  EXPECT_EQ(HistogramQuantile(mobivine::support::HistogramSnapshot(), 0.5), 0);
}

// ---- self time --------------------------------------------------------------

SpanRecord S(const char* name, std::int64_t tid, double start, double dur) {
  return SpanRecord{name, tid, start, dur};
}

/// Total self time per span name.
std::map<std::string, double> SelfTimeByName(
    std::vector<SpanRecord> spans, const std::vector<std::string>& async) {
  std::map<std::string, double> total;
  for (const auto& [name, times] : SelfTimes(std::move(spans), async)) {
    for (double t : times) total[name] += t;
  }
  return total;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  // a [0,100] > b [10,60] > c [20,30]
  const auto self = SelfTimeByName(
      {S("a", 1, 0, 100), S("b", 1, 10, 50), S("c", 1, 20, 10)}, {});
  EXPECT_DOUBLE_EQ(self.at("a"), 50);
  EXPECT_DOUBLE_EQ(self.at("b"), 40);
  EXPECT_DOUBLE_EQ(self.at("c"), 10);
}

TEST(SelfTime, OverlappingChildrenAreSubtractedOnce) {
  // Two children of a that overlap each other in [30,40]: a loses the
  // union [20,50] (30), not 20 + 20.
  const auto self = SelfTimeByName(
      {S("a", 1, 0, 100), S("b", 1, 20, 20), S("c", 1, 30, 20)}, {});
  EXPECT_DOUBLE_EQ(self.at("a"), 70);
  EXPECT_DOUBLE_EQ(self.at("b"), 20);  // c is not inside b: b keeps it all
  EXPECT_DOUBLE_EQ(self.at("c"), 20);
}

TEST(SelfTime, PartialOverlapIsNotNesting) {
  // x [0,50] and y [40,90] overlap without containment: neither is the
  // other's child, and z [45,48] belongs to the innermost container, y.
  const auto self = SelfTimeByName(
      {S("x", 1, 0, 50), S("y", 1, 40, 50), S("z", 1, 45, 3)}, {});
  EXPECT_DOUBLE_EQ(self.at("x"), 50);
  EXPECT_DOUBLE_EQ(self.at("y"), 47);
  EXPECT_DOUBLE_EQ(self.at("z"), 3);
}

TEST(SelfTime, ThreadsDoNotNestIntoEachOther) {
  const auto self =
      SelfTimeByName({S("a", 1, 0, 100), S("b", 2, 10, 50)}, {});
  EXPECT_DOUBLE_EQ(self.at("a"), 100);
  EXPECT_DOUBLE_EQ(self.at("b"), 50);
}

TEST(SelfTime, AsyncSpansNeitherNestNorContain) {
  // A queue wait recorded on the worker spans earlier serve spans of the
  // same thread; it must not swallow them, nor be swallowed.
  const auto self = SelfTimeByName({S("wait", 1, 0, 100), S("serve", 1, 10, 20),
                                    S("serve", 1, 95, 20)},
                                   {"wait"});
  EXPECT_DOUBLE_EQ(self.at("wait"), 100);
  EXPECT_DOUBLE_EQ(self.at("serve"), 40);
}

TEST(SelfTime, SequentialSpansKeepTheirWholeDuration) {
  const auto self = SelfTimeByName(
      {S("a", 1, 0, 10), S("a", 1, 10, 10), S("b", 1, 25, 5)}, {});
  EXPECT_DOUBLE_EQ(self.at("a"), 20);
  EXPECT_DOUBLE_EQ(self.at("b"), 5);
}

TEST(SelfTime, TypicalPerOpUsesTheMiddleHalf) {
  // Stalled spans do not stand for the typical operation: the middle
  // half of {1..7, 1000} is {3, 4, 5, 6}.
  EXPECT_DOUBLE_EQ(TypicalPerOp({1000, 2, 3, 1, 4, 5, 6, 7}, 8), 4.5);
  // Two batch spans of 8 us each carried eight operations.
  EXPECT_DOUBLE_EQ(TypicalPerOp({8, 8}, 8), 2);
  EXPECT_DOUBLE_EQ(TypicalPerOp({}, 8), 0);
}

// ---- trace parsing ----------------------------------------------------------

TEST(ChromeTrace, ParsesCompleteEventsAndSkipsTheRest) {
  const std::string json =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"w"}},)"
      R"({"ph":"X","pid":1,"tid":3,"ts":12.5,"dur":4.2,"name":"wire.read","args":{}},)"
      R"({"ph":"i","pid":1,"tid":3,"ts":13.0,"s":"t","name":"push.publish","args":{}},)"
      R"({"ph":"X","pid":1,"tid":4,"ts":0.0,"dur":1.0,"name":"gateway.serve","args":{"shard":1,"virt_start_us":5,"virt_dur_us":2}}]})";
  std::vector<SpanRecord> spans;
  ASSERT_TRUE(ParseChromeTrace(json, &spans));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "wire.read");
  EXPECT_EQ(spans[0].tid, 3);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 12.5);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 4.2);
  EXPECT_EQ(spans[1].name, "gateway.serve");
  EXPECT_FALSE(ParseChromeTrace("{}", &spans));
}

// ---- schedules --------------------------------------------------------------

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(SeedSequence(7).Fork("open"), 1000, 2.0);
  const auto b = PoissonSchedule(SeedSequence(7).Fork("open"), 1000, 2.0);
  const auto c = PoissonSchedule(SeedSequence(8).Fork("open"), 1000, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  Digest da, db;
  for (auto d : a) da.Add(d);
  for (auto d : b) db.Add(d);
  EXPECT_EQ(da.Hex(), db.Hex());
}

TEST(Schedule, PoissonRateAndOrder) {
  const auto due = PoissonSchedule(SeedSequence(3), 5000, 4.0);
  // 20000 expected arrivals; five standard deviations is ~700.
  EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 700.0);
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LE(due[i - 1], due[i]);
  EXPECT_LT(due.back(), 4'000'000'000ull);
}

TEST(Schedule, MixesAreDeterministic) {
  RequestMix a(SeedSequence(11), 64), b(SeedSequence(11), 64);
  ScriptMix sa(SeedSequence(11), 64, 0.1), sb(SeedSequence(11), 64, 0.1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(RequestMix::Word(a.Next()), RequestMix::Word(b.Next()));
    EXPECT_EQ(ScriptMix::Word(sa.Next()), ScriptMix::Word(sb.Next()));
  }
}

// ---- checks -----------------------------------------------------------------

TEST(Checks, RequestMixCoversEveryOpAndAQuarterCarryProperties) {
  RequestMix mix(SeedSequence(5), 64);
  int with_property = 0;
  std::set<int> ops;
  std::set<int> platforms;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const RequestSpec spec = mix.Next();
    ops.insert(static_cast<int>(spec.op));
    platforms.insert(static_cast<int>(spec.platform));
    with_property += spec.property != 0;
    if (spec.op != mobivine::gateway::Op::kGetLocation) {
      EXPECT_GE(spec.payload_size, 16u);
      EXPECT_LE(spec.payload_size, 1024u);
    }
  }
  EXPECT_EQ(ops.size(), 5u);
  EXPECT_EQ(platforms.size(), 3u);
  EXPECT_NEAR(with_property / double(n), 0.25, 0.02);
}

TEST(Checks, ExpectedResponses) {
  RequestMix mix(SeedSequence(5), 64);
  for (int i = 0; i < 200; ++i) {
    const RequestSpec spec = mix.Next();
    switch (spec.op) {
      case mobivine::gateway::Op::kHttpGet:
        EXPECT_EQ(mix.Check(spec, "pong"), "");
        EXPECT_NE(mix.Check(spec, "ping"), "");
        break;
      case mobivine::gateway::Op::kHttpPost:
        EXPECT_EQ(mix.Check(spec, mix.Payload(spec)), "");
        break;
      case mobivine::gateway::Op::kSendSms:
        EXPECT_EQ(mix.Check(spec, "17"), "");
        EXPECT_NE(mix.Check(spec, "-1"), "");
        break;
      case mobivine::gateway::Op::kSegmentCount: {
        const std::size_t n = spec.payload_size;
        EXPECT_EQ(mix.Check(spec, std::to_string((n + 159) / 160)), "");
        break;
      }
      case mobivine::gateway::Op::kGetLocation:
        EXPECT_EQ(mix.Check(spec, "28.524500,77.185500"), "");
        break;
    }
  }
}

TEST(Checks, EventBodiesRoundTrip) {
  std::uint64_t seq = 0;
  const std::string body = EventBody(42, 100);
  ASSERT_TRUE(ParseEventBody(body, &seq));
  EXPECT_EQ(seq, 42u);
  std::string corrupt = body;
  corrupt.back() = '#';
  EXPECT_FALSE(ParseEventBody(corrupt, &seq));
  EXPECT_FALSE(ParseEventBody("nonsense", &seq));
}

}  // namespace
}  // namespace perfbench
