// Workload-independent helpers of the serving benchmark: the percentile
// rule, open-loop schedules, span self time, trace parsing and the
// metric/record plumbing every workload shares. Nothing here touches a
// socket or a gateway, so tests/harness_test.cpp covers it directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/histogram.h"
#include "support/seed.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// num / den, or 0 when there is nothing to divide by.
[[nodiscard]] inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

/// A failed or refused operation's latency: it misses every limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// The percentile actually reported for `wanted` over `n` samples: the
/// highest one that still leaves at least ten samples beyond it, capped
/// at `wanted`. Returns 0.5 when even the median lacks that support, so
/// tiny runs still report a median.
[[nodiscard]] double SupportedQuantile(std::size_t n, double wanted);

/// Nearest-rank quantile of `sorted` (ascending; +inf entries allowed).
/// `q` in (0, 1]. Empty input yields +inf.
[[nodiscard]] double NearestRank(const std::vector<double>& sorted, double q);

struct LatencySummary {
  std::size_t samples = 0;
  std::size_t failed = 0;  ///< +inf samples (failed or refused operations)
  double p50 = kFailedLatency;
  double p99 = kFailedLatency;
  double p99_quantile = 0.99;  ///< the quantile `p99` really is
};

/// Sorts `samples` in place and applies the percentile rule.
[[nodiscard]] LatencySummary Summarize(std::vector<double>& samples);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
[[nodiscard]] double Median(std::vector<double> values);

/// Completions over the time they took, summed over a run's phases.
struct Rate {
  double completions = 0;
  std::uint64_t span_ns = 0;

  /// `completions` from `first_ns` (an open loop's first due time, a
  /// closed loop's start) to the last completion at `last_ns`, both ns on
  /// one clock. An open loop whose stack falls behind drains its backlog
  /// late, so its span grows and its rate falls below the offered rate.
  [[nodiscard]] static Rate Between(double completions, std::uint64_t first_ns,
                                    std::uint64_t last_ns) {
    return {completions, last_ns > first_ns ? last_ns - first_ns : 0};
  }
  Rate& operator+=(const Rate& other) {
    completions += other.completions;
    span_ns += other.span_ns;
    return *this;
  }
  /// Completions per second; 0 over an empty span.
  [[nodiscard]] double PerSecond() const {
    return Ratio(completions * 1e9, static_cast<double>(span_ns));
  }
};

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

/// The p50 of each window of an open-loop phase `phase_ns` long: window k
/// holds the operations due in [k * window_ns, (k + 1) * window_ns), and
/// a trailing part shorter than a window joins the last whole one.
/// due_ns[i] is operation i's due time from the phase start and
/// latencies_us[i] its latency (+inf when it failed). Empty windows give
/// no entry. The run's p50_us is the median of these over all its
/// phases: the host's speed drifts, and a slow spell that covers less
/// than half the run then moves the figure little.
[[nodiscard]] std::vector<double> WindowP50s(
    const std::vector<std::uint64_t>& due_ns,
    const std::vector<double>& latencies_us, std::uint64_t window_ns,
    std::uint64_t phase_ns);

/// Completion rates of a closed loop over consecutive windows. The loop
/// calls Sample with the completions so far whenever it likes; each time
/// a window has passed, the completions since the previous boundary over
/// the time since it are kept. The part of the loop after the last
/// boundary is kept only when it is the whole loop (see Finish), so a
/// loop's draining tail does not count.
class WindowRates {
 public:
  WindowRates(std::uint64_t window_ns, std::uint64_t start_ns)
      : window_ns_(window_ns), boundary_ns_(start_ns) {}

  void Sample(std::uint64_t now_ns, std::uint64_t completed) {
    if (now_ns < boundary_ns_ + window_ns_) return;
    rates_.push_back(Ratio(static_cast<double>(completed - completed_) * 1e9,
                           static_cast<double>(now_ns - boundary_ns_)));
    boundary_ns_ = now_ns;
    completed_ = completed;
  }
  /// Ends the loop: when it was shorter than one window, keeps its only,
  /// partial window, so a short run still reports a rate.
  void Finish(std::uint64_t now_ns, std::uint64_t completed) {
    if (rates_.empty() && now_ns > boundary_ns_) {
      rates_.push_back(
          Ratio(static_cast<double>(completed - completed_) * 1e9,
                static_cast<double>(now_ns - boundary_ns_)));
    }
  }
  /// The first boundary still to come.
  [[nodiscard]] std::uint64_t next_ns() const {
    return boundary_ns_ + window_ns_;
  }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }

 private:
  std::uint64_t window_ns_;
  std::uint64_t boundary_ns_;
  std::uint64_t completed_ = 0;
  std::vector<double> rates_;
};

/// Quantile of a gateway latency histogram, interpolated linearly inside
/// the bucket the rank falls in (the buckets are 12.5% wide; reporting
/// their upper bounds would read identically across runs). 0 when empty.
[[nodiscard]] double HistogramQuantile(
    mobivine::support::HistogramSnapshot snapshot, double q);

// ---------------------------------------------------------------------------
// Open-loop schedules
// ---------------------------------------------------------------------------

/// Due times (ns from phase start) of a Poisson arrival process at
/// `rate_per_s` over `seconds`, drawn from `seq`'s stream. The same
/// sequence always yields the same schedule.
[[nodiscard]] std::vector<std::uint64_t> PoissonSchedule(
    const mobivine::support::SeedSequence& seq, double rate_per_s,
    double seconds);

/// Order-sensitive 64-bit digest of a schedule's due times and content
/// words, printed with every record so a seed's schedule can be compared
/// across runs and hosts.
class Digest {
 public:
  void Add(std::uint64_t word) {
    state_ = mobivine::support::Mix64(state_ ^ word);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t state_ = 0x5ca1ab1eull;
};

// ---------------------------------------------------------------------------
// Spans and self time
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t tid = 0;
  double start_us = 0;
  double dur_us = 0;
};

/// Complete ("X") events of a support::trace Chrome export. Instants and
/// metadata are skipped. False when the text is not such an export.
[[nodiscard]] bool ParseChromeTrace(std::string_view json,
                                    std::vector<SpanRecord>* spans);

/// Self time of every span, by span name. On each thread a span's parent
/// is the innermost span that contains it; a span's self time is its
/// duration minus the union of its children's intervals (children may
/// overlap one another). Spans named in `async_names` are intervals that
/// began on another thread (queue waits): they neither nest nor are
/// nested, and their self time is their whole duration.
[[nodiscard]] std::map<std::string, std::vector<double>> SelfTimes(
    std::vector<SpanRecord> spans,
    const std::vector<std::string>& async_names);

/// A stage's typical cost per operation: the interquartile mean of its
/// spans' self times (the mean of the middle half) times the spans per
/// operation. A stage entered once per operation reads as its typical
/// span; one entered once per batch (a socket read) is spread over the
/// batch. The middle half, so a few stalled spans do not stand for the
/// typical operation whose latency is the p50.
[[nodiscard]] double TypicalPerOp(std::vector<double> self_times,
                                  std::size_t ops);

// ---------------------------------------------------------------------------
// Metrics and records
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// JSON number text with full precision; non-finite values (which JSON
/// cannot carry) are written as null.
[[nodiscard]] std::string JsonNumber(double value);
[[nodiscard]] std::string JsonString(std::string_view text);

/// {"name": {"value": v, "unit": "u"}, ...}
[[nodiscard]] std::string MetricsJson(const MetricMap& metrics);

}  // namespace perfbench
