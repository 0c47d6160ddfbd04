#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

double SupportedQuantile(std::size_t n, double wanted) {
  // Ten samples beyond quantile q need n * (1 - q) >= 10.
  if (n < 20) return 0.5;
  const double highest = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, highest));
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kFailedLatency;
  const double n = static_cast<double>(sorted.size());
  // Rank ceil(q * n), computed with a little slack so that q * n landing
  // on an integer is not pushed one rank up by rounding.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary summary;
  summary.samples = samples.size();
  summary.failed = static_cast<std::size_t>(
      std::count(samples.begin(), samples.end(), kFailedLatency));
  summary.p50 = NearestRank(samples, 0.5);
  summary.p99_quantile = SupportedQuantile(samples.size(), 0.99);
  summary.p99 = NearestRank(samples, summary.p99_quantile);
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

std::vector<double> WindowP50s(const std::vector<std::uint64_t>& due_ns,
                               const std::vector<double>& latencies_us,
                               std::uint64_t window_ns,
                               std::uint64_t phase_ns) {
  const std::uint64_t count =
      window_ns == 0 ? 1 : std::max<std::uint64_t>(1, phase_ns / window_ns);
  std::vector<std::vector<double>> windows(count);
  for (std::size_t i = 0; i < due_ns.size() && i < latencies_us.size(); ++i) {
    const std::uint64_t k = window_ns == 0 ? 0 : due_ns[i] / window_ns;
    windows[std::min(k, count - 1)].push_back(latencies_us[i]);
  }
  std::vector<double> p50s;
  for (std::vector<double>& window : windows) {
    if (window.empty()) continue;
    std::sort(window.begin(), window.end());
    p50s.push_back(NearestRank(window, 0.5));
  }
  return p50s;
}

double HistogramQuantile(mobivine::support::HistogramSnapshot snapshot,
                         double q) {
  namespace hd = mobivine::support::histogram_detail;
  const std::vector<std::uint64_t>& counts = snapshot.counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = seen + static_cast<double>(counts[i]);
    if (next >= rank) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(hd::BucketUpperBound(i - 1)) + 1;
      const double upper = static_cast<double>(hd::BucketUpperBound(i)) + 1;
      const double fraction = (rank - seen) / static_cast<double>(counts[i]);
      return lower + fraction * (upper - lower);
    }
    seen = next;
  }
  return static_cast<double>(hd::BucketUpperBound(counts.size() - 1));
}

std::vector<std::uint64_t> PoissonSchedule(
    const mobivine::support::SeedSequence& seq, double rate_per_s,
    double seconds) {
  std::vector<std::uint64_t> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  mobivine::support::SplitMix64 rng = seq.stream();
  const double end_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0;
  while (true) {
    // Exponential gap by inversion; 1 - u is in (0, 1], so the log is
    // finite.
    t += -std::log(1.0 - rng.NextUnit()) * mean_gap_ns;
    if (t >= end_ns) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

// ---------------------------------------------------------------------------
// Chrome trace parsing
// ---------------------------------------------------------------------------

namespace {

/// Value text following `"key":` inside [pos, limit), or npos.
std::size_t FindField(std::string_view json, std::size_t pos,
                      std::size_t limit, std::string_view key) {
  const std::size_t at = json.find(key, pos);
  if (at == std::string_view::npos || at >= limit) return std::string_view::npos;
  return at + key.size();
}

double ParseNumber(std::string_view json, std::size_t pos) {
  // The exporter writes plain decimals; strtod stops at the delimiter.
  std::string text(json.substr(pos, 32));
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace

bool ParseChromeTrace(std::string_view json, std::vector<SpanRecord>* spans) {
  if (json.find("\"traceEvents\":[") == std::string_view::npos) return false;
  constexpr std::string_view kEventStart = "{\"ph\":\"";
  std::size_t pos = json.find(kEventStart);
  while (pos != std::string_view::npos) {
    const std::size_t next = json.find(kEventStart, pos + 1);
    const std::size_t limit = next == std::string_view::npos ? json.size() : next;
    const char phase = json[pos + kEventStart.size()];
    if (phase == 'X') {
      const std::size_t tid = FindField(json, pos, limit, "\"tid\":");
      const std::size_t ts = FindField(json, pos, limit, "\"ts\":");
      const std::size_t dur = FindField(json, pos, limit, "\"dur\":");
      const std::size_t name = FindField(json, pos, limit, "\"name\":\"");
      if (tid == std::string_view::npos || ts == std::string_view::npos ||
          dur == std::string_view::npos || name == std::string_view::npos) {
        return false;
      }
      const std::size_t name_end = json.find('"', name);
      if (name_end == std::string_view::npos || name_end >= limit) return false;
      SpanRecord span;
      span.name = std::string(json.substr(name, name_end - name));
      span.tid = static_cast<std::int64_t>(ParseNumber(json, tid));
      span.start_us = ParseNumber(json, ts);
      span.dur_us = ParseNumber(json, dur);
      spans->push_back(std::move(span));
    }
    pos = next;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Self time
// ---------------------------------------------------------------------------

std::map<std::string, std::vector<double>> SelfTimes(
    std::vector<SpanRecord> spans,
    const std::vector<std::string>& async_names) {
  const std::unordered_set<std::string> async(async_names.begin(),
                                              async_names.end());
  std::map<std::string, std::vector<double>> self;
  std::unordered_map<std::int64_t, std::vector<const SpanRecord*>> by_thread;
  for (const SpanRecord& span : spans) {
    if (async.count(span.name) != 0) {
      self[span.name].push_back(span.dur_us);
    } else {
      by_thread[span.tid].push_back(&span);
    }
  }

  struct Open {
    const SpanRecord* span;
    double end;
    double covered = 0;        ///< union of children intervals so far
    double covered_until = 0;  ///< right edge of that union
  };
  const auto close = [&self](const Open& open) {
    self[open.span->name].push_back(
        std::max(0.0, open.span->dur_us - open.covered));
  };
  for (auto& [tid, list] : by_thread) {
    // Outer spans first: by start, then longest first, so a parent is
    // always visited before the spans it contains.
    std::sort(list.begin(), list.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                if (a->start_us != b->start_us) return a->start_us < b->start_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<Open> stack;
    for (const SpanRecord* span : list) {
      const double start = span->start_us;
      const double end = start + span->dur_us;
      while (!stack.empty() && stack.back().end <= start) {
        close(stack.back());
        stack.pop_back();
      }
      // The innermost open span that contains this one is its parent; a
      // partially overlapping open span above it is not.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->end >= end) {
          const double from = std::max(start, it->covered_until);
          if (end > from) it->covered += end - from;
          it->covered_until = std::max(it->covered_until, end);
          break;
        }
      }
      stack.push_back(Open{span, end, 0, start});
    }
    for (const Open& open : stack) close(open);
  }
  return self;
}

double TypicalPerOp(std::vector<double> self_times, std::size_t ops) {
  if (self_times.empty() || ops == 0) return 0;
  const std::size_t n = self_times.size();
  std::sort(self_times.begin(), self_times.end());
  const std::size_t trim = n / 4;
  double middle = 0;
  for (std::size_t i = trim; i < n - trim; ++i) middle += self_times[i];
  const double typical = middle / static_cast<double>(n - 2 * trim);
  return typical * static_cast<double>(n) / static_cast<double>(ops);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
