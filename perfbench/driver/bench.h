// Shared machinery of the four workloads: options, the run report, the
// serving stack and its timed set-up, open-loop pacing, completion
// tracking, process resource usage and the per-layer probes that time
// the benchmark's own calls into each module.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "harness.h"
#include "mix.h"
#include "support/buffer_pool.h"
#include "wire/client.h"
#include "wire/server.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string descriptors = "descriptors";
};

/// Every timed set-up of a run, in order.
struct SetupTimes {
  std::vector<double> total_s, descriptor_ms, gateway_ms, server_ms;
};

/// What one run found: operations attempted, failed (a failed response
/// check counts as a failed operation) and shed (refused at admission
/// with kOverloaded: not a failure, but +inf latency), every metric
/// measured, and the facts the record states about the run.
class Report {
 public:
  void Attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Thread-safe; keeps the first few reasons for the record.
  void Fail(const std::string& why);
  void Shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::string> failures() const;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Param(const std::string& name, const std::string& value) {
    params.emplace_back(name, value);
  }
  void Param(const std::string& name, double value) {
    params.emplace_back(name, JsonNumber(value));
  }

  MetricMap metrics;
  SetupTimes setup;
  std::vector<std::pair<std::string, std::string>> params;  ///< JSON values
  std::string schedule_digest;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// The serving stack
// ---------------------------------------------------------------------------

class IdlePollers;

/// Descriptors, gateway, wire server and client connections, torn down
/// in the order the server's shutdown contract requires.
struct Stack {
  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<mobivine::core::DescriptorStore> store;
  std::unique_ptr<mobivine::gateway::Gateway> gateway;
  std::unique_ptr<mobivine::wire::WireServer> server;
  std::vector<std::unique_ptr<mobivine::wire::WireClient>> clients;
  /// Frames the clients sent (requests, scripts, subscribes), counted by
  /// the workloads; CheckFramesIn compares it with the server's count.
  std::atomic<std::uint64_t> frames_sent{0};
  /// Started once the stack is built, so set-up is timed without them.
  std::unique_ptr<IdlePollers> pollers;
};

struct StackShape {
  std::function<void(mobivine::gateway::GatewayConfig&)> configure;
  /// The wire server is started even where traffic is in-process, so
  /// every workload measures wire.start_ms and tears down the same way.
  int event_loops = 1;
  int connections = 0;
};

/// Builds and tears down `runs` stacks, timing each set-up (load
/// descriptors, build the gateway, start the server, connect the
/// clients), and records the medians over every set-up of the run so
/// far: setup_s, core.descriptor_load_ms, gateway.start_ms and
/// wire.start_ms. Returns the last stack. Throws std::runtime_error when
/// a stack cannot be built.
std::unique_ptr<Stack> TimeSetUps(const Options& options,
                                  const StackShape& shape, int runs,
                                  Report* report);

/// TimeSetUps, keeping the last stack and starting the idle pollers.
[[nodiscard]] std::unique_ptr<Stack> SetUp(const Options& options,
                                           const StackShape& shape, int runs,
                                           Report* report);

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

/// Keeps `count` CPUs (SetUp passes the ones the process may run on)
/// busy at the lowest scheduling priority (SCHED_IDLE) for its lifetime,
/// so a CPU never halts: on a virtual machine, waking a
/// halted virtual CPU waits for the hypervisor and can take milliseconds,
/// which would swamp the serving stack's own hand-off latencies. Any
/// runnable thread of the stack preempts a poller at once. Their CPU time
/// is excluded from CpuSeconds().
class IdlePollers {
 public:
  explicit IdlePollers(int count);
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  [[nodiscard]] double CpuSeconds() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<clockid_t> clocks_;  ///< CPU-time clocks of threads_
  std::vector<std::thread> threads_;
};

/// Pins the calling process, and every thread it starts from now on, to
/// the first CPU it may run on, and returns that CPU (-1 when the
/// affinity cannot be read or set).
int PinToOneCpu();

/// CPUs the calling thread may run on (at least 1).
[[nodiscard]] int AllowedCpus();

/// CPU seconds the calling thread has used.
[[nodiscard]] double ThreadCpuSeconds();
/// Process user+system CPU seconds, idle pollers excluded, and peak
/// resident set (MiB).
[[nodiscard]] double CpuSeconds();
[[nodiscard]] double PeakRssMb();

/// What pacing saw: how late each operation was sent, and the process
/// CPU spent over the phase with the pacing waits excluded.
struct PaceResult {
  std::vector<double> lateness_us;
  double cpu_s = 0;

  /// CPU microseconds per operation sent.
  [[nodiscard]] double CpuUsPerOp() const {
    return Ratio(cpu_s * 1e6, static_cast<double>(lateness_us.size()));
  }
};

/// Calls send(i) for each schedule entry in order, no earlier than
/// start_ns + due[i]. Waits sleep in slices of at most kPaceSliceNs: a
/// long sleep lets the CPU go idle, and waking an idle virtual CPU can
/// take milliseconds.
inline constexpr std::uint64_t kPaceSliceNs = 20'000;
template <typename Send>
PaceResult Pace(const std::vector<std::uint64_t>& due, std::uint64_t start_ns,
                Send&& send) {
  PaceResult result;
  result.lateness_us.assign(due.size(), 0.0);
  double wait_cpu_s = 0;
  const double cpu_start = CpuSeconds();
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::uint64_t target = start_ns + due[i];
    std::uint64_t now = NowNs();
    if (now < target) {
      const double cpu_before = ThreadCpuSeconds();
      while (now < target) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(target - now, kPaceSliceNs)));
        now = NowNs();
      }
      wait_cpu_s += ThreadCpuSeconds() - cpu_before;
    }
    result.lateness_us[i] = static_cast<double>(now - target) / 1e3;
    send(i);
  }
  result.cpu_s = CpuSeconds() - cpu_start - wait_cpu_s;
  return result;
}

/// Completion times of a fixed set of operations, written once each from
/// any thread; 0 = not completed, kFailedNs = completed with a failure.
class Completions {
 public:
  static constexpr std::uint64_t kFailedNs = ~0ull;

  explicit Completions(std::size_t n) : done_ns_(n) {
    for (auto& slot : done_ns_) slot.store(0, std::memory_order_relaxed);
  }
  void Complete(std::size_t i, bool ok) {
    done_ns_[i].store(ok ? NowNs() : kFailedNs, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_release);
  }
  /// Waits until `expected` completions arrived or `timeout_s` passed.
  bool Wait(std::size_t expected, double timeout_s) const;
  [[nodiscard]] std::size_t count() const {
    return count_.load(std::memory_order_acquire);
  }
  /// Latency from each due time; failed or missing operations are +inf.
  [[nodiscard]] std::vector<double> LatenciesUs(
      const std::vector<std::uint64_t>& due, std::uint64_t start_ns) const;
  [[nodiscard]] std::size_t ok_count() const;
  /// The latest OK completion time; 0 when none.
  [[nodiscard]] std::uint64_t last_ok_ns() const;

 private:
  std::vector<std::atomic<std::uint64_t>> done_ns_;
  std::atomic<std::size_t> count_{0};
};

/// Records the open-loop figures every workload shares: goodput_rps,
/// p50_us (the median of `window_p50s`, see WindowP50s), and over every
/// operation of the open-loop phases run.p50_whole_us and run.p99_us, the
/// generator lateness, and the sample counts the record states.
void RecordOpenLoop(Report* report, std::vector<double> latencies_us,
                    const std::vector<double>& window_p50s,
                    std::vector<double> lateness_us, const Rate& goodput);

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Turns support::trace on with buffers sized for `events_per_thread`.
void StartTracing(std::size_t events_per_thread);
using StageSelfTimes = std::map<std::string, std::vector<double>>;

/// Turns tracing off, exports what was recorded and returns the self time
/// (us) of every span, grouped by stage (TraceStages(); binding spans
/// such as "android.getLocation" group into "binding"). Fails the report
/// when events were dropped or the export does not parse.
[[nodiscard]] StageSelfTimes StopTracing(Report* report);

/// Records trace.<stage>_us (TypicalPerOp) for every stage,
/// trace.remainder_us (traced p50 minus the stages) and the tracing
/// overhead against the untraced segment of the same run.
void RecordTraceBreakdown(Report* report, const StageSelfTimes& stages,
                          std::size_t ops, double traced_p50_us,
                          double untraced_p50_us, double traced_cpu_us_per_op,
                          double untraced_cpu_us_per_op);

/// Stage names reported as trace.<stage>_us, in path order.
[[nodiscard]] const std::vector<std::string>& TraceStages();

// ---------------------------------------------------------------------------
// Per-layer probes
// ---------------------------------------------------------------------------

/// core.dispatch_ns.<platform>.<op> for all 15 pairs,
/// core.set_property_ns and core.virtual_us_per_op (meter charges over
/// `seq`'s request mix), through a standalone ProxyRegistry world built
/// the way a gateway shard builds its own.
void ProbeCore(const mobivine::core::DescriptorStore& store,
               const mobivine::support::SeedSequence& seq, Report* report);

/// minijs.parse_us and minijs.run_us over the two script templates, run
/// against a stub `mobile` host.
void ProbeMiniJs(Report* report);

/// gateway.inproc_call_us (median of `calls` Gateway::Call on the
/// request mix, no socket) and gateway.submit_ns (mean time inside
/// Gateway::Submit, one request in flight).
void ProbeInProcess(mobivine::gateway::Gateway& gateway,
                    const mobivine::support::SeedSequence& seq, int calls,
                    Report* report);

/// wire.encode_ns / wire.decode_ns over `frames` (encoded frames of the
/// workload's own traffic) with the given per-frame codec calls.
void ProbeCodec(const std::function<void(std::size_t, std::vector<std::uint8_t>&)>&
                    encode,
                const std::function<bool(const std::uint8_t*, std::size_t)>& decode,
                std::size_t frames, Report* report);

/// Reads the serving counters the per-layer metrics derive from.
struct CounterSnapshot {
  mobivine::wire::WireStatsSnapshot wire;
  mobivine::support::BufferPoolStats pool;
  mobivine::gateway::GatewaySnapshot gateway;
};
[[nodiscard]] CounterSnapshot ReadCounters(const Stack& stack);

/// Fails the report unless the server decoded exactly the frames the
/// clients sent. Call once every response has arrived.
void CheckFramesIn(const Stack& stack, Report* report);

/// Per-layer counters over [before, after] for `ops` operations:
/// wire.*_per_op, wire.backpressure_stalls, wire.epollout_arms,
/// support.pool_hit_ratio and the gateway latency/queue/script figures.
void RecordCounters(const CounterSnapshot& before,
                    const CounterSnapshot& after, std::uint64_t ops,
                    Report* report);

/// The workloads.
void RunWireRequests(const Options& options, Report* report);
void RunWireScripts(const Options& options, Report* report);
void RunPushFanout(const Options& options, Report* report);
void RunTenantOverload(const Options& options, Report* report);

}  // namespace perfbench
