// The four workloads. Each builds its stack with SetUp and warms it,
// then either measures the end-to-end figures (an open-loop phase at a
// fixed rate, then a closed-loop phase for capacity) or, in a traced run,
// the per-layer figures: probes, an untraced open-loop segment read
// through the serving counters, and a traced segment broken into stage
// self times.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "support/fault.h"
#include "support/trace.h"

namespace perfbench {

namespace gw = mobivine::gateway;
namespace wire = mobivine::wire;
namespace trace = mobivine::support::trace;
using mobivine::support::SeedSequence;

namespace {

// Sized for a 4-CPU host: two shard workers and one event loop leave
// room for the generator and the clients' reader threads.
constexpr int kShards = 2;
constexpr int kEventLoops = 1;
constexpr std::uint64_t kClientIds = 256;

constexpr double kWarmupSeconds = 0.3;
constexpr double kDrainTimeoutSeconds = 30;

/// Phase lengths as shares of --seconds. An untraced run alternates its
/// open- and closed-loop phases over kRounds rounds, so every end-to-end
/// figure samples the whole run: the host's speed drifts over seconds.
constexpr int kRounds = 20;
constexpr double kOpenShare = 0.6;
constexpr double kClosedShare = 0.3;
/// Set-ups timed before the run and after each round: setup_s is their
/// median, and like the other figures it samples the whole run.
constexpr int kSetupsFirst = 5;
constexpr int kSetupsPerRound = 1;
constexpr int kTracedSetups = kSetupsFirst + kRounds * kSetupsPerRound;
constexpr double kUntracedShare = 0.45;
constexpr double kTracedShare = 0.15;
constexpr double kTracedMaxSeconds = 1.5;
/// p50_us is the median of the p50s of the open-loop phases' windows this
/// long, throughput_rps the median of the closed-loop phases' window
/// rates (see WindowP50s and WindowRates).
constexpr std::uint64_t kLatencyWindowNs = 250'000'000;
constexpr std::uint64_t kRateWindowNs = 125'000'000;

std::string StatusText(wire::WireStatus status) {
  return std::string("status ") + wire::ToString(status);
}

/// One open-loop phase's raw results, or several phases' added up.
struct Phase {
  std::vector<double> latencies_us;
  std::vector<double> window_p50s;  ///< see WindowP50s
  PaceResult pace;
  std::size_t ops = 0;  ///< operations the per-op figures divide by
  Rate ok;              ///< OK completions from the first due time
  double send_us_per_op = 0;
  StageSelfTimes stages;  ///< traced phases only

  [[nodiscard]] double p50() const {
    std::vector<double> copy = latencies_us;
    return Summarize(copy).p50;
  }

  void Add(const Phase& other) {
    latencies_us.insert(latencies_us.end(), other.latencies_us.begin(),
                        other.latencies_us.end());
    window_p50s.insert(window_p50s.end(), other.window_p50s.begin(),
                       other.window_p50s.end());
    pace.lateness_us.insert(pace.lateness_us.end(),
                            other.pace.lateness_us.begin(),
                            other.pace.lateness_us.end());
    pace.cpu_s += other.pace.cpu_s;
    ops += other.ops;
    ok += other.ok;
  }
};

/// Events each thread's trace buffer must hold for `ops` operations.
std::size_t TraceCapacity(std::size_t ops) { return 12 * ops + 4096; }

int FirstSetUps(const Options& o) {
  return o.trace ? kTracedSetups : kSetupsFirst;
}
double UntracedSeconds(const Options& o) { return o.seconds * kUntracedShare; }
double TracedSeconds(const Options& o) {
  return std::min(o.seconds * kTracedShare, kTracedMaxSeconds);
}

/// The open-loop figures every workload shares.
void RecordRun(const Phase& open, Report* report) {
  RecordOpenLoop(report, open.latencies_us, open.window_p50s,
                 open.pace.lateness_us, open.ok);
}

/// The phase's p50 per window of its schedule, `seconds` long.
std::vector<double> PhaseWindows(const std::vector<std::uint64_t>& due_ns,
                                 const std::vector<double>& latencies_us,
                                 double seconds) {
  return WindowP50s(due_ns, latencies_us, kLatencyWindowNs,
                    static_cast<std::uint64_t>(seconds * 1e9));
}

/// The untraced run: kRounds rounds of open(round, seconds) -> Phase,
/// closed(round, seconds) -> window rates and kSetupsPerRound timed
/// set-ups of `shape`. Records the end-to-end figures over all rounds;
/// cpu_us_per_op is the median over the open-loop phases. Peak RSS is
/// read after the first open-loop phase, before any measured closed loop
/// or mid-run set-up: a closed loop's bookkeeping grows with the
/// throughput it reaches, and would make the figure follow throughput
/// rather than the stack's footprint.
template <typename OpenFn, typename ClosedFn>
void MeasureRounds(const Options& options, const StackShape& shape,
                   OpenFn open, ClosedFn closed, Report* report) {
  Phase all;
  std::vector<double> rates, cpu_us_per_op;
  for (int round = 0; round < kRounds; ++round) {
    const Phase phase = open(round, options.seconds * kOpenShare / kRounds);
    cpu_us_per_op.push_back(phase.pace.CpuUsPerOp());
    all.Add(phase);
    if (round == 0) report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    const std::vector<double> closed_rates =
        closed(round, options.seconds * kClosedShare / kRounds);
    rates.insert(rates.end(), closed_rates.begin(), closed_rates.end());
    TimeSetUps(options, shape, kSetupsPerRound, report);
  }
  RecordRun(all, report);
  report->Set("cpu_us_per_op", Median(cpu_us_per_op), "us");
  report->Set("throughput_rps", Median(rates), "1/s");
  report->Param("rounds", kRounds);
  report->Param("throughput_windows", static_cast<double>(rates.size()));
}

void RecordTraced(const Phase& untraced, const Phase& traced, Report* report) {
  RecordTraceBreakdown(report, traced.stages, traced.ops, traced.p50(),
                       untraced.p50(), traced.pace.CpuUsPerOp(),
                       untraced.pace.CpuUsPerOp());
}

/// run.error_frac (failed operations plus lost events), run.shed_frac,
/// and, where the workload has no rogue tenant, every client is behaved:
/// gateway.tenant.behaved_ok_frac is then the whole run's OK share.
void RecordFractions(Report* report, double lost = 0) {
  const double attempted = static_cast<double>(report->attempted());
  const double errors = static_cast<double>(report->failed()) + lost;
  const double shed = static_cast<double>(report->shed());
  report->Set("run.error_frac", Ratio(errors, attempted), "ratio");
  report->Set("run.shed_frac", Ratio(shed, attempted), "ratio");
  if (report->metrics.count("gateway.tenant.behaved_ok_frac") == 0) {
    report->Set("gateway.tenant.behaved_ok_frac",
                Ratio(attempted - errors - shed, attempted), "ratio");
  }
}

Clock::time_point Deadline(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Request/response over the wire
// ---------------------------------------------------------------------------

/// Empty when a response is what `check` expects; counts a shed.
template <typename CheckFn>
std::string Judge(const wire::WireResponse& response, Report* report,
                  CheckFn check) {
  if (response.status == wire::WireStatus::kOverloaded) {
    report->Shed();
    return "shed";
  }
  std::string why = response.status == wire::WireStatus::kOk
                        ? check(response.body)
                        : StatusText(response.status) + ": " + response.body;
  if (!why.empty()) report->Fail(why);
  return why;
}

/// Completes operation `i` of a phase from a response callback.
template <typename CheckFn>
auto Completer(Completions* done, Report* report, std::size_t i,
               CheckFn check) {
  return [done, report, i, check](const wire::WireResponse& response) {
    trace::Span span("bench.client_recv");
    done->Complete(i, Judge(response, report, check).empty());
  };
}

/// Open loop over the stack's connections: specs[i] is sent at due[i]
/// through submit(client, spec, callback), which returns whether the
/// frame went out, round-robin over connections. The schedule is
/// `seconds` long.
template <typename Spec, typename SubmitFn, typename CheckFn>
Phase WireOpenLoop(Stack& stack, const std::vector<std::uint64_t>& due,
                   double seconds, const std::vector<Spec>& specs,
                   bool traced, SubmitFn submit, CheckFn check,
                   Report* report) {
  Phase phase;
  phase.ops = due.size();
  Completions done(due.size());
  if (traced) StartTracing(TraceCapacity(due.size()));
  double send_ns = 0;
  const std::uint64_t start_ns = NowNs() + 2'000'000;
  phase.pace = Pace(due, start_ns, [&](std::size_t i) {
    report->Attempt();
    wire::WireClient& client = *stack.clients[i % stack.clients.size()];
    const std::uint64_t t0 = NowNs();
    {
      trace::Span span("bench.client_send");
      stack.frames_sent += submit(
          client, specs[i],
          Completer(&done, report, i,
                    [&check, &spec = specs[i]](const std::string& body) {
                      return check(spec, body);
                    }));
    }
    send_ns += static_cast<double>(NowNs() - t0);
  });
  if (!done.Wait(due.size(), kDrainTimeoutSeconds)) {
    // Closing fails every outstanding callback now, so none can outlive
    // this frame.
    for (auto& c : stack.clients) c->Close();
    throw std::runtime_error("open-loop responses did not all arrive");
  }
  if (traced) phase.stages = StopTracing(report);
  phase.send_us_per_op = Ratio(send_ns / 1e3, static_cast<double>(due.size()));
  phase.latencies_us = done.LatenciesUs(due, start_ns);
  phase.window_p50s = PhaseWindows(due, phase.latencies_us, seconds);
  phase.ok = Rate::Between(static_cast<double>(done.ok_count()),
                           due.empty() ? 0 : start_ns + due.front(),
                           done.last_ok_ns());
  return phase;
}

/// Samples `ok` into `rates` at each window boundary until `deadline`,
/// sleeping in between.
void SampleUntil(Clock::time_point deadline,
                 const std::atomic<std::uint64_t>& ok, WindowRates* rates) {
  while (Clock::now() < deadline) {
    const std::uint64_t now = NowNs();
    if (now < rates->next_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(rates->next_ns() - now, 10'000'000)));
      continue;
    }
    rates->Sample(now, ok.load(std::memory_order_relaxed));
  }
  rates->Finish(NowNs(), ok.load(std::memory_order_relaxed));
}

/// Closed loop: one thread per connection keeps up to `window` requests
/// in flight, refilling in batches, until `seconds` pass. Returns the OK
/// completion rate of each kRateWindowNs window.
template <typename MakeBatch>
std::vector<double> WireClosedLoop(Stack& stack, double seconds, int window,
                                   MakeBatch make_batch, Report* report) {
  WindowRates rates(kRateWindowNs, NowNs());
  const auto deadline = Deadline(Clock::now(), seconds);
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < stack.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::mutex mutex;
      std::condition_variable cv;
      int in_flight = 0;
      const int refill_at = window / 2;
      auto batch_source = make_batch(c);
      while (Clock::now() < deadline) {
        int room = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return in_flight <= refill_at; });
          room = window - in_flight;
          in_flight += room;
        }
        report->Attempt(static_cast<std::uint64_t>(room));
        stack.frames_sent +=
            batch_source.Send(*stack.clients[c], room, [&](bool success) {
              if (success) ok.fetch_add(1, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(mutex);
              --in_flight;
              if (in_flight <= refill_at) cv.notify_one();
            });
      }
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return in_flight == 0; });
    });
  }
  SampleUntil(deadline, ok, &rates);
  for (auto& thread : threads) thread.join();
  return rates.rates();
}

/// Batches of the request mix for the closed loop.
class RequestBatches {
 public:
  RequestBatches(const SeedSequence& seq, Report* report)
      : mix_(seq, kClientIds), report_(report) {}

  /// Sends `count` requests; returns the frames that went out.
  template <typename Done>
  std::size_t Send(wire::WireClient& client, int count, Done done) {
    std::vector<wire::WireRequest> requests(static_cast<std::size_t>(count));
    std::vector<wire::WireClient::Callback> callbacks;
    callbacks.reserve(requests.size());
    for (auto& request : requests) {
      const RequestSpec spec = mix_.Next();
      mix_.Fill(spec, &request);
      callbacks.push_back([this, spec, done](const wire::WireResponse& r) {
        done(Judge(r, report_, [&](const std::string& body) {
               return mix_.Check(spec, body);
             }).empty());
      });
    }
    return client.SubmitBatch(requests, std::move(callbacks));
  }

 private:
  RequestMix mix_;
  Report* report_;
};

/// Scripts for the closed loop (no batch API: one frame each).
class ScriptBatches {
 public:
  ScriptBatches(const SeedSequence& seq, double unique_share, Report* report)
      : mix_(seq, kClientIds, unique_share), report_(report) {}

  /// Sends `count` scripts; returns the frames that went out.
  template <typename Done>
  std::size_t Send(wire::WireClient& client, int count, Done done) {
    wire::WireScriptRequest script;
    std::size_t sent = 0;
    for (int i = 0; i < count; ++i) {
      const ScriptSpec spec = mix_.Next();
      mix_.Fill(spec, &script);
      sent += client.SubmitScript(
          script, [this, spec, done](const wire::WireResponse& r) {
            done(Judge(r, report_, [&](const std::string& body) {
                   return mix_.Check(spec, body);
                 }).empty());
          });
    }
    return sent;
  }

 private:
  ScriptMix mix_;
  Report* report_;
};

StackShape ServingShape(int connections) {
  StackShape shape;
  shape.configure = [](gw::GatewayConfig& config) { config.shards = kShards; };
  shape.event_loops = kEventLoops;
  shape.connections = connections;
  return shape;
}

/// wire.encode_ns / wire.decode_ns over 2000 request frames of `seq`'s
/// request mix.
void ProbeRequestCodec(const SeedSequence& seq, Report* report) {
  RequestMix mix(seq, kClientIds);
  std::vector<wire::WireRequest> frames(2000);
  for (auto& frame : frames) mix.Fill(mix.Next(), &frame);
  wire::WireRequestView view;
  ProbeCodec(
      [&](std::size_t i, std::vector<std::uint8_t>& out) {
        wire::EncodeRequest(frames[i], i + 1, out);
      },
      [&](const std::uint8_t* data, std::size_t size) {
        wire::FrameView frame;
        std::size_t consumed = 0;
        std::string error;
        return wire::DecodeFrame(data, size, &frame, &consumed, &error) ==
                   wire::DecodeStatus::kOk &&
               wire::DecodeRequestView(frame.payload, frame.payload_size,
                                       &view, &error) == wire::BodyStatus::kOk;
      },
      frames.size(), report);
}

/// The probes every traced run takes; `inproc_calls` is fewer where the
/// fault plan pins each call's service time.
void ProbeLayers(Stack& stack, const SeedSequence& seq, int inproc_calls,
                 Report* report) {
  ProbeCore(*stack.store, seq.Fork("core"), report);
  ProbeMiniJs(report);
  ProbeInProcess(*stack.gateway, seq.Fork("inproc"), inproc_calls, report);
}

}  // namespace

// ---------------------------------------------------------------------------
// wire-requests
// ---------------------------------------------------------------------------

namespace {

constexpr int kRequestConnections = 1;
constexpr double kRequestRate = 10000;  // req/s, see README.md
constexpr int kRequestWindow = 512;

Phase RequestPhase(Stack& stack, const SeedSequence& seq, double seconds,
                   bool traced, Digest* digest, Report* report) {
  const std::vector<std::uint64_t> due =
      PoissonSchedule(seq.Fork("arrivals"), kRequestRate, seconds);
  RequestMix mix(seq, kClientIds);
  std::vector<RequestSpec> specs(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    specs[i] = mix.Next();
    digest->Add(due[i]);
    digest->Add(RequestMix::Word(specs[i]));
  }
  wire::WireRequest request;
  return WireOpenLoop(
      stack, due, seconds, specs, traced,
      [&](wire::WireClient& client, const RequestSpec& spec,
          wire::WireClient::Callback callback) {
        mix.Fill(spec, &request);
        return client.Submit(request, std::move(callback));
      },
      [&mix](const RequestSpec& spec, const std::string& body) {
        return mix.Check(spec, body);
      },
      report);
}

}  // namespace

void RunWireRequests(const Options& options, Report* report) {
  const SeedSequence root(options.seed);
  const StackShape shape = ServingShape(kRequestConnections);
  auto stack = SetUp(options, shape, FirstSetUps(options), report);
  report->Param("shards", kShards);
  report->Param("event_loops", kEventLoops);
  report->Param("connections", kRequestConnections);
  report->Param("open_loop_rate_rps", kRequestRate);
  report->Param("closed_loop_window", kRequestWindow);

  const auto batches = [report](SeedSequence seq) {
    return [seq, report](std::size_t c) {
      return RequestBatches(seq.Fork(c), report);
    };
  };
  (void)WireClosedLoop(*stack, kWarmupSeconds, kRequestWindow,
                       batches(root.Fork("warmup")), report);
  Digest digest;
  if (!options.trace) {
    MeasureRounds(
        options, shape,
        [&](int round, double seconds) {
          return RequestPhase(*stack, root.Fork("open").Fork(round), seconds,
                              false, &digest, report);
        },
        [&](int round, double seconds) {
          return WireClosedLoop(*stack, seconds, kRequestWindow,
                                batches(root.Fork("closed").Fork(round)),
                                report);
        },
        report);
  } else {
    ProbeLayers(*stack, root, 1500, report);
    ProbeRequestCodec(root.Fork("open"), report);
    const CounterSnapshot before = ReadCounters(*stack);
    const Phase untraced = RequestPhase(*stack, root.Fork("open"),
                                        UntracedSeconds(options), false,
                                        &digest, report);
    RecordCounters(before, ReadCounters(*stack), untraced.ops, report);
    RecordRun(untraced, report);
    report->Set("wire.client_send_us", untraced.send_us_per_op, "us/op");
    Digest traced_digest;
    const Phase traced = RequestPhase(*stack, root.Fork("traced"),
                                      TracedSeconds(options), true,
                                      &traced_digest, report);
    RecordTraced(untraced, traced, report);
  }
  CheckFramesIn(*stack, report);
  report->schedule_digest = digest.Hex();
  RecordFractions(report);
}

// ---------------------------------------------------------------------------
// wire-scripts
// ---------------------------------------------------------------------------

namespace {

constexpr int kScriptConnections = 1;
constexpr double kScriptRate = 2000;  // scripts/s, see README.md
constexpr double kUniqueShare = 0.1;  // scripts whose source is new
constexpr int kScriptWindow = 64;

Phase ScriptPhase(Stack& stack, const SeedSequence& seq, double seconds,
                  bool traced, Digest* digest, Report* report) {
  const std::vector<std::uint64_t> due =
      PoissonSchedule(seq.Fork("arrivals"), kScriptRate, seconds);
  ScriptMix mix(seq, kClientIds, kUniqueShare);
  std::vector<ScriptSpec> specs(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    specs[i] = mix.Next();
    digest->Add(due[i]);
    digest->Add(ScriptMix::Word(specs[i]));
  }
  wire::WireScriptRequest script;
  return WireOpenLoop(
      stack, due, seconds, specs, traced,
      [&](wire::WireClient& client, const ScriptSpec& spec,
          wire::WireClient::Callback callback) {
        mix.Fill(spec, &script);
        return client.SubmitScript(script, std::move(callback));
      },
      [&mix](const ScriptSpec& spec, const std::string& body) {
        return mix.Check(spec, body);
      },
      report);
}

}  // namespace

void RunWireScripts(const Options& options, Report* report) {
  const SeedSequence root(options.seed);
  const StackShape shape = ServingShape(kScriptConnections);
  auto stack = SetUp(options, shape, FirstSetUps(options), report);
  report->Param("shards", kShards);
  report->Param("event_loops", kEventLoops);
  report->Param("connections", kScriptConnections);
  report->Param("open_loop_rate_rps", kScriptRate);
  report->Param("unique_source_share", kUniqueShare);
  report->Param("closed_loop_window", kScriptWindow);

  const auto batches = [report](SeedSequence seq) {
    return [seq, report](std::size_t c) {
      return ScriptBatches(seq.Fork(c), kUniqueShare, report);
    };
  };
  (void)WireClosedLoop(*stack, kWarmupSeconds, kScriptWindow,
                       batches(root.Fork("warmup")), report);
  Digest digest;
  if (!options.trace) {
    MeasureRounds(
        options, shape,
        [&](int round, double seconds) {
          return ScriptPhase(*stack, root.Fork("open").Fork(round), seconds,
                             false, &digest, report);
        },
        [&](int round, double seconds) {
          return WireClosedLoop(*stack, seconds, kScriptWindow,
                                batches(root.Fork("closed").Fork(round)),
                                report);
        },
        report);
  } else {
    ProbeLayers(*stack, root, 1500, report);
    ScriptMix codec_mix(root.Fork("open"), kClientIds, kUniqueShare);
    std::vector<wire::WireScriptRequest> frames(2000);
    for (auto& frame : frames) codec_mix.Fill(codec_mix.Next(), &frame);
    wire::WireScriptRequest decoded;
    ProbeCodec(
        [&](std::size_t i, std::vector<std::uint8_t>& out) {
          wire::EncodeScript(frames[i], i + 1, out);
        },
        [&](const std::uint8_t* data, std::size_t size) {
          wire::FrameView frame;
          std::size_t consumed = 0;
          std::string error;
          return wire::DecodeFrame(data, size, &frame, &consumed, &error) ==
                     wire::DecodeStatus::kOk &&
                 wire::DecodeScript(frame.payload, frame.payload_size, &decoded,
                                    &error) == wire::BodyStatus::kOk;
        },
        frames.size(), report);
    const CounterSnapshot before = ReadCounters(*stack);
    const Phase untraced = ScriptPhase(*stack, root.Fork("open"),
                                       UntracedSeconds(options), false, &digest,
                                       report);
    RecordCounters(before, ReadCounters(*stack), untraced.ops, report);
    RecordRun(untraced, report);
    report->Set("wire.client_send_us", untraced.send_us_per_op, "us/op");
    Digest traced_digest;
    const Phase traced = ScriptPhase(*stack, root.Fork("traced"),
                                     TracedSeconds(options), true,
                                     &traced_digest, report);
    RecordTraced(untraced, traced, report);
  }
  CheckFramesIn(*stack, report);
  report->schedule_digest = digest.Hex();
  RecordFractions(report);
}

// ---------------------------------------------------------------------------
// push-fanout
// ---------------------------------------------------------------------------

namespace {

constexpr int kPushConnections = 2;
constexpr int kSubsPerConnection = 32;
constexpr double kPushRate = 8000;       // publish calls/s
constexpr double kBroadcastShare = 0.1;  // shard-wide 1:N events
constexpr double kPushRequestShare = 0.05;
constexpr std::uint32_t kMaxEventBody = 512;
constexpr std::uint64_t kClosedSeqBase = 1ull << 40;
constexpr std::uint64_t kPushWindow = 1024;  // undelivered events, closed loop

/// One scheduled push-fanout operation: an event for one subscriber, a
/// broadcast to one shard's subscribers, or a request on a connection.
struct PushSpec {
  enum class Kind : std::uint8_t { kTargeted, kBroadcast, kRequest };
  Kind kind = Kind::kTargeted;
  std::uint32_t subscriber = 0;  ///< kTargeted
  std::uint32_t shard = 0;       ///< kBroadcast
  std::uint32_t body_size = 0;
  RequestSpec request;           ///< kRequest
};

/// The subscriptions of push-fanout and what each received.
class PushPlane {
 public:
  struct Subscription {
    std::uint64_t client_id = 0;
    std::uint32_t shard = 0;
    /// Appended only by the owning connection's reader thread; read by
    /// the main thread once the phase is quiescent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> received;  ///< seq, ns
    std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps;  ///< cursors
    std::uint64_t last_cursor = 0;
  };

  PushPlane(Stack& stack, Report* report) : stack_(stack), report_(report) {
    subs_.resize(kPushConnections * kSubsPerConnection);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t acked = 0;
    bool all_ok = true;
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      Subscription& sub = subs_[k];
      sub.client_id = 1 + k;
      sub.shard = stack.gateway->ShardFor(sub.client_id);
      by_shard_[sub.shard].push_back(static_cast<std::uint32_t>(k));
      wire::WireSubscribe subscribe;
      subscribe.client_id = sub.client_id;
      subscribe.topic = wire::PushTopic::kNotification;
      subscribe.mode = wire::SubscribeMode::kLiveOnly;
      report->Attempt();
      stack.frames_sent += stack.clients[k % kPushConnections]->Subscribe(
          subscribe,
          [this, &sub](const wire::WireEvent& event) { OnEvent(sub, event); },
          [&](const wire::WireSubscribeAck& ack) {
            std::lock_guard<std::mutex> lock(mutex);
            all_ok &= ack.status == wire::WireStatus::kOk;
            ++acked;
            cv.notify_one();
          });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return acked == subs_.size(); });
    if (!all_ok) {
      closing_.store(true, std::memory_order_relaxed);
      for (auto& client : stack.clients) client->Close();
      throw std::runtime_error("a push subscription was refused");
    }
  }

  /// Closes the connections first: their teardown delivers a final
  /// stream-gone marker to every handler, which must still find `this`.
  ~PushPlane() {
    closing_.store(true, std::memory_order_relaxed);
    for (auto& client : stack_.clients) client->Close();
  }

  PushPlane(const PushPlane&) = delete;
  PushPlane& operator=(const PushPlane&) = delete;

  [[nodiscard]] std::size_t subscribers() const { return subs_.size(); }
  [[nodiscard]] std::size_t ShardSize(std::uint32_t shard) const {
    const auto it = by_shard_.find(shard);
    return it == by_shard_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

  struct Published {
    std::size_t deliveries = 0;  ///< owed to subscribers
    std::uint64_t cursor = 0;    ///< in the publishing shard's feed
  };

  /// Publishes event `seq`, timing the call into `publish_ns`.
  Published Publish(const PushSpec& spec, std::uint64_t seq,
                    double* publish_ns) {
    const std::string body = EventBody(seq, spec.body_size);
    Published published;
    const std::uint64_t t0 = NowNs();
    {
      trace::Span span("bench.publish");
      if (spec.kind == PushSpec::Kind::kTargeted) {
        published.cursor = stack_.gateway->PublishEvent(
            subs_[spec.subscriber].client_id, gw::PushTopic::kNotification,
            body);
      } else {
        published.cursor = stack_.gateway->FeedForShard(spec.shard).Publish(
            gw::PushTopic::kNotification, 0, body);
      }
    }
    *publish_ns += static_cast<double>(NowNs() - t0);
    published.deliveries =
        spec.kind == PushSpec::Kind::kTargeted ? 1 : ShardSize(spec.shard);
    return published;
  }

  /// Owed deliveries of a quiescent phase, with what became of each.
  struct Reconciled {
    std::vector<double> latencies_us;  ///< +inf when dropped
    std::vector<std::uint64_t> due_ns;  ///< each latency's due time
    std::size_t drops = 0;  ///< missing, inside a gap marker
    std::uint64_t last_ns = 0;  ///< the latest receipt

    [[nodiscard]] double Delivered() const {
      return static_cast<double>(std::count_if(
          latencies_us.begin(), latencies_us.end(),
          [](double v) { return v != kFailedLatency; }));
    }
  };

  /// Compares what each subscriber received with what `specs` (event
  /// seq_base + i published with cursors[i], due at start_ns + due[i])
  /// owed it. Every missing event must lie inside a gap marker;
  /// uncovered losses, duplicates and unowed events fail the report.
  /// Clears the received lists for the next phase.
  Reconciled Reconcile(const std::vector<PushSpec>& specs,
                       const std::vector<std::uint64_t>& cursors,
                       const std::vector<std::uint64_t>& due,
                       std::uint64_t seq_base, std::uint64_t start_ns) {
    Reconciled out;
    for (Subscription& sub : subs_) {
      std::map<std::uint64_t, std::uint64_t> got;  // seq -> receipt ns
      for (const auto& [seq, ns] : sub.received) {
        if (seq < seq_base || !got.emplace(seq - seq_base, ns).second) {
          report_->Fail("event delivered twice or out of phase");
        }
        out.last_ns = std::max(out.last_ns, ns);
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const PushSpec& spec = specs[i];
        const bool owed =
            (spec.kind == PushSpec::Kind::kTargeted &&
             subs_[spec.subscriber].client_id == sub.client_id) ||
            (spec.kind == PushSpec::Kind::kBroadcast && spec.shard == sub.shard);
        if (!owed) continue;
        const std::uint64_t due_ns = due.empty() ? 0 : due[i];
        out.due_ns.push_back(due_ns);
        const auto it = got.find(i);
        if (it != got.end()) {
          const std::uint64_t due_abs = start_ns + due_ns;
          out.latencies_us.push_back(
              it->second > due_abs
                  ? static_cast<double>(it->second - due_abs) / 1e3
                  : 0.0);
          got.erase(it);
          continue;
        }
        out.latencies_us.push_back(kFailedLatency);
        const bool covered = std::any_of(
            sub.gaps.begin(), sub.gaps.end(), [&](const auto& gap) {
              return cursors[i] >= gap.first && cursors[i] <= gap.second;
            });
        if (covered) {
          ++out.drops;
        } else {
          report_->Fail("event lost without a gap marker");
        }
      }
      if (!got.empty()) report_->Fail("subscriber received an event not owed");
      sub.received.clear();
      sub.gaps.clear();
    }
    return out;
  }

 private:
  void OnEvent(Subscription& sub, const wire::WireEvent& event) {
    trace::Span span("bench.client_recv");
    if (event.kind == wire::EventKind::kEventsDropped) {
      if (event.cursor == 0 && !closing_.load(std::memory_order_relaxed)) {
        report_->Fail("push stream closed by transport");
      }
      sub.gaps.emplace_back(event.aux, event.cursor);
      return;
    }
    std::uint64_t seq = 0;
    if (event.kind != wire::EventKind::kData ||
        !ParseEventBody(event.body, &seq)) {
      report_->Fail("malformed push event");
      return;
    }
    if (event.cursor <= sub.last_cursor) report_->Fail("push cursor went back");
    sub.last_cursor = event.cursor;
    sub.received.emplace_back(seq, NowNs());
    delivered_.fetch_add(1, std::memory_order_release);
  }

  Stack& stack_;
  Report* report_;
  std::vector<Subscription> subs_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_shard_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<bool> closing_{false};
};

std::vector<PushSpec> PushSpecs(const SeedSequence& seq, std::size_t count,
                                std::size_t subscribers, Digest* digest) {
  mobivine::support::SplitMix64 rng = seq.Fork("events").stream();
  RequestMix requests(seq, kClientIds);
  std::vector<PushSpec> specs(count);
  for (PushSpec& spec : specs) {
    const double roll = rng.NextUnit();
    if (roll < kPushRequestShare) {
      spec.kind = PushSpec::Kind::kRequest;
      spec.request = requests.Next();
    } else if (roll < kPushRequestShare + kBroadcastShare) {
      spec.kind = PushSpec::Kind::kBroadcast;
      spec.shard = static_cast<std::uint32_t>(rng.NextBelow(kShards));
    } else {
      spec.subscriber = static_cast<std::uint32_t>(rng.NextBelow(subscribers));
    }
    spec.body_size =
        16 + static_cast<std::uint32_t>(rng.NextBelow(kMaxEventBody - 16 + 1));
    if (digest != nullptr) {
      digest->Add(static_cast<std::uint64_t>(spec.kind) ^
                  (std::uint64_t{spec.subscriber} << 8) ^
                  (std::uint64_t{spec.shard} << 24) ^
                  (std::uint64_t{spec.body_size} << 32));
      if (spec.kind == PushSpec::Kind::kRequest) {
        digest->Add(RequestMix::Word(spec.request));
      }
    }
  }
  return specs;
}

/// Publisher-side figures of the push phases.
struct PushStats {
  double publish_ns = 0;  ///< time inside the publish calls
  std::size_t publishes = 0;
  std::size_t drops = 0;  ///< owed events shed under a gap marker
};

Phase PushPhase(Stack& stack, PushPlane& plane, const SeedSequence& seq,
                double seconds, bool traced, Digest* digest, PushStats* stats,
                Report* report) {
  const std::vector<std::uint64_t> due =
      PoissonSchedule(seq.Fork("arrivals"), kPushRate, seconds);
  for (std::uint64_t d : due) digest->Add(d);
  const std::vector<PushSpec> specs =
      PushSpecs(seq, due.size(), plane.subscribers(), digest);
  RequestMix mix(seq, kClientIds);

  std::size_t requests = 0;
  for (const PushSpec& spec : specs) {
    requests += spec.kind == PushSpec::Kind::kRequest;
  }
  Completions done(specs.size());  // only the request slots complete
  std::vector<std::uint64_t> cursors(specs.size(), 0);
  std::size_t owed = 0;
  double send_ns = 0;
  const std::uint64_t delivered_before = plane.delivered();
  Phase phase;
  if (traced) StartTracing(TraceCapacity(specs.size() * 4));
  const std::uint64_t start_ns = NowNs() + 2'000'000;
  wire::WireRequest request;
  phase.pace = Pace(due, start_ns, [&](std::size_t i) {
    const PushSpec& spec = specs[i];
    if (spec.kind != PushSpec::Kind::kRequest) {
      const PushPlane::Published published =
          plane.Publish(spec, i, &stats->publish_ns);
      cursors[i] = published.cursor;
      owed += published.deliveries;
      report->Attempt(published.deliveries);
      ++stats->publishes;
      return;
    }
    report->Attempt();
    mix.Fill(spec.request, &request);
    wire::WireClient& client = *stack.clients[i % stack.clients.size()];
    const std::uint64_t t0 = NowNs();
    {
      trace::Span span("bench.client_send");
      stack.frames_sent += client.Submit(
          request, Completer(&done, report, i,
                             [&mix, &spec](const std::string& body) {
                               return mix.Check(spec.request, body);
                             }));
    }
    send_ns += static_cast<double>(NowNs() - t0);
  });
  const auto deadline = Deadline(Clock::now(), kDrainTimeoutSeconds);
  while ((plane.delivered() - delivered_before < owed ||
          done.count() < requests) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (done.count() < requests) {
    for (auto& c : stack.clients) c->Close();
    throw std::runtime_error("push-fanout responses did not all arrive");
  }
  // Events still missing here were shed by the server; their gap markers
  // trail the pump, so give them a moment before reconciling.
  if (plane.delivered() - delivered_before < owed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (traced) phase.stages = StopTracing(report);
  PushPlane::Reconciled reconciled =
      plane.Reconcile(specs, cursors, due, 0, start_ns);
  stats->drops += reconciled.drops;
  phase.ok = Rate::Between(reconciled.Delivered(),
                           due.empty() ? 0 : start_ns + due.front(),
                           reconciled.last_ns);
  phase.window_p50s =
      PhaseWindows(reconciled.due_ns, reconciled.latencies_us, seconds);
  phase.latencies_us = std::move(reconciled.latencies_us);
  phase.ops = phase.latencies_us.size();
  phase.send_us_per_op = Ratio(send_ns / 1e3, static_cast<double>(requests));
  return phase;
}

/// Closed loop: publish as fast as possible while at most kPushWindow
/// deliveries are outstanding; returns the delivery rate of each
/// kRateWindowNs window.
std::vector<double> PushClosedLoop(PushPlane& plane, const SeedSequence& seq,
                                   double seconds, std::uint64_t seq_base,
                                   Report* report) {
  const std::uint64_t delivered_before = plane.delivered();
  const std::vector<PushSpec> pool =
      PushSpecs(seq, 4096, plane.subscribers(), nullptr);
  std::vector<PushSpec> sent;
  std::vector<std::uint64_t> cursors;
  std::size_t owed = 0;
  double publish_ns = 0;
  WindowRates rates(kRateWindowNs, NowNs());
  const auto deadline = Deadline(Clock::now(), seconds);
  std::size_t next = 0;
  while (Clock::now() < deadline) {
    rates.Sample(NowNs(), plane.delivered() - delivered_before);
    if (owed - (plane.delivered() - delivered_before) + plane.subscribers() >
        kPushWindow) {
      // Sleep rather than spin: a spinning publisher takes a CPU from the
      // event loop and the four reader threads it is waiting on.
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPaceSliceNs));
      continue;
    }
    const PushSpec& spec = pool[next++ % pool.size()];
    if (spec.kind == PushSpec::Kind::kRequest) continue;
    const PushPlane::Published published =
        plane.Publish(spec, seq_base + sent.size(), &publish_ns);
    owed += published.deliveries;
    report->Attempt(published.deliveries);
    sent.push_back(spec);
    cursors.push_back(published.cursor);
  }
  rates.Finish(NowNs(), plane.delivered() - delivered_before);
  const auto drain = Deadline(Clock::now(), kDrainTimeoutSeconds);
  while (plane.delivered() - delivered_before < owed && Clock::now() < drain) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (plane.delivered() - delivered_before < owed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const PushPlane::Reconciled reconciled =
      plane.Reconcile(sent, cursors, {}, seq_base, 0);
  if (reconciled.drops != 0) report->Fail("closed-loop push dropped events");
  return rates.rates();
}

}  // namespace

void RunPushFanout(const Options& options, Report* report) {
  const SeedSequence root(options.seed);
  const StackShape shape = ServingShape(kPushConnections);
  auto stack = SetUp(options, shape, FirstSetUps(options), report);
  PushPlane plane(*stack, report);
  report->Param("shards", kShards);
  report->Param("event_loops", kEventLoops);
  report->Param("connections", kPushConnections);
  report->Param("subscriptions", static_cast<double>(plane.subscribers()));
  report->Param("open_loop_publish_rate", kPushRate);
  report->Param("broadcast_share", kBroadcastShare);
  report->Param("request_share", kPushRequestShare);
  report->Param("closed_loop_window_events", static_cast<double>(kPushWindow));

  (void)PushClosedLoop(plane, root.Fork("warmup"), kWarmupSeconds,
                       kClosedSeqBase, report);
  Digest digest;
  PushStats stats;
  const wire::WireStatsSnapshot wire_before = stack->server->Stats();
  if (!options.trace) {
    MeasureRounds(
        options, shape,
        [&](int round, double seconds) {
          return PushPhase(*stack, plane, root.Fork("open").Fork(round),
                           seconds, false, &digest, &stats, report);
        },
        [&](int round, double seconds) {
          return PushClosedLoop(plane, root.Fork("closed").Fork(round),
                                seconds, 2 * kClosedSeqBase, report);
        },
        report);
  } else {
    ProbeLayers(*stack, root, 1500, report);
    std::vector<wire::WireEvent> frames(2000);
    mobivine::support::SplitMix64 rng = root.Fork("codec").stream();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      frames[i].subscription_id = 1 + rng.NextBelow(64);
      frames[i].topic = wire::PushTopic::kNotification;
      frames[i].cursor = i + 1;
      frames[i].body = EventBody(
          i, 16 + static_cast<std::uint32_t>(rng.NextBelow(kMaxEventBody - 15)));
    }
    wire::WireEvent decoded;
    ProbeCodec(
        [&](std::size_t i, std::vector<std::uint8_t>& out) {
          wire::EncodeEvent(frames[i], out);
        },
        [&](const std::uint8_t* data, std::size_t size) {
          wire::FrameView frame;
          std::size_t consumed = 0;
          std::string error;
          return wire::DecodeFrame(data, size, &frame, &consumed, &error) ==
                     wire::DecodeStatus::kOk &&
                 wire::DecodeEvent(frame.payload, frame.payload_size, &decoded,
                                   &error);
        },
        frames.size(), report);
    const CounterSnapshot before = ReadCounters(*stack);
    const Phase untraced = PushPhase(*stack, plane, root.Fork("open"),
                                     UntracedSeconds(options), false, &digest,
                                     &stats, report);
    RecordCounters(before, ReadCounters(*stack), untraced.ops, report);
    RecordRun(untraced, report);
    report->Set("wire.client_send_us", untraced.send_us_per_op, "us/op");
    report->Set("gateway.push.publish_ns",
                Ratio(stats.publish_ns, static_cast<double>(stats.publishes)),
                "ns/call");
    Digest traced_digest;
    const Phase traced = PushPhase(*stack, plane, root.Fork("traced"),
                                   TracedSeconds(options), true, &traced_digest,
                                   &stats, report);
    RecordTraced(untraced, traced, report);
  }
  // Every event the server shed must have reached its subscriber as a
  // gap marker covering it: published == delivered + dropped.
  const std::uint64_t server_drops =
      stack->server->Stats().events_dropped - wire_before.events_dropped;
  if (server_drops != stats.drops) {
    report->Fail("server shed " + std::to_string(server_drops) +
                 " events but subscribers saw " + std::to_string(stats.drops) +
                 " inside gap markers");
  }
  report->Set("gateway.push.events_dropped", static_cast<double>(stats.drops),
              "count");
  CheckFramesIn(*stack, report);
  report->schedule_digest = digest.Hex();
  RecordFractions(report, static_cast<double>(stats.drops));
}

// ---------------------------------------------------------------------------
// tenant-overload
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kServiceUs = 1000;  // pinned by the fault plan
constexpr double kCapacity = kShards * 1e6 / kServiceUs;
constexpr double kBehavedShare = 0.3;  // of capacity, all behaved tenants
constexpr double kRogueShare = 1.5;    // of capacity
constexpr std::size_t kShedWatermark = 32;
constexpr std::uint32_t kRogue = 4;
/// Closed loop: requests in flight per shard. Gold's queue cap is 16 per
/// shard, and a slot is released only after the completion callback has
/// run, so half the cap keeps every closed-loop request admitted.
constexpr int kTenantWindowPerShard = 8;

std::vector<gw::TenantConfig> Tenants() {
  return {{1, "gold", 8}, {2, "silver", 4}, {3, "bronze", 2},
          {kRogue, "rogue", 1}};
}

StackShape TenantShape() {
  StackShape shape;
  shape.configure = [](gw::GatewayConfig& config) {
    config.shards = kShards;
    config.queue_capacity = 256;
    config.shed_watermark = kShedWatermark;
    config.tenants = Tenants();
    config.failover.fault_plan = *mobivine::support::FaultPlan::Parse(
        "*:*:latency=" + std::to_string(kServiceUs) + ":wall");
  };
  return shape;
}

struct TenantSpec {
  std::uint32_t tenant = 1;
  RequestSpec request;
};

struct TenantPhase : Phase {
  std::uint64_t rogue_submitted = 0, rogue_shed = 0;
  std::uint64_t behaved_submitted = 0, behaved_ok = 0;
  double submit_ns = 0;
};

/// Checks ok + failed + timed_out + shed == submitted for every tenant
/// over [before, after], and that each tenant was billed exactly the
/// requests submitted in its name.
void CheckBilling(const std::vector<gw::TenantSnapshot>& before,
                  const std::vector<gw::TenantSnapshot>& after,
                  const std::map<std::uint32_t, std::uint64_t>& submitted,
                  Report* report) {
  for (const gw::TenantSnapshot& a : after) {
    gw::TenantSnapshot b;
    for (const gw::TenantSnapshot& candidate : before) {
      if (candidate.id == a.id) b = candidate;
    }
    const std::uint64_t billed = a.submitted - b.submitted;
    const std::uint64_t accounted = (a.ok - b.ok) + (a.failed - b.failed) +
                                    (a.timed_out - b.timed_out) +
                                    (a.shed - b.shed);
    if (accounted != billed) {
      report->Fail("tenant " + a.name + ": ok+failed+timed_out+shed " +
                   std::to_string(accounted) + " != submitted " +
                   std::to_string(billed));
    }
    const auto it = submitted.find(a.id);
    const std::uint64_t sent = it == submitted.end() ? 0 : it->second;
    if (billed != sent) {
      report->Fail("tenant " + a.name + " billed " + std::to_string(billed) +
                   " of " + std::to_string(sent) + " submitted");
    }
  }
}

TenantPhase TenantOpenLoop(Stack& stack, const SeedSequence& seq,
                           double seconds, bool traced, Digest* digest,
                           Report* report) {
  // Tenants 1..3 offer kBehavedShare of capacity split by weight 8:4:2;
  // the rogue offers kRogueShare on its own.
  const double behaved_rate = kBehavedShare * kCapacity;
  const double total_rate = behaved_rate + kRogueShare * kCapacity;
  const std::vector<std::uint64_t> due =
      PoissonSchedule(seq.Fork("arrivals"), total_rate, seconds);
  mobivine::support::SplitMix64 rng = seq.Fork("tenants").stream();
  RequestMix mix(seq, kClientIds);
  std::vector<TenantSpec> specs(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double share = rng.NextUnit() * total_rate / behaved_rate * 14;
    specs[i].tenant = share < 8 ? 1 : share < 12 ? 2 : share < 14 ? 3 : kRogue;
    specs[i].request = mix.Next();
    digest->Add(due[i]);
    digest->Add(RequestMix::Word(specs[i].request) ^ specs[i].tenant);
  }

  const std::vector<gw::TenantSnapshot> tenants_before =
      stack.gateway->TenantStatsSnapshot();
  TenantPhase phase;
  phase.ops = due.size();
  Completions done(due.size());
  std::vector<std::uint8_t> shed(due.size(), 0);
  if (traced) StartTracing(TraceCapacity(due.size()));
  const std::uint64_t start_ns = NowNs() + 2'000'000;
  double submit_ns = 0;
  phase.pace =
      Pace(due, start_ns, [&](std::size_t i) {
        gw::Request request;
        mix.Fill(specs[i].request, &request);
        request.tenant = specs[i].tenant;
        request.on_complete = [&, i](const gw::Response& response) {
          trace::Span span("bench.client_recv");
          if (response.error == mobivine::core::ErrorCode::kOverloaded) {
            shed[i] = 1;
            report->Shed();
            done.Complete(i, false);
            return;
          }
          std::string why = response.ok ? mix.Check(specs[i].request,
                                                    response.payload)
                                        : "error: " + response.message;
          if (!why.empty()) report->Fail(why);
          done.Complete(i, why.empty());
        };
        report->Attempt();
        const std::uint64_t t0 = NowNs();
        {
          trace::Span span("bench.client_send");
          stack.gateway->Submit(std::move(request));
        }
        submit_ns += static_cast<double>(NowNs() - t0);
      });
  if (!done.Wait(due.size(), kDrainTimeoutSeconds) ||
      !stack.gateway->Drain(std::chrono::seconds(10))) {
    throw std::runtime_error("tenant-overload completions did not all arrive");
  }
  if (traced) phase.stages = StopTracing(report);
  phase.submit_ns = Ratio(submit_ns, static_cast<double>(due.size()));

  // Latency is the behaved tenants'; a shed behaved request is +inf.
  const std::vector<double> all = done.LatenciesUs(due, start_ns);
  std::vector<std::uint64_t> behaved_due;
  std::map<std::uint32_t, std::uint64_t> submitted;
  for (std::size_t i = 0; i < due.size(); ++i) {
    ++submitted[specs[i].tenant];
    if (specs[i].tenant == kRogue) {
      ++phase.rogue_submitted;
      phase.rogue_shed += shed[i];
    } else {
      ++phase.behaved_submitted;
      behaved_due.push_back(due[i]);
      phase.latencies_us.push_back(all[i]);
      if (all[i] != kFailedLatency) ++phase.behaved_ok;
    }
  }
  phase.window_p50s = PhaseWindows(behaved_due, phase.latencies_us, seconds);
  phase.ok = Rate::Between(static_cast<double>(done.ok_count()),
                           due.empty() ? 0 : start_ns + due.front(),
                           done.last_ok_ns());
  CheckBilling(tenants_before, stack.gateway->TenantStatsSnapshot(), submitted,
               report);
  return phase;
}

/// Closed loop on the gold tenant alone, kTenantWindowPerShard in flight
/// on each shard, which its queue cap always admits: the OK completion
/// rate at capacity of each kRateWindowNs window.
std::vector<double> TenantClosedLoop(Stack& stack, const SeedSequence& seq,
                                     double seconds, Report* report) {
  RequestMix mix(seq, kClientIds);
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> in_flight(kShards, 0);
  WindowRates rates(kRateWindowNs, NowNs());
  const auto deadline = Deadline(Clock::now(), seconds);
  std::atomic<std::uint64_t> ok{0};
  while (Clock::now() < deadline) {
    rates.Sample(NowNs(), ok.load(std::memory_order_relaxed));
    const RequestSpec spec = mix.Next();
    const std::uint32_t shard = stack.gateway->ShardFor(spec.client_id);
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return in_flight[shard] < kTenantWindowPerShard; });
      ++in_flight[shard];
    }
    gw::Request request;
    mix.Fill(spec, &request);
    request.tenant = 1;
    request.on_complete = [&, spec, shard](const gw::Response& response) {
      std::string why = response.ok ? mix.Check(spec, response.payload)
                                    : "error: " + response.message;
      if (response.error == mobivine::core::ErrorCode::kOverloaded) {
        report->Shed();
      } else if (!why.empty()) {
        report->Fail(why);
      }
      if (why.empty()) ok.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex);
      --in_flight[shard];
      cv.notify_one();
    };
    report->Attempt();
    stack.gateway->Submit(std::move(request));
  }
  rates.Finish(NowNs(), ok.load(std::memory_order_relaxed));
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] {
    return std::all_of(in_flight.begin(), in_flight.end(),
                       [](int n) { return n == 0; });
  });
  return rates.rates();
}

}  // namespace

void RunTenantOverload(const Options& options, Report* report) {
  const SeedSequence root(options.seed);
  const StackShape shape = TenantShape();
  auto stack = SetUp(options, shape, FirstSetUps(options), report);
  report->Param("shards", kShards);
  report->Param("service_us", static_cast<double>(kServiceUs));
  report->Param("capacity_rps", kCapacity);
  report->Param("behaved_offered_share", kBehavedShare);
  report->Param("rogue_offered_share", kRogueShare);
  report->Param("shed_watermark", static_cast<double>(kShedWatermark));
  report->Param("tenant_weights", "\"gold:8,silver:4,bronze:2,rogue:1\"");
  report->Param("closed_loop_window_per_shard", kTenantWindowPerShard);

  (void)TenantClosedLoop(*stack, root.Fork("warmup"), kWarmupSeconds, report);
  Digest digest;
  if (!options.trace) {
    MeasureRounds(
        options, shape,
        [&](int round, double seconds) -> Phase {
          return TenantOpenLoop(*stack, root.Fork("open").Fork(round), seconds,
                                false, &digest, report);
        },
        [&](int round, double seconds) {
          return TenantClosedLoop(*stack, root.Fork("closed").Fork(round),
                                  seconds, report);
        },
        report);
  } else {
    // Gateway::Call pays the pinned service time here, so fewer calls.
    ProbeLayers(*stack, root, 200, report);
    ProbeRequestCodec(root.Fork("open"), report);
    const CounterSnapshot before = ReadCounters(*stack);
    const TenantPhase untraced =
        TenantOpenLoop(*stack, root.Fork("open"), UntracedSeconds(options),
                       false, &digest, report);
    RecordCounters(before, ReadCounters(*stack), untraced.ops, report);
    RecordRun(untraced, report);
    report->Set("gateway.submit_ns", untraced.submit_ns, "ns");
    report->Set("gateway.tenant.rogue_shed_frac",
                Ratio(static_cast<double>(untraced.rogue_shed),
                      static_cast<double>(untraced.rogue_submitted)),
                "ratio");
    report->Set("gateway.tenant.behaved_ok_frac",
                Ratio(static_cast<double>(untraced.behaved_ok),
                      static_cast<double>(untraced.behaved_submitted)),
                "ratio");
    Digest traced_digest;
    const TenantPhase traced =
        TenantOpenLoop(*stack, root.Fork("traced"), TracedSeconds(options),
                       true, &traced_digest, report);
    RecordTraced(untraced, traced, report);
  }
  report->schedule_digest = digest.Hex();
  RecordFractions(report);
}

}  // namespace perfbench
