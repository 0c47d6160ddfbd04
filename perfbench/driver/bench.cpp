#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <condition_variable>
#include <sstream>
#include <stdexcept>

#include "android/android_platform.h"
#include "core/property.h"
#include "core/registry.h"
#include "iphone/iphone_platform.h"
#include "minijs/interpreter.h"
#include "minijs/parser.h"
#include "minijs/value.h"
#include "s60/s60_platform.h"
#include "sim/geo_track.h"
#include "support/buffer_pool.h"
#include "support/trace.h"

namespace perfbench {

namespace gw = mobivine::gateway;
namespace wire = mobivine::wire;
namespace trace = mobivine::support::trace;

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < 8) failures_.push_back(why);
}

std::vector<std::string> Report::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

// ---------------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------------

Stack::~Stack() {
  for (auto& client : clients) client->Close();
  if (server) server->Stop();
  if (gateway) gateway->Stop();
}

std::unique_ptr<Stack> TimeSetUps(const Options& options,
                                  const StackShape& shape, int runs,
                                  Report* report) {
  SetupTimes& times = report->setup;
  std::unique_ptr<Stack> stack;
  for (int run = 0; run < runs; ++run) {
    // The previous run's stack is torn down untimed. Its named threads
    // each registered a trace buffer, which the recorder keeps until a
    // reset; drop them so set-up churn does not pile up resident memory.
    stack.reset();
    trace::Reset();
    auto fresh = std::make_unique<Stack>();
    const auto t0 = Clock::now();
    fresh->store = std::make_unique<mobivine::core::DescriptorStore>(
        mobivine::core::DescriptorStore::LoadDirectory(options.descriptors));
    const auto t1 = Clock::now();
    gw::GatewayConfig config;
    if (shape.configure) shape.configure(config);
    config.store = fresh->store.get();
    fresh->gateway = std::make_unique<gw::Gateway>(std::move(config));
    const auto t2 = Clock::now();
    wire::WireServerConfig wire_config;
    wire_config.event_loops = shape.event_loops;
    fresh->server = std::make_unique<wire::WireServer>(*fresh->gateway,
                                                       wire_config);
    std::string error;
    if (!fresh->server->Start(&error)) {
      throw std::runtime_error("wire server start failed: " + error);
    }
    const auto t3 = Clock::now();
    for (int c = 0; c < shape.connections; ++c) {
      auto client = std::make_unique<wire::WireClient>();
      if (!client->Connect(fresh->server->port(), &error)) {
        throw std::runtime_error("wire client connect failed: " + error);
      }
      fresh->clients.push_back(std::move(client));
    }
    const auto t4 = Clock::now();
    times.total_s.push_back(MsBetween(t0, t4) / 1e3);
    times.descriptor_ms.push_back(MsBetween(t0, t1));
    times.gateway_ms.push_back(MsBetween(t1, t2));
    times.server_ms.push_back(MsBetween(t2, t3));
    stack = std::move(fresh);
  }
  if (stack && stack->store->size() == 0) {
    throw std::runtime_error("no proxy descriptors under " +
                             options.descriptors);
  }
  report->Set("setup_s", Median(times.total_s), "s");
  report->Set("core.descriptor_load_ms", Median(times.descriptor_ms), "ms");
  report->Set("gateway.start_ms", Median(times.gateway_ms), "ms");
  report->Set("wire.start_ms", Median(times.server_ms), "ms");
  return stack;
}

std::unique_ptr<Stack> SetUp(const Options& options, const StackShape& shape,
                             int runs, Report* report) {
  auto stack = TimeSetUps(options, shape, runs, report);
  stack->pollers = std::make_unique<IdlePollers>(AllowedCpus());
  return stack;
}

// ---------------------------------------------------------------------------
// Completions and open-loop figures
// ---------------------------------------------------------------------------

bool Completions::Wait(std::size_t expected, double timeout_s) const {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (count() < expected) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

std::vector<double> Completions::LatenciesUs(
    const std::vector<std::uint64_t>& due, std::uint64_t start_ns) const {
  std::vector<double> out(done_ns_.size(), kFailedLatency);
  for (std::size_t i = 0; i < done_ns_.size() && i < due.size(); ++i) {
    const std::uint64_t done = done_ns_[i].load(std::memory_order_relaxed);
    if (done == 0 || done == kFailedNs) continue;
    const std::uint64_t due_abs = start_ns + due[i];
    out[i] = done > due_abs ? static_cast<double>(done - due_abs) / 1e3 : 0.0;
  }
  return out;
}

std::uint64_t Completions::last_ok_ns() const {
  std::uint64_t last = 0;
  for (const auto& slot : done_ns_) {
    const std::uint64_t done = slot.load(std::memory_order_relaxed);
    if (done != kFailedNs) last = std::max(last, done);
  }
  return last;
}

std::size_t Completions::ok_count() const {
  std::size_t ok = 0;
  for (const auto& slot : done_ns_) {
    const std::uint64_t done = slot.load(std::memory_order_relaxed);
    if (done != 0 && done != kFailedNs) ++ok;
  }
  return ok;
}

namespace {
std::atomic<const IdlePollers*> g_pollers{nullptr};

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

IdlePollers::IdlePollers(int count) {
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
    clockid_t clock{};
    if (pthread_getcpuclockid(threads_.back().native_handle(), &clock) == 0) {
      clocks_.push_back(clock);
    }
  }
  g_pollers.store(this);
}

IdlePollers::~IdlePollers() {
  g_pollers.store(nullptr);
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) thread.join();
}

double IdlePollers::CpuSeconds() const {
  double total = 0;
  for (clockid_t clock : clocks_) total += ClockSeconds(clock);
  return total;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double process =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  const IdlePollers* pollers = g_pollers.load();
  return pollers == nullptr ? process : process - pollers->CpuSeconds();
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

int AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 1;
  return std::max(1, CPU_COUNT(&allowed));
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RecordOpenLoop(Report* report, std::vector<double> latencies_us,
                    const std::vector<double>& window_p50s,
                    std::vector<double> lateness_us, const Rate& goodput) {
  const LatencySummary latency = Summarize(latencies_us);
  const LatencySummary lateness = Summarize(lateness_us);
  report->Set("goodput_rps", goodput.PerSecond(), "1/s");
  report->Set("p50_us", Median(window_p50s), "us");
  report->Set("run.p50_whole_us", latency.p50, "us");
  report->Set("run.p99_us", latency.p99, "us");
  report->Set("run.latency_samples", static_cast<double>(latency.samples),
              "count");
  report->Set("run.lateness_p99_us", lateness.p99, "us");
  report->Param("latency_windows", static_cast<double>(window_p50s.size()));
  report->Param("latency_samples", static_cast<double>(latency.samples));
  report->Param("latency_failed_samples", static_cast<double>(latency.failed));
  report->Param("p99_is_quantile", latency.p99_quantile);
  report->Param("lateness_p50_us", lateness.p50);
  report->Param("lateness_p99_us", lateness.p99);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

const std::vector<std::string>& TraceStages() {
  static const std::vector<std::string> stages = {
      "client_send",      "wire.read",        "wire.decode",
      "wire.dispatch",    "gateway.submit",   "gateway.queue_wait",
      "gateway.serve",    "gateway.attempt",  "binding",
      "script.run",       "gateway.complete", "wire.write",
      "client_recv",      "publish",          "other"};
  return stages;
}

namespace {

std::string StageOf(const std::string& span) {
  if (span == "bench.client_send") return "client_send";
  if (span == "bench.client_recv") return "client_recv";
  if (span == "bench.publish") return "publish";
  if (span == "gateway.submit_script") return "gateway.submit";
  for (const std::string& stage : TraceStages()) {
    if (span == stage) return stage;
  }
  for (const char* platform : {"android.", "s60.", "iphone."}) {
    if (span.rfind(platform, 0) == 0) return "binding";
  }
  return "other";
}

}  // namespace

void StartTracing(std::size_t events_per_thread) {
  trace::SetPerThreadCapacity(events_per_thread);
  trace::Reset();
  trace::SetEnabled(true);
}

StageSelfTimes StopTracing(Report* report) {
  trace::SetEnabled(false);
  // Spans opened just before the switch still close and publish.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::ostringstream out;
  const trace::ExportStats stats = trace::ExportChromeTrace(out);
  trace::Reset();
  StageSelfTimes stages;
  std::vector<SpanRecord> spans;
  if (!ParseChromeTrace(out.str(), &spans)) {
    report->Fail("trace export did not parse");
    return stages;
  }
  if (stats.dropped != 0) {
    report->Fail("trace buffers dropped " + std::to_string(stats.dropped) +
                 " events");
  }
  report->Param("trace_events", static_cast<double>(stats.events));
  report->Param("trace_threads", static_cast<double>(stats.threads));
  for (auto& [name, self_us] :
       SelfTimes(std::move(spans), {"gateway.queue_wait"})) {
    std::vector<double>& stage = stages[StageOf(name)];
    stage.insert(stage.end(), self_us.begin(), self_us.end());
  }
  return stages;
}

void RecordTraceBreakdown(Report* report, const StageSelfTimes& stages,
                          std::size_t ops, double traced_p50_us,
                          double untraced_p50_us, double traced_cpu_us_per_op,
                          double untraced_cpu_us_per_op) {
  double accounted = 0;
  for (const std::string& stage : TraceStages()) {
    const auto it = stages.find(stage);
    const double per_op = it == stages.end() ? 0 : TypicalPerOp(it->second, ops);
    accounted += per_op;
    report->Set("trace." + stage + "_us", per_op, "us/op");
  }
  report->Set("trace.p50_us", traced_p50_us, "us");
  report->Set("trace.remainder_us", traced_p50_us - accounted, "us");
  report->Set("trace.overhead_p50_us", traced_p50_us - untraced_p50_us, "us");
  report->Set("trace.overhead_cpu_us_per_op",
              traced_cpu_us_per_op - untraced_cpu_us_per_op, "us/op");
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

namespace {

/// Mean ns per call of `fn` over `calls` calls, median of three rounds.
template <typename Fn>
double TimeNs(int calls, Fn&& fn) {
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) fn(i);
    rounds.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        calls);
  }
  return Median(rounds);
}

/// The proxies of one simulated device, built like a gateway shard's.
struct CoreWorld {
  explicit CoreWorld(const mobivine::core::DescriptorStore& store)
      : registry(&store) {
    mobivine::device::DeviceConfig config;
    device = std::make_unique<mobivine::device::MobileDevice>(config);
    device->gps().set_track(
        mobivine::sim::GeoTrack::Stationary(28.5245, 77.1855, 210.0));
    device->modem().RegisterSubscriber(gw::kGatewaySmsPeer);
    device->network().RegisterHost(
        gw::kGatewayHttpHost, [](const mobivine::device::HttpRequest& request) {
          return mobivine::device::HttpResponse::Ok(
              request.body.empty() ? "pong" : request.body);
        });
    android = std::make_unique<mobivine::android::AndroidPlatform>(*device);
    android->grantPermission(mobivine::android::permissions::kFineLocation);
    android->grantPermission(mobivine::android::permissions::kSendSms);
    android->grantPermission(mobivine::android::permissions::kInternet);
    s60 = std::make_unique<mobivine::s60::S60Platform>(*device);
    s60->grantPermission(mobivine::s60::permissions::kLocation);
    s60->grantPermission(mobivine::s60::permissions::kSmsSend);
    s60->grantPermission(mobivine::s60::permissions::kHttp);
    iphone = std::make_unique<mobivine::iphone::IPhonePlatform>(*device);

    location[0] = registry.CreateLocationProxy(*android);
    location[0]->setProperty("context", &android->application_context());
    location[1] = registry.CreateLocationProxy(*s60);
    location[2] = registry.CreateLocationProxy(*iphone);
    sms[0] = registry.CreateSmsProxy(*android);
    sms[0]->setProperty("context", &android->application_context());
    sms[1] = registry.CreateSmsProxy(*s60);
    sms[2] = registry.CreateSmsProxy(*iphone);
    http[0] = registry.CreateHttpProxy(*android);
    http[1] = registry.CreateHttpProxy(*s60);
    http[2] = registry.CreateHttpProxy(*iphone);
  }

  /// One call of `op` on platform index `p`; returns the result's text.
  std::string Dispatch(std::size_t p, gw::Op op, const std::string& payload) {
    const std::string url = std::string("http://") + gw::kGatewayHttpHost;
    switch (op) {
      case gw::Op::kGetLocation: {
        const auto fix = location[p]->getLocation();
        return std::to_string(fix.latitude) + "," +
               std::to_string(fix.longitude);
      }
      case gw::Op::kSendSms:
        return std::to_string(
            sms[p]->sendTextMessage(gw::kGatewaySmsPeer, payload, nullptr));
      case gw::Op::kHttpGet:
        return http[p]->get(url + "/ping").body;
      case gw::Op::kHttpPost:
        return http[p]->post(url + "/ingest", payload, "text/plain").body;
      case gw::Op::kSegmentCount:
        return std::to_string(sms[p]->segmentCount(payload));
    }
    return {};
  }

  mobivine::core::ProxyRegistry registry;
  std::unique_ptr<mobivine::device::MobileDevice> device;
  std::unique_ptr<mobivine::android::AndroidPlatform> android;
  std::unique_ptr<mobivine::s60::S60Platform> s60;
  std::unique_ptr<mobivine::iphone::IPhonePlatform> iphone;
  std::unique_ptr<mobivine::core::LocationProxy> location[3];
  std::unique_ptr<mobivine::core::SmsProxy> sms[3];
  std::unique_ptr<mobivine::core::HttpProxy> http[3];
};

}  // namespace

void ProbeCore(const mobivine::core::DescriptorStore& store,
               const mobivine::support::SeedSequence& seq, Report* report) {
  CoreWorld world(store);
  const std::string payload(120, 'p');
  static constexpr gw::Platform kPlatforms[] = {
      gw::Platform::kAndroid, gw::Platform::kS60, gw::Platform::kIphone};
  static constexpr gw::Op kOps[] = {gw::Op::kGetLocation, gw::Op::kSendSms,
                                    gw::Op::kHttpGet, gw::Op::kHttpPost,
                                    gw::Op::kSegmentCount};
  for (std::size_t p = 0; p < 3; ++p) {
    for (gw::Op op : kOps) {
      std::size_t bytes = 0;
      const double ns = TimeNs(200, [&](int) {
        bytes += world.Dispatch(p, op, payload).size();
      });
      report->Attempt();
      if (bytes == 0) report->Fail("core probe returned nothing");
      report->Set(std::string("core.dispatch_ns.") + gw::ToString(kPlatforms[p]) +
                      "." + gw::ToString(op),
                  ns, "ns");
    }
  }
  mobivine::core::LocationProxy& s60_location = *world.location[1];
  const double set_ns = TimeNs(2000, [&](int i) {
    s60_location.setProperty("horizontalAccuracy",
                             mobivine::core::PropertyValue(
                                 static_cast<long long>(10 + i % 50)));
  });
  report->Set("core.set_property_ns", set_ns, "ns");

  // Virtual time the proxies' meters charge (what the gateway exports as
  // op.charged_virtual_us) over a seeded request sequence: a count, the
  // same on every run with the same seed.
  const auto charged = [&world] {
    std::int64_t us = 0;
    for (std::size_t p = 0; p < 3; ++p) {
      us += world.location[p]->meter().charged().micros() +
            world.sms[p]->meter().charged().micros() +
            world.http[p]->meter().charged().micros();
    }
    return us;
  };
  RequestMix mix(seq, 64);
  constexpr int kMeteredCalls = 1500;
  const std::int64_t before = charged();
  for (int i = 0; i < kMeteredCalls; ++i) {
    const RequestSpec spec = mix.Next();
    (void)world.Dispatch(static_cast<std::size_t>(spec.platform), spec.op,
                         std::string(mix.Payload(spec)));
  }
  report->Set("core.virtual_us_per_op",
              static_cast<double>(charged() - before) / kMeteredCalls,
              "virtual-us/op");
}

void ProbeMiniJs(Report* report) {
  namespace js = mobivine::minijs;
  const char* const templates[] = {kCompositeScript, kComputeScript};
  std::vector<double> parse_us, run_us;
  for (const char* source : templates) {
    parse_us.push_back(
        TimeNs(200, [&](int) { (void)js::ParseProgram(source); }) / 1e3);
    const auto program =
        std::make_shared<const js::Program>(js::ParseProgram(source));
    run_us.push_back(TimeNs(200, [&](int) {
                       js::Interpreter interp;
                       auto mobile = js::Object::Make();
                       mobile->Set(
                           "invoke",
                           js::MakeHostFunction(
                               "invoke",
                               [](js::Interpreter&, const js::Value&,
                                  std::vector<js::Value>& args) -> js::Value {
                                 // A canned answer per op, like the
                                 // bindings' shapes.
                                 const std::string op =
                                     args.size() > 1 ? args[1].ToDisplayString()
                                                     : "";
                                 if (op == "getLocation") {
                                   return js::Value::String(NominalLocation());
                                 }
                                 if (op == "httpPost" && args.size() > 3) {
                                   return js::Value::String(
                                       args[3].ToDisplayString());
                                 }
                                 return js::Value::String("1");
                               }));
                       interp.SetGlobal("mobile", js::Value::Obj(mobile));
                       auto script_args = js::Object::Make();
                       script_args->Set("platform", js::Value::String("s60"));
                       script_args->Set("n", js::Value::String("200"));
                       script_args->Set("text", js::Value::String("hello"));
                       script_args->Set("ingest", js::Value::String("u"));
                       script_args->Set("peer", js::Value::String("p"));
                       script_args->Set("tag", js::Value::String("7"));
                       interp.SetGlobal("args", js::Value::Obj(script_args));
                       (void)interp.Run(program);
                     }) /
                     1e3);
  }
  report->Set("minijs.parse_us", Median(parse_us), "us");
  report->Set("minijs.run_us", Median(run_us), "us");
}

void ProbeInProcess(gw::Gateway& gateway,
                    const mobivine::support::SeedSequence& seq, int calls,
                    Report* report) {
  RequestMix mix(seq, 64);
  std::vector<double> call_us;
  for (int i = 0; i < calls; ++i) {
    const RequestSpec spec = mix.Next();
    gw::Request request;
    mix.Fill(spec, &request);
    const auto start = Clock::now();
    const gw::Response response = gateway.Call(std::move(request));
    call_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    report->Attempt();
    if (!response.ok) {
      report->Fail("in-process call failed: " + response.message);
    } else if (std::string why = mix.Check(spec, response.payload);
               !why.empty()) {
      report->Fail(why);
    }
  }
  report->Set("gateway.inproc_call_us", Median(call_us), "us");

  // Time the Submit call alone: one request in flight at a time, so the
  // figure is the admission-and-enqueue path, not queueing behind others.
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  double submit_ns_total = 0;
  const int submits = std::max(calls / 3, 1);
  for (int i = 0; i < submits; ++i) {
    const RequestSpec spec = mix.Next();
    gw::Request request;
    mix.Fill(spec, &request);
    done = false;
    request.on_complete = [&](const gw::Response& response) {
      std::string why = response.ok ? mix.Check(spec, response.payload)
                                    : "in-process submit failed";
      if (!why.empty()) report->Fail(why);
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      cv.notify_one();
    };
    report->Attempt();
    const auto start = Clock::now();
    gateway.Submit(std::move(request));
    submit_ns_total +=
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
  }
  report->Set("gateway.submit_ns", submit_ns_total / submits, "ns");
}

void ProbeCodec(
    const std::function<void(std::size_t, std::vector<std::uint8_t>&)>& encode,
    const std::function<bool(const std::uint8_t*, std::size_t)>& decode,
    std::size_t frames, Report* report) {
  std::vector<std::vector<std::uint8_t>> encoded(frames);
  for (std::size_t i = 0; i < frames; ++i) encode(i, encoded[i]);
  std::vector<std::uint8_t> scratch;
  const int rounds = 5;
  const double encode_ns = TimeNs(rounds, [&](int) {
                             for (std::size_t i = 0; i < frames; ++i) {
                               scratch.clear();
                               encode(i, scratch);
                             }
                           }) /
                           static_cast<double>(frames);
  bool all_ok = true;
  const double decode_ns = TimeNs(rounds, [&](int) {
                             for (const auto& frame : encoded) {
                               all_ok &= decode(frame.data(), frame.size());
                             }
                           }) /
                           static_cast<double>(frames);
  if (!all_ok) report->Fail("codec probe could not decode its own frames");
  report->Set("wire.encode_ns", encode_ns, "ns");
  report->Set("wire.decode_ns", decode_ns, "ns");
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

void CheckFramesIn(const Stack& stack, Report* report) {
  const std::uint64_t sent = stack.frames_sent.load();
  const std::uint64_t decoded = stack.server->Stats().frames_in;
  if (decoded != sent) {
    report->Fail("server decoded " + std::to_string(decoded) +
                 " frames, clients sent " + std::to_string(sent));
  }
}

CounterSnapshot ReadCounters(const Stack& stack) {
  CounterSnapshot snap;
  if (stack.server) snap.wire = stack.server->Stats();
  snap.pool = mobivine::support::BufferPool::WirePool().Stats();
  snap.gateway = stack.gateway->Stats();
  return snap;
}

void RecordCounters(const CounterSnapshot& before, const CounterSnapshot& after,
                    std::uint64_t ops, Report* report) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double n = static_cast<double>(ops);
  const auto& w0 = before.wire;
  const auto& w1 = after.wire;
  report->Set("wire.writev_per_frame",
              Ratio(delta(w0.writev_calls, w1.writev_calls),
                    delta(w0.frames_out, w1.frames_out) +
                        delta(w0.events_out, w1.events_out)),
              "count");
  report->Set("wire.bytes_per_op",
              Ratio(delta(w0.bytes_in, w1.bytes_in) +
                        delta(w0.bytes_out, w1.bytes_out),
                    n),
              "B/op");
  report->Set("wire.allocs_per_op",
              Ratio(delta(before.pool.misses, after.pool.misses), n), "count");
  report->Set("wire.backpressure_stalls",
              delta(w0.backpressure_stalls, w1.backpressure_stalls), "count");
  report->Set("wire.epollout_arms", delta(w0.epollout_arms, w1.epollout_arms),
              "count");
  const double hits = delta(before.pool.hits, after.pool.hits);
  const double misses = delta(before.pool.misses, after.pool.misses);
  report->Set("support.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");

  const gw::ShardSnapshot& g0 = before.gateway.totals;
  const gw::ShardSnapshot& g1 = after.gateway.totals;
  mobivine::support::HistogramSnapshot latency = g1.latency;
  mobivine::support::HistogramSnapshot earlier = g0.latency;
  for (std::size_t i = 0; i < latency.counts().size(); ++i) {
    latency.counts()[i] -= earlier.counts()[i];
  }
  report->Set("gateway.latency_p50_us", HistogramQuantile(latency, 0.50), "us");
  report->Set("gateway.latency_p99_us", HistogramQuantile(latency, 0.99), "us");
  report->Set("gateway.max_queue_depth", static_cast<double>(g1.max_queue_depth),
              "count");
  const double scripts = delta(g0.scripts, g1.scripts);
  const double cache_hits = delta(g0.script_cache_hits, g1.script_cache_hits);
  const double cache_misses =
      delta(g0.script_cache_misses, g1.script_cache_misses);
  report->Set("gateway.script.steps_per_op",
              Ratio(delta(g0.script_steps, g1.script_steps), scripts), "count");
  report->Set("gateway.script.invocations_per_op",
              Ratio(delta(g0.script_invocations, g1.script_invocations),
                    scripts),
              "count");
  report->Set("gateway.script.cache_hit_ratio",
              Ratio(cache_hits, cache_hits + cache_misses), "ratio");
}

}  // namespace perfbench
