// Wall-clock throughput of the MobiVine hot paths (real CPU time, not the
// virtual clock). Every platform binding shares these paths: descriptor
// lookups, setProperty validation, the event loop, and the WebView bridge.
// The numbers here track the real per-call cost of the de-fragmentation
// layer across PRs; virtual-time semantics (Figure 10) are measured by
// bench_fig10_invocation and must not move when these improve.
//
// Methodology (documented in EXPERIMENTS.md): for each scenario, one
// untimed warm-up repetition followed by kReps timed repetitions of a
// fixed batch of operations on std::chrono::steady_clock; the best
// repetition (minimum wall time, i.e. least scheduler/cache interference)
// is reported. Results are printed as a table and written as JSON to
// BENCH_throughput.json (or argv[1]).
//
//   ./build/bench/bench_wallclock_throughput [output.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/property.h"
#include "core/registry.h"
#include "device/mobile_device.h"
#include "minijs/value.h"
#include "s60/s60_platform.h"
#include "sim/geo_track.h"
#include "sim/scheduler.h"
#include "webview/notification_table.h"
#include "webview/webview.h"

using namespace mobivine;

namespace {

constexpr int kReps = 5;  // timed repetitions; best (min time) reported

/// Defeat dead-code elimination without perturbing the measured loop.
inline void Escape(const void* p) { asm volatile("" ::"g"(p) : "memory"); }
inline void Escape(std::uint64_t v) { asm volatile("" ::"r"(v) : "memory"); }

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

std::unique_ptr<device::MobileDevice> MakeDevice() {
  device::DeviceConfig config;
  config.seed = 42;
  auto dev = std::make_unique<device::MobileDevice>(config);
  dev->gps().set_track(sim::GeoTrack::Stationary(28.5245, 77.1855, 210));
  dev->modem().RegisterSubscriber("+15550123");
  return dev;
}

struct Result {
  std::string name;
  std::uint64_t ops = 0;      // operations per repetition
  double best_seconds = 0;    // best timed repetition
  double ops_per_sec = 0;
};

/// Run `body(ops)` once untimed, then kReps timed; keep the fastest.
Result Measure(const std::string& name, std::uint64_t ops,
               const std::function<void(std::uint64_t)>& body) {
  using Clock = std::chrono::steady_clock;
  body(ops);  // warm-up
  double best = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto begin = Clock::now();
    body(ops);
    const std::chrono::duration<double> elapsed = Clock::now() - begin;
    if (elapsed.count() < best) best = elapsed.count();
  }
  Result r;
  r.name = name;
  r.ops = ops;
  r.best_seconds = best;
  r.ops_per_sec = static_cast<double>(ops) / best;
  return r;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

// 1. Descriptor lookup: DescriptorStore::Find by proxy name, mixing hits
//    over every registered proxy with misses (unknown names), i.e. the
//    "which descriptor backs this call?" step of every invocation.
Result DescriptorLookup() {
  const core::DescriptorStore& store = Store();
  std::vector<std::string> names = store.ProxyNames();
  names.emplace_back("NoSuchProxy");  // miss: unknown name
  names.emplace_back("Telephony2");   // miss: near-collision spelling
  return Measure("descriptor_lookup", 1'600'000, [&](std::uint64_t ops) {
    std::uint64_t sink = 0;
    // Wraparound counters, not `i % size`: an integer division per pick
    // would drown the lookups being measured.
    std::size_t ni = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      sink += reinterpret_cast<std::uintptr_t>(store.Find(names[ni]));
      if (++ni == names.size()) ni = 0;
    }
    Escape(sink);
  });
}

// 2. Full resolution chain: store -> descriptor -> binding plane ->
//    property spec + semantic method + syntactic plane (the five
//    dependent lookups an invocation plus its setProperty validation
//    perform back-to-back).
Result ResolutionChain() {
  const core::DescriptorStore& store = Store();
  const std::vector<std::string> names = store.ProxyNames();
  const std::vector<std::string> platforms = {"android", "s60", "webview",
                                              "iphone"};
  return Measure("resolution_chain", 400'000, [&](std::uint64_t ops) {
    std::uint64_t sink = 0;
    std::size_t ni = 0;
    std::size_t pi = 0;
    std::size_t qi = 0;
    std::size_t mi = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::string& name = names[ni];
      if (++ni == names.size()) ni = 0;
      const core::ProxyDescriptor* descriptor = store.Find(name);
      const core::BindingPlane* binding = descriptor->FindBinding(
          platforms[pi]);
      if (++pi == platforms.size()) pi = 0;
      if (binding != nullptr && !binding->properties.empty()) {
        if (qi >= binding->properties.size()) qi = 0;
        const core::PropertySpec* spec =
            binding->FindProperty(binding->properties[qi].name);
        ++qi;
        sink += reinterpret_cast<std::uintptr_t>(spec);
      }
      const auto& methods = descriptor->semantic().methods;
      if (mi >= methods.size()) mi = 0;
      const core::MethodSpec* method =
          descriptor->semantic().FindMethod(methods[mi].name);
      ++mi;
      sink += reinterpret_cast<std::uintptr_t>(method);
      const core::SyntacticPlane* syntax = descriptor->FindSyntactic(
          (i & 1) != 0 ? "java" : "javascript");
      sink += reinterpret_cast<std::uintptr_t>(syntax);
    }
    Escape(sink);
  });
}

// 3. setProperty through a real proxy with a binding plane attached:
//    validation against the descriptor (name + allowed values) plus the
//    PropertyBag store, alternating an int and a constrained string
//    property on the S60 Location binding (6 declared properties).
Result SetProperty() {
  auto dev = MakeDevice();
  s60::S60Platform platform(*dev);
  platform.grantPermission(s60::permissions::kLocation);
  core::ProxyRegistry registry(&Store());
  auto proxy = registry.CreateLocationProxy(platform);
  const std::string vertical = "verticalAccuracy";
  const std::string power = "powerConsumption";
  const std::string low = "low";
  const std::string high = "high";
  return Measure("set_property", 200'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops / 2; ++i) {
      proxy->setProperty(vertical, static_cast<long long>(i & 1023));
      proxy->setProperty(power, (i & 1) != 0 ? low : high);
    }
    Escape(proxy.get());
  });
}

// 4. Raw PropertyBag churn (no descriptor validation): typed set + get of
//    an int and a string key.
Result PropertyBagRoundTrip() {
  core::PropertyBag bag;
  const std::string alpha = "alpha";
  const std::string beta = "beta";
  const std::string payload = "a-reasonably-sized-property-value";
  return Measure("property_bag", 400'000, [&](std::uint64_t ops) {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < ops / 4; ++i) {
      bag.Set(alpha, static_cast<long long>(i));
      bag.Set(beta, payload);
      if (auto v = bag.Get<long long>(alpha)) sink += *v;
      if (auto s = bag.Get<std::string>(beta)) sink += s->size();
    }
    Escape(sink);
  });
}

// 5. Scheduler churn: schedule a batch, cancel every other event, run the
//    rest (the event-loop pattern of every polling binding).
Result SchedulerChurn() {
  sim::Scheduler scheduler;
  std::vector<sim::EventId> ids(64);
  return Measure("scheduler_churn", 800'000, [&](std::uint64_t ops) {
    std::uint64_t fired = 0;
    for (std::uint64_t batch = 0; batch < ops / 64; ++batch) {
      for (int i = 0; i < 64; ++i) {
        ids[i] = scheduler.ScheduleAfter(sim::SimTime::Micros(i & 7),
                                         [&fired] { ++fired; });
      }
      for (int i = 0; i < 64; i += 2) scheduler.Cancel(ids[i]);
      scheduler.Run();
    }
    Escape(fired);
  });
}

// 6. WebView bridge round-trip: C++ -> MiniJS function call -> C++ result
//    (the Figure 9 invocation surface without the platform API cost).
Result WebViewBridge() {
  auto dev = MakeDevice();
  android::AndroidPlatform platform(*dev);
  webview::WebView webview(platform);
  webview.loadScript("function bump(x) { return x + 1; }");
  return Measure("webview_bridge", 40'000, [&](std::uint64_t ops) {
    double acc = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      minijs::Value out = webview.callGlobal(
          "bump", {minijs::Value::Number(static_cast<double>(i & 255))});
      acc += out.as_number();
    }
    Escape(static_cast<std::uint64_t>(acc));
  });
}

// 7. Notification table churn: the Figure 6 polling path — post a burst of
//    callback notifications, then drain them from the JS side.
Result NotificationDrain() {
  webview::NotificationTable table;
  const std::int64_t channel = table.NewChannel();
  return Measure("notification_drain", 400'000, [&](std::uint64_t ops) {
    std::uint64_t sink = 0;
    for (std::uint64_t batch = 0; batch < ops / 8; ++batch) {
      for (int i = 0; i < 8; ++i) {
        table.Post(channel,
                   minijs::Value::String("notification-payload-0123456789"));
      }
      sink += table.Drain(channel).size();
    }
    Escape(sink);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string output = argc > 1 ? argv[1] : "BENCH_throughput.json";
  std::vector<Result> results = {
      DescriptorLookup(), ResolutionChain(), SetProperty(),
      PropertyBagRoundTrip(), SchedulerChurn(), WebViewBridge(),
      NotificationDrain(),
  };

  std::printf("Wall-clock hot-path throughput (best of %d reps)\n\n", kReps);
  std::printf("%-20s %12s %12s %16s\n", "scenario", "ops/rep", "best (ms)",
              "ops/sec");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (const Result& r : results) {
    std::printf("%-20s %12llu %12.2f %16.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops),
                r.best_seconds * 1e3, r.ops_per_sec);
  }

  std::ofstream json(output);
  json << "{\n  \"bench\": \"wallclock_throughput\",\n"
       << "  \"reps\": " << kReps << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
         << ", \"best_seconds\": " << r.best_seconds
         << ", \"ops_per_sec\": " << static_cast<std::uint64_t>(r.ops_per_sec)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", output.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", output.c_str());
  return 0;
}
