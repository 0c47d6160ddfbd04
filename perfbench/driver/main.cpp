// perfbench_driver: the serving benchmark's measuring process.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       [--descriptors <dir>] [--record <path>] [--git-sha <sha>]
//       [--source-digest <hex>]
//
// Prints one record line ({"record": ...}: host fingerprint, seed,
// workload parameters, schedule digest, every figure measured) and, last,
// the result line: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 0 when every check passed, 1 when an operation failed its check,
// 2 on a usage, set-up or output error.
#include <malloc.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& EndToEnd() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},          {"throughput_rps", "1/s"},
      {"goodput_rps", "1/s"},    {"p50_us", "us"},
      {"cpu_us_per_op", "us"},
      {"peak_rss_mb", "MiB"}};
  return metrics;
}

/// Traffic figures a workload's own calls produce; a workload that makes
/// no such call reports 0.
const std::vector<std::string>& TrafficOnly() {
  static const std::vector<std::string> names = {
      "wire.client_send_us", "gateway.push.publish_ns",
      "gateway.push.events_dropped", "gateway.tenant.rogue_shed_frac"};
  return names;
}

const std::vector<MetricSpec>& PerLayer() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"wire.encode_ns", "ns"},
        {"wire.decode_ns", "ns"},
        {"wire.client_send_us", "us/op"},
        {"wire.writev_per_frame", "count"},
        {"wire.bytes_per_op", "B/op"},
        {"wire.allocs_per_op", "count"},
        {"wire.backpressure_stalls", "count"},
        {"wire.epollout_arms", "count"},
        {"wire.start_ms", "ms"},
        {"gateway.inproc_call_us", "us"},
        {"gateway.latency_p50_us", "us"},
        {"gateway.latency_p99_us", "us"},
        {"gateway.max_queue_depth", "count"},
        {"gateway.submit_ns", "ns"},
        {"gateway.tenant.rogue_shed_frac", "ratio"},
        {"gateway.tenant.behaved_ok_frac", "ratio"},
        {"gateway.script.steps_per_op", "count"},
        {"gateway.script.invocations_per_op", "count"},
        {"gateway.script.cache_hit_ratio", "ratio"},
        {"gateway.push.publish_ns", "ns/call"},
        {"gateway.push.events_dropped", "count"},
        {"gateway.start_ms", "ms"},
    };
    for (const char* platform : {"android", "s60", "iphone"}) {
      for (const char* op : {"getLocation", "sendSms", "httpGet", "httpPost",
                             "segmentCount"}) {
        m.push_back({std::string("core.dispatch_ns.") + platform + "." + op,
                     "ns"});
      }
    }
    m.push_back({"core.set_property_ns", "ns"});
    m.push_back({"core.descriptor_load_ms", "ms"});
    m.push_back({"core.virtual_us_per_op", "virtual-us/op"});
    m.push_back({"minijs.parse_us", "us"});
    m.push_back({"minijs.run_us", "us"});
    m.push_back({"support.pool_hit_ratio", "ratio"});
    for (const std::string& stage : TraceStages()) {
      m.push_back({"trace." + stage + "_us", "us/op"});
    }
    m.push_back({"trace.p50_us", "us"});
    m.push_back({"trace.remainder_us", "us"});
    m.push_back({"trace.overhead_p50_us", "us"});
    m.push_back({"trace.overhead_cpu_us_per_op", "us/op"});
    m.push_back({"run.error_frac", "ratio"});
    m.push_back({"run.shed_frac", "ratio"});
    m.push_back({"run.p50_whole_us", "us"});
    m.push_back({"run.p99_us", "us"});
    m.push_back({"run.lateness_p99_us", "us"});
    m.push_back({"run.latency_samples", "count"});
    return m;
  }();
  return metrics;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<wire-requests|wire-scripts|push-fanout|tenant-overload> "
               "--seed <n> --seconds <s> --trace <0|1> [--descriptors dir] "
               "[--record path] [--git-sha sha] [--source-digest hex]\n",
               why);
  return 2;
}

/// Writes `line` plus a newline to stdout and flushes; false on error.
bool PrintLine(const std::string& line) {
  return std::fputs(line.c_str(), stdout) >= 0 &&
         std::fputc('\n', stdout) != EOF && std::fflush(stdout) == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string record_path;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--descriptors") {
      options.descriptors = value;
    } else if (arg == "--record") {
      record_path = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  using RunFn = void (*)(const Options&, Report*);
  RunFn run = nullptr;
  if (options.workload == "wire-requests") run = RunWireRequests;
  if (options.workload == "wire-scripts") run = RunWireScripts;
  if (options.workload == "push-fanout") run = RunPushFanout;
  if (options.workload == "tenant-overload") run = RunTenantOverload;
  if (run == nullptr) return Usage("unknown workload");

  // One malloc arena: with one per thread, which arena a thread lands in
  // varies from run to run and moved peak RSS by a third between runs.
  mallopt(M_ARENA_MAX, 1);
  // Sleeps (the generator's pacing, the fault plan's wall latency on the
  // shard workers, which inherit this) wake within a microsecond instead
  // of the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  // One CPU for the whole process. On a shared virtual machine the
  // hypervisor takes time from the virtual CPUs, and a request whose path
  // hands off across several of them waits whenever any one is
  // descheduled; across runs the p50 then moved by more than ten times
  // with the host's load. On one CPU the hand-offs are context switches,
  // the idle virtual CPUs ask nothing of the host, and the closed-loop
  // capacity was no lower than on four (README.md).
  const int pinned_cpu = PinToOneCpu();
  if (pinned_cpu < 0) {
    std::fprintf(stderr, "perfbench: could not pin the process to one CPU\n");
    return 2;
  }

  Report report;
  report.Param("pinned_cpu", pinned_cpu);
  std::string error;
  try {
    run(options, &report);
  } catch (const std::exception& e) {
    error = e.what();
  }

  // Every declared metric must have been measured; figures a workload's
  // traffic cannot produce read 0.
  for (const std::string& name : TrafficOnly()) {
    if (report.metrics.count(name) == 0) {
      for (const auto& spec : PerLayer()) {
        if (spec.name == name) report.Set(name, 0, spec.unit);
      }
    }
  }
  MetricMap selected;
  for (const auto& spec : options.trace ? PerLayer() : EndToEnd()) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      if (error.empty()) error = "metric " + spec.name + " was not measured";
      continue;
    }
    if (it->second.unit != spec.unit) {
      if (error.empty()) error = "metric " + spec.name + " has the wrong unit";
    }
    selected[spec.name] = it->second;
  }

  const bool correct = error.empty() && report.failed() == 0 &&
                       report.attempted() > 0;
  std::string failures = "[";
  for (const std::string& why : report.failures()) {
    if (failures.size() > 1) failures += ", ";
    failures += JsonString(why);
  }
  failures += "]";
  report.Param("setup_runs", static_cast<double>(report.setup.total_s.size()));
  std::string params = "{";
  for (const auto& [name, value] : report.params) {
    if (params.size() > 1) params += ", ";
    params += JsonString(name) + ": " + value;
  }
  params += "}";
  const std::string record =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"host\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"git_sha\": " + JsonString(git_sha) +
      ", \"source_digest\": " + JsonString(source_digest) + "}" +
      ", \"params\": " + params +
      ", \"schedule_digest\": " + JsonString(report.schedule_digest) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted()) +
      ", \"failed\": " + std::to_string(report.failed()) +
      ", \"error\": " + JsonString(error) + ", \"failures\": " + failures +
      ", \"metrics\": " + MetricsJson(report.metrics) + "}";

  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  for (const std::string& why : report.failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  if (!record_path.empty()) {
    std::ofstream out(record_path);
    out << record << '\n';
    out.close();
    if (!out) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   record_path.c_str());
      return 2;
    }
  }
  // A run that could not set up or measure prints no result.
  if (!error.empty()) {
    (void)PrintLine("{\"record\": " + record + "}");
    return 2;
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted()) +
      ", \"failed\": " + std::to_string(report.failed()) +
      ", \"metrics\": " + MetricsJson(selected) + "}";
  if (!PrintLine("{\"record\": " + record + "}") || !PrintLine(result)) {
    return 2;
  }
  return correct ? 0 : 1;
}
