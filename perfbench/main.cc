// vdg_perfbench — drives the real catalog stack with one workload and
// prints every metric by name with its unit, then one JSON line:
//
//   vdg_perfbench --workload <caves-interactive|cms-campaign|sdss-derive>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--data-dir <dir>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, and reports the per-layer split plus the
// tracing overhead between the two passes. See perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef VDG_PERFBENCH_BUILD_TYPE
#define VDG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The JSON line carries exactly these, in BENCHMARK.json order. Tail
// percentiles (*_p99_us) are measured and printed on their own lines
// but are not in the JSON: on a shared 4-vCPU host their run-to-run
// spread is far wider than any bound a regression gate can use.
std::vector<MetricSpec> EndToEnd() {
  return {{"setup_s", "s"},           {"ops_per_s", "1/s"},
          {"read_p50_us", "us"},      {"discovery_p50_us", "us"},
          {"lineage_p50_us", "us"},   {"commit_p50_us", "us"},
          {"peak_rss_mb", "MB"}};
}

std::vector<MetricSpec> PerLayer() {
  std::vector<MetricSpec> specs = {
      {"workload.lag_p99_us", "us"},
      {"federation.client.self_us", "us"},
      {"federation.resilient.retries", "count"},
      {"federation.resilient.failovers", "count"},
      {"federation.server.residence_us", "us"},
      {"federation.server.queue_rejections", "count"},
      {"catalog.sharding.self_us", "us"},
      {"catalog.sharding.legs_per_op", "count"},
      {"catalog.find_us", "us"},
      {"catalog.point_read_us", "us"},
      {"catalog.commit_us", "us"},
      {"catalog.journal.bytes_per_user_byte", "ratio"},
      {"catalog.journal.reopen_s", "s"},
      {"planner.plan_ms", "ms"},
      {"executor.writeback_us", "us"},
      {"executor.writeback_calls", "count"},
      {"grid.run_s", "s"},
      {"grid.sim_makespan_s", "s"},
      {"process.cpu_us_per_op", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const char* metric : {"encode_ns", "decode_ns", "bytes_per_op"}) {
    for (const char* kind :
         {"GetDataset", "BatchGet", "HasDataset", "GetProvenanceStep",
          "FindDatasets", "FindDerivations", "Annotate", "ApplyBatch"}) {
      specs.push_back({std::string("catalog.wire.") + metric + "." + kind,
                       std::string(metric) == "bytes_per_op" ? "B" : "ns"});
    }
  }
  return specs;
}

void PrintMetric(const char* tag, const std::string& name,
                 const Outcome::Metric& m);

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "vdg_perfbench: %s\nusage: vdg_perfbench --workload "
               "<caves-interactive|cms-campaign|sdss-derive> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.data_dir = ".bench_build/perfbench-data";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("missing --workload");
  // cms-campaign runs one writer: the more of the host's cores its
  // closed loop keeps busy, the further a slow host phase moves every
  // cms metric (perfbench/README.md, "Workloads").
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  unsigned most = config.workload == "cms-campaign" ? 1u : 4u;
  config.clients = static_cast<int>(std::min(nproc, most));
  return config;
}

void RunWorkload(const RunConfig& config, Trace* trace, Outcome* out) {
  if (config.workload == "caves-interactive") {
    RunCaves(config, trace, out);
  } else if (config.workload == "cms-campaign") {
    RunCms(config, trace, out);
  } else if (config.workload == "sdss-derive") {
    RunSdss(config, trace, out);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintMetric(const char* tag, const std::string& name,
                 const Outcome::Metric& m) {
  if (m.samples > 0) {
    std::printf("%s %s = %s %s (n=%llu)\n", tag, name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  } else {
    std::printf("%s %s = %s %s\n", tag, name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config = ParseArgs(argc, argv);
  if (std::strcmp(VDG_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "vdg_perfbench: refusing to report from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 VDG_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Outcome plain;
  RunWorkload(config, nullptr, &plain);
  plain.Set("peak_rss_mb", PeakRssMb(), "MB");
  Outcome traced;
  Trace trace;
  if (config.trace) {
    RunWorkload(config, &trace, &traced);
    traced.Set("trace.overhead_frac",
               traced.overhead_basis_us / plain.overhead_basis_us - 1.0,
               "ratio");
  }

  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# vdg_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("context nproc = %u\n", nproc);
  std::printf("context build_type = %s\n", VDG_PERFBENCH_BUILD_TYPE);
  std::printf("context shards = %d\n",
              config.workload == "sdss-derive" ? 1 : kShards);
  std::printf("context server_workers = %zu\n", kServerWorkers);
  std::printf("context load_threads = %d\n",
              config.workload == "sdss-derive" ? 1 : config.clients);
  std::printf("context transport = AF_UNIX socketpair, Resilient -> Wire\n");
  std::printf("context seed = %llu\n",
              static_cast<unsigned long long>(config.seed));
  for (const auto& [key, value] : plain.context) {
    std::printf("context %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [key, value] : traced.context) {
    bool same = std::find(plain.context.begin(), plain.context.end(),
                          std::make_pair(key, value)) != plain.context.end();
    if (!same) std::printf("context traced.%s = %s\n", key.c_str(), value.c_str());
  }
  std::printf("context error_rate = %s (%llu failed or refused of %llu)\n",
              JsonNumber(plain.attempted == 0
                             ? 1.0
                             : static_cast<double>(plain.failed) /
                                   static_cast<double>(plain.attempted))
                  .c_str(),
              static_cast<unsigned long long>(plain.failed),
              static_cast<unsigned long long>(plain.attempted));

  const Outcome& reported = config.trace ? traced : plain;
  std::vector<MetricSpec> specs = config.trace ? PerLayer() : EndToEnd();
  // No faults are injected, so a failed or refused operation is a wrong
  // result too: dropping slow requests must not pass as a latency gain.
  for (Outcome* o : {&plain, &traced}) {
    if (o->failed > 0) {
      o->Fail(std::to_string(o->failed) + " of " +
              std::to_string(o->attempted) +
              " operations failed or were refused");
    }
  }
  bool correct = plain.check_failures.empty() &&
                 traced.check_failures.empty() && plain.attempted > 0;
  for (const Outcome* o : {&plain, &traced}) {
    for (const std::string& failure : o->check_failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
  }
  // Measured values outside the JSON (tail percentiles, or the
  // end-to-end pass of a traced run) still get printed.
  for (const auto& [name, metric] : plain.metrics) {
    bool in_json = !config.trace &&
                   std::any_of(specs.begin(), specs.end(),
                               [&](const MetricSpec& s) { return s.name == name; });
    if (!in_json) PrintMetric("info", name, metric);
  }
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = reported.metrics.find(spec.name);
    double value = 0;
    if (it == reported.metrics.end()) {
      if (!config.trace) correct = false;  // every end-to-end metric applies
      std::printf("metric %s = n/a for this workload\n", spec.name.c_str());
    } else {
      value = it->second.value;
      PrintMetric("metric", spec.name, it->second);
    }
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  const Outcome& counted = config.trace ? traced : plain;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(counted.attempted),
              static_cast<unsigned long long>(counted.failed),
              json.c_str() + 1);
  return correct ? 0 : 1;
}
