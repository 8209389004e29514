// The repo benchmark's measuring program (README.md in this directory).
//
//   perfbench --workload explore|dashboard|ingest --seed N --seconds S
//             --trace 0|1 [--smoke] [--workdir DIR] [--git-sha SHA]
//
// Prints run metadata and every metric by name and unit, then, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the workload untraced and then again with obs tracing on, and
// reports the per-layer metrics (plus trace.overhead_frac, the traced
// headline against the untraced one).

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cost/calibration.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "perfbench/perfbench.h"

namespace progidx {
namespace perfbench {
namespace {

/// Every per-layer metric, with its unit. A traced run reports each;
/// a layer that did no work on the workload reports 0.
std::vector<Metric> AllLayerMetrics() {
  std::vector<Metric> m = {
      {"storage.column_build_s", 0, "s"},
      {"cost.calibrate_s", 0, "s"},
      {"kernels.scan_gbps", 0, "GB/s"},
      {"kernels.partition_gbps", 0, "GB/s"},
      {"kernels.radix_scatter_gbps", 0, "GB/s"},
  };
  for (const std::string& id : IndexIds()) {
    m.push_back({"parallel.lane_speedup." + id, 0, "x"});
  }
  m.push_back({"parallel.pool_tasks", 0, "count"});
  m.push_back({"parallel.pool_steals", 0, "count"});
  for (const std::string& id : IndexIds()) {
    m.push_back({"core." + id + ".construct_s", 0, "s"});
    for (const std::string& phase : PhaseNames(id)) {
      m.push_back({"core." + id + "." + phase + "_s", 0, "s"});
      m.push_back({"core." + id + "." + phase + "_queries", 0, "count"});
    }
  }
  const std::vector<Metric> rest = {
      {"serve.epoch_size_mean", 0, "count"},
      {"serve.queue_wait_p99_us", 0, "us"},
      {"serve.read_epoch_frac", 0, "frac"},
      {"serve.degraded_frac", 0, "frac"},
      {"serve.shed_frac", 0, "frac"},
      {"persist.checkpoints", 0, "count"},
      {"persist.checkpoint_ms_p50", 0, "ms"},
      {"persist.checkpoint_ms_max", 0, "ms"},
      {"persist.wal_fsync_us_p50", 0, "us"},
      {"persist.stall_frac", 0, "frac"},
      {"persist.bytes_per_op", 0, "B"},
      {"updates.merges", 0, "count"},
      {"updates.delta_peak", 0, "count"},
      {"updates.rejected_frac", 0, "frac"},
      {"gen.late_p99_us", 0, "us"},
      {"trace.overhead_frac", 0, "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload explore|dashboard|ingest "
               "--seed N --seconds S --trace 0|1 [--smoke] [--workdir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

using WorkloadFn = void (*)(const Options&, bool, Report*);

}  // namespace
}  // namespace perfbench
}  // namespace progidx

int main(int argc, char** argv) {
  using namespace progidx;
  using namespace progidx::perfbench;
  Options opt;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return Usage();
    }
  }
  WorkloadFn run = nullptr;
  if (opt.workload == "explore") run = RunExplore;
  if (opt.workload == "dashboard") run = RunDashboard;
  if (opt.workload == "ingest") run = RunIngest;
  if (run == nullptr || !(opt.seconds > 0)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opt.workdir.c_str());
    return 1;
  }

  // The process's one lazy calibration, timed and kept out of every
  // measured region.
  const auto t0 = std::chrono::steady_clock::now();
  GlobalMachineConstants();
  const double calibrate_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Every workload runs its indexes at one lane (README.md, "Why one
  // lane"): on the shared 4-vCPU host, parallel phases waited on
  // whichever lane the host had descheduled, and in its contention
  // spells explore's pq session ran up to 1.8x slower at 4 lanes,
  // against 1.1-1.2x for the indexes that barely use them. The traced
  // run measures the parallel layer at kParallelLanes.
  parallel::SetLanesForTesting(1);

  Report plain;
  plain.Meta("git_sha", git_sha);
  plain.Meta("cpu", CpuModel());
  plain.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  plain.Meta("l3",
             ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size"));
  plain.Meta("kernel_tier", kernels::ActiveKernelName());
  plain.Meta("lanes", std::to_string(parallel::EffectiveLanes()));
  plain.Meta("workload", opt.workload);
  plain.Meta("seed", std::to_string(opt.seed));
  plain.Meta("seconds", Number(opt.seconds));
  plain.Meta("smoke", opt.smoke ? "1" : "0");
  run(opt, false, &plain);
  plain.E2E("ok_frac",
            plain.attempted == 0
                ? 0
                : 1.0 - static_cast<double>(plain.failed) /
                            static_cast<double>(plain.attempted),
            "frac");

  Report traced;
  if (opt.trace) {
    const std::string trace_path =
        opt.workdir + "/trace-" + std::to_string(::getpid()) + ".json";
    obs::EnableTracing(trace_path);
    run(opt, true, &traced);
    // Flush before removing, so the library's at-exit flush finds
    // nothing left to write.
    obs::DisableTracing();
    obs::FlushTrace();
    std::filesystem::remove(trace_path, ec);
    traced.Layer("cost.calibrate_s", calibrate_s, "s");
    double overhead = 0;
    if (plain.headline > 0 && traced.headline > 0) {
      overhead = plain.headline_lower_better
                     ? traced.headline / plain.headline - 1
                     : plain.headline / traced.headline - 1;
    }
    traced.Layer("trace.overhead_frac", overhead, "frac");
    std::set<std::string> have;
    for (const Metric& m : traced.per_layer) have.insert(m.name);
    for (const Metric& m : AllLayerMetrics()) {
      if (have.count(m.name) == 0) traced.per_layer.push_back(m);
    }
  }

  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  std::string meta = "{";
  for (const auto& [k, v] : plain.meta) {
    if (meta.size() > 1) meta += ", ";
    meta += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  meta += "}";
  std::printf("run %s\n", meta.c_str());
  for (const Metric& m : plain.end_to_end) {
    std::printf("e2e %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : traced.per_layer) {
    std::printf("layer %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const std::vector<Metric>& reported =
      opt.trace ? traced.per_layer : plain.end_to_end;
  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); i++) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            Number(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
