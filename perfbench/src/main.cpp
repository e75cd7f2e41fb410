// Benchmark program: runs one workload of the repository benchmark and
// prints one JSON result line.
//
//   ssvbr_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --out <dir>
//
// With --trace 0 the run is timed (no spans) and reports the end-to-end
// metrics; with --trace 1 it replays the same replications with spans
// and isolated unit timings and reports the per-layer metrics. Every
// run also executes the workload's output checks. The last stdout line
// is {"correct", "attempted", "failed", "metrics"}; the line before it
// stamps the run's environment. Human-readable detail goes to stderr.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "common/version.h"
#include "trace/scene_mpeg_source.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double batch_throughput(std::vector<double> rates) {
  std::fprintf(stderr, "# batch rates:");
  for (const double r : rates) std::fprintf(stderr, " %.6g", r);
  std::fprintf(stderr, "\n");
  std::sort(rates.begin(), rates.end(), std::greater<>());
  const std::size_t top = std::min(rates.size(), std::max<std::size_t>(3, rates.size() / 20));
  double sum = 0.0;
  for (std::size_t i = 0; i < top; ++i) sum += rates[i];
  return sum / static_cast<double>(top);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "# CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::set(const std::string& name, double value) {
  check(std::isfinite(value), "metric " + name + " is finite");
  if (!std::isfinite(value)) value = 0.0;
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

const std::vector<double>& standin_i_frames() {
  static const std::vector<double> series =
      ssvbr::trace::make_empirical_standin_trace().i_frame_series();
  return series;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

unsigned online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ssvbr_perfbench --workload <is_fig14|mc_fig16_durable|"
               "mux_tree_mixed|paxson_stream> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir>\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) usage("arguments come in --name value pairs");
  const auto need = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) usage((std::string("missing ") + key).c_str());
    return it->second;
  };
  opt.workload = need("--workload");
  opt.seed = std::stoull(need("--seed"));
  opt.seconds = std::stod(need("--seconds"));
  opt.trace = need("--trace") == "1";
  opt.out_dir = need("--out");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

void print_env(const RunOptions& opt, unsigned cpus) {
  const ssvbr::BuildInfo& build = ssvbr::build_info();
  const bool avx2 = ssvbr::simd::active_level() == ssvbr::simd::IsaLevel::kAvx2;
  std::printf(
      "{\"env\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"seconds\":%g,"
      "\"nproc\":%u,\"hardware_concurrency\":%u,\"threads\":%u,\"oversubscribed\":%s,"
      "\"simd\":\"%s\",\"build_type\":\"%s\",\"git_sha\":\"%s\",\"version\":\"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      opt.seconds, cpus, std::thread::hardware_concurrency(), opt.threads,
      opt.threads > cpus ? "true" : "false", avx2 ? "avx2" : "scalar", build.build_type,
      build.git_sha, build.version);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt = parse(argc, argv);
  const unsigned cpus = online_cpus();
  Report (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "is_fig14") {
    run = run_is_fig14;
    opt.threads = 1;
  } else if (opt.workload == "mc_fig16_durable") {
    run = run_mc_fig16_durable;
    opt.threads = std::min(4u, cpus);
  } else if (opt.workload == "mux_tree_mixed") {
    run = run_mux_tree_mixed;
    opt.threads = std::min(4u, cpus);
  } else if (opt.workload == "paxson_stream") {
    run = run_paxson_stream;
    opt.threads = 1;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  print_env(opt, cpus);
  std::fflush(stdout);

  Report report;
  try {
    report = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s threw: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : report.values()) {
      if (name == spec.name) {
        value = v;
        found = true;
      }
    }
    if (!found && required) {
      throw std::logic_error(std::string("workload did not report ") + spec.name);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              report.failed() == 0 ? "true" : "false", report.attempted(), report.failed(),
              metrics.c_str());
  return 0;
}
