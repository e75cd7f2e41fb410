// Shared plumbing of the benchmark program: run options, the metric
// catalog, the result a workload returns, and timing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Options of one benchmark run, parsed from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;   ///< spans and checkpoint files go here
  unsigned threads = 1;  ///< engine threads this workload uses
};

/// A metric's catalog entry. Every timed run reports every end-to-end
/// metric and every traced run every per-layer metric; a per-layer
/// metric of a layer the workload never calls reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"reps_per_s", "1/s"},  {"frames_per_s", "1/s"},
    {"tts_10pct_s", "s"},   {"peak_rss_mb", "MB"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"fractal.hosking.build_s", "s"},
    {"fractal.hosking.cond_means_ns", "ns"},
    {"fractal.hosking.cond_mean_ns", "ns"},
    {"fractal.dh.path_ns", "ns"},
    {"fractal.paxson.window_ns", "ns"},
    {"fractal.hurst_s", "s"},
    {"fft.real_ns", "ns"},
    {"dist.normal_ns", "ns"},
    {"dist.box_muller_ns", "ns"},
    {"dist.jump_ns", "ns"},
    {"core.fit_s", "s"},
    {"core.transform.apply_ns", "ns"},
    {"core.transform.value_ns", "ns"},
    {"core.sampler.path_ns", "ns"},
    {"core.stream.block_ns", "ns"},
    {"stats.acf_s", "s"},
    {"stats.acf_fit_s", "s"},
    {"queueing.lindley.step_ns", "ns"},
    {"queueing.arrival.rep_ns", "ns"},
    {"queueing.mc_rep_ns", "ns"},
    {"queueing.mc.hit_frac", "ratio"},
    {"is.kernel.rep_ns", "ns"},
    {"is.lr.step_ns", "ns"},
    {"is.hit_frac", "ratio"},
    {"is.ess_frac", "ratio"},
    {"net.context.build_s", "s"},
    {"net.population.vbr_ns", "ns"},
    {"net.population.activity_ns", "ns"},
    {"net.population.markov_ns", "ns"},
    {"net.population.abr_client_ns", "ns"},
    {"net.kernel.rep_ns", "ns"},
    {"net.slot_loop.self_ns", "ns"},
    {"engine.overhead_frac", "ratio"},
    {"engine.checkpoint.write_ms", "ms"},
    {"engine.checkpoint.count", "count"},
    {"ledger.explained_frac", "ratio"},
    {"ledger.unexplained_us_per_rep", "us"},
    {"trace.overhead_frac", "ratio"},
};

/// What one workload run produced: its metrics and its output checks
/// (each check is one attempted operation; a failed check is a failed
/// operation).
class Report {
 public:
  /// Record an output check; a failure is also described on stderr.
  void check(bool ok, const std::string& what);

  /// Set a metric by catalog name (the unit comes from the catalog).
  void set(const std::string& name, double value);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  const std::vector<std::pair<std::string, double>>& values() const noexcept {
    return values_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

/// Mean ns per call of `body(i)`: calibrates a round to ~2 ms (which
/// also warms up), then returns the median over `rounds` rounds.
template <class Body>
double per_call_ns(Body&& body, int rounds = 7) {
  std::size_t calls = 1;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    const std::uint64_t dt = now_ns() - t0;
    if (dt > 1'000'000 || calls > (std::size_t{1} << 26)) {
      calls = std::max<std::size_t>(1, calls * 2'000'000 / std::max<std::uint64_t>(dt, 1));
      break;
    }
    calls *= 4;
  }
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

/// Set-ups per timed run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Wall ns of one call of `fn`.
template <class Fn>
double wall_ns(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0);
}

/// Median wall seconds of `times` calls of `fn`.
template <class Fn>
double median_seconds(Fn&& fn, int times = 3) {
  std::vector<double> s;
  for (int r = 0; r < times; ++r) s.push_back(1e-9 * wall_ns(fn));
  return median(std::move(s));
}

/// Build `out` from `args` kSetups times, keeping the last, and return
/// the median build time in seconds (setup_s). Tearing down the
/// previous build is not timed.
template <class T, class... Args>
double median_setup_s(std::optional<T>& out, const Args&... args) {
  std::vector<double> s;
  for (int r = 0; r < kSetups; ++r) {
    out.reset();
    s.push_back(1e-9 * wall_ns([&] { out.emplace(args...); }));
  }
  return median(std::move(s));
}

/// Chunks of a traced run of `seconds`. The traced run sends each chunk
/// of replications through every pass (untraced replay, traced replay,
/// engine on one thread, engine on the workload's threads) back to
/// back, so host contention, which drifts over seconds, hits the passes
/// it compares alike.
inline std::size_t traced_chunks(double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(seconds / 2.5));
}

/// Wall time of each traced-run pass, summed over the chunks.
struct PassWalls {
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  double engine1_ns = 0.0;
  double engine_ns = 0.0;
};

/// Throughput of a timed run from its per-batch rates (logged to
/// stderr): the mean of the fastest twentieth of the batches (at least
/// three). Timed batches are short (tens of ms) and of fixed size, so
/// some batches of every run execute while the shared host is quiet;
/// other tenants only ever slow a batch down, so the fastest batches
/// measure the program rather than the host.
double batch_throughput(std::vector<double> rates);

/// The benchmark's input: the I-frame series of the stand-in trace
/// (19 886 frames). Generated once per process; not part of set-up.
const std::vector<double>& standin_i_frames();

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

// Workload entry points (one translation unit each).
Report run_is_fig14(const RunOptions& opt);
Report run_mc_fig16_durable(const RunOptions& opt);
Report run_mux_tree_mixed(const RunOptions& opt);
Report run_paxson_stream(const RunOptions& opt);

}  // namespace perfbench
