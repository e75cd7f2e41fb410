#include "units.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/model_builder.h"
#include "dist/random.h"
#include "engine/checkpoint.h"
#include "fft/fft.h"
#include "fractal/hurst.h"
#include "queueing/lindley.h"
#include "stats/acf_fit.h"
#include "stats/descriptive.h"

namespace perfbench {

using namespace ssvbr;

namespace {

// Results land here so the timed bodies cannot be optimized away.
volatile double g_sink = 0.0;

}  // namespace

double fill_normal_ns() {
  RandomEngine rng(11);
  std::vector<double> buf(4096);
  const double per_fill = per_call_ns([&](std::size_t) {
    rng.fill_normal(buf);
    g_sink = buf[0];
  });
  return per_fill / static_cast<double>(buf.size());
}

double box_muller_ns() {
  RandomEngine rng(12);
  return per_call_ns([&](std::size_t) { g_sink = rng.normal(0.5, 1.0); });
}

double jump_ns() {
  RandomEngine rng(13);
  return per_call_ns([&](std::size_t) {
    rng.jump();
    g_sink = static_cast<double>(rng() & 1u);
  });
}

double fft_real_ns(std::size_t n) {
  const std::shared_ptr<const fft::FftPlan> plan = fft::FftPlan::get(n);
  RandomEngine rng(14);
  std::vector<fft::Complex> spec(n / 2 + 1);
  for (auto& c : spec) c = fft::Complex(rng.normal(), rng.normal());
  std::vector<double> out(n);
  std::vector<fft::Complex> scratch;
  return per_call_ns([&](std::size_t) {
    plan->synthesize_real(spec, out, scratch);
    g_sink = out[0];
  });
}

double transform_apply_ns(const core::MarginalTransform& h, std::size_t block) {
  RandomEngine rng(15);
  std::vector<double> xs(block);
  rng.fill_normal(xs);
  std::vector<double> out(block);
  const double per_block = per_call_ns([&](std::size_t) {
    h.apply(xs, out);
    g_sink = out[0];
  });
  return per_block / static_cast<double>(block);
}

double transform_value_ns(const core::MarginalTransform& h) {
  RandomEngine rng(16);
  std::vector<double> xs(4096);
  rng.fill_normal(xs);
  return per_call_ns([&](std::size_t i) { g_sink = h(xs[i & 4095]); });
}

double lindley_step_ns(double service_rate, std::span<const double> arrivals) {
  queueing::LindleyQueue queue(service_rate);
  const std::size_t n = arrivals.size();
  return per_call_ns([&](std::size_t i) { g_sink = queue.step(arrivals[i % n]); });
}

double checkpoint_write_ms(const std::string& path, std::size_t shards) {
  engine::checkpoint::Snapshot snap;
  snap.fingerprint.estimator = "overflow_mc";
  snap.fingerprint.accumulator = "hit";
  snap.fingerprint.config_hash = 0x5eed;
  snap.fingerprint.shard_size = 256;
  snap.fingerprint.replications = shards * 256;
  snap.fingerprint.rng = RandomEngine(17).state();
  snap.shards_total = shards;
  snap.replications_done = shards * 256;
  for (std::size_t s = 0; s < shards; ++s) {
    snap.shards.push_back({s, {256, 10 + s % 7}});
  }
  const double ms = 1e3 * median_seconds([&] { engine::checkpoint::save(path, snap); }, 9);
  std::filesystem::remove(path);
  return ms;
}

void report_fit_costs(std::span<const double> series, Report& report) {
  const core::ModelBuilderOptions options;
  std::vector<double> acf;
  report.set("fractal.hurst_s", median_seconds([&] {
               g_sink = fractal::variance_time_analysis(series, options.variance_time).hurst +
                        fractal::rs_analysis(series, options.rs).hurst;
             }));
  report.set("stats.acf_s", median_seconds([&] {
               acf = stats::autocorrelation_fft(series, options.acf_max_lag);
             }));
  report.set("stats.acf_fit_s", median_seconds([&] {
               g_sink = stats::fit_composite_acf(acf, options.acf_fit).beta;
             }));
  report.set("core.fit_s", median_seconds([&] {
               g_sink = core::fit_unified_model(series, options).report.knee;
             }));
}

void Ledger::add(const std::string& layer, double ns) { layers_[layer] += ns; }

void Ledger::finish(const char* workload, double wall_ns, std::size_t reps,
                    Report& report) const {
  double explained = 0.0;
  for (const auto& [layer, ns] : layers_) explained += ns;
  const double per_rep = 1e-3 / static_cast<double>(std::max<std::size_t>(reps, 1));
  std::fprintf(stderr, "# ledger %s: %zu reps, wall %.3f ms\n", workload, reps,
               wall_ns * 1e-6);
  for (const auto& [layer, ns] : layers_) {
    std::fprintf(stderr, "#   %-28s %10.3f us/rep  %6.1f%%\n", layer.c_str(), ns * per_rep,
                 100.0 * ns / wall_ns);
  }
  std::fprintf(stderr, "#   %-28s %10.3f us/rep  %6.1f%%\n", "(unexplained)",
               (wall_ns - explained) * per_rep, 100.0 * (wall_ns - explained) / wall_ns);
  report.set("ledger.explained_frac", explained / wall_ns);
  report.set("ledger.unexplained_us_per_rep", (wall_ns - explained) * per_rep);
}

}  // namespace perfbench
