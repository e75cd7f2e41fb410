// Isolated unit costs of single layer functions, timed with a
// workload's own configuration, and the layer cost ledger that
// multiplies them by the call counts of the traced replay.
//
// Where one layer's work happens inside another layer's call (the
// Hosking dots inside IsReplicationKernel::run_one, the FFT inside a
// Davies-Harte path), no span can reach it from outside the library;
// the ledger then charges (isolated cost per call) x (calls made).
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>

#include "bench.h"
#include "core/marginal_transform.h"

namespace perfbench {

/// ns per sample of RandomEngine::fill_normal (ziggurat, 4096-blocks).
double fill_normal_ns();
/// ns per RandomEngine::normal() draw (Box-Muller).
double box_muller_ns();
/// ns per RandomEngine::jump().
double jump_ns();
/// ns per FftPlan::synthesize_real call at length `n`.
double fft_real_ns(std::size_t n);
/// ns per sample of MarginalTransform::apply over blocks of `block`.
double transform_apply_ns(const ssvbr::core::MarginalTransform& h, std::size_t block);
/// ns per scalar MarginalTransform::operator() call.
double transform_value_ns(const ssvbr::core::MarginalTransform& h);
/// ns per LindleyQueue::step with arrivals drawn from `arrivals`.
double lindley_step_ns(double service_rate, std::span<const double> arrivals);
/// ms per engine::checkpoint::save of a snapshot with `shards` hit-
/// counter shard records, written to `path` (removed afterwards).
double checkpoint_write_ms(const std::string& path, std::size_t shards);

/// The model fit and its stages, each timed in isolation (median of
/// three) on `series`: the whole core::fit_unified_model, the FFT
/// autocorrelation, the composite ACF fit, and the variance-time plus
/// R/S Hurst estimates. Sets core.fit_s, stats.acf_s, stats.acf_fit_s
/// and fractal.hurst_s.
void report_fit_costs(std::span<const double> series, Report& report);

/// Per-layer totals over the measured replications, reconciled against
/// the wall time they should explain.
class Ledger {
 public:
  /// Charge `ns` to `layer` (self time: exclusive of inner layers that
  /// are charged separately).
  void add(const std::string& layer, double ns);

  /// Set ledger.explained_frac (sum of layer totals over `wall_ns`) and
  /// ledger.unexplained_us_per_rep; print the table to stderr.
  void finish(const char* workload, double wall_ns, std::size_t reps,
              Report& report) const;

 private:
  std::map<std::string, double> layers_;
};

}  // namespace perfbench
