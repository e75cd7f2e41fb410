// is_fig14: the paper's headline rare-event study (Fig. 14 at its
// near-optimal twist): Hosking-based importance sampling of
// P(Q_k > b) at m* = 3.2, k = 500, utilization 0.2, b = 25, on one
// thread. The Hosking conditional-mean dots (O(k) per step) dominate.
#include <cmath>
#include <cstring>
#include <optional>

#include "bench.h"
#include "core/model_builder.h"
#include "engine/accumulator.h"
#include "engine/run.h"
#include "fractal/hosking.h"
#include "is/is_estimator.h"
#include "is/likelihood.h"
#include "units.h"

namespace perfbench {

using namespace ssvbr;

namespace {

constexpr std::size_t kStopTime = 500;
constexpr double kTwist = 3.2;
constexpr double kUtilization = 0.2;
constexpr double kBuffer = 25.0;
constexpr std::size_t kCheckReps = 8192;
// Replications per timed batch (~5 ms) and per traced-run chunk.
constexpr std::size_t kBatchReps = 128;
constexpr std::size_t kChunkReps = 4096;

engine::EngineConfig engine_config(unsigned threads) {
  engine::EngineConfig config;
  config.threads = threads;
  return config;
}

/// Everything set-up builds: the fitted model, the Hosking table, the
/// engine.
struct IsSetup {
  IsSetup(std::span<const double> series, unsigned threads)
      : fitted(core::fit_unified_model(series)),
        background(fitted.model.background_correlation(), kStopTime),
        engine(engine_config(threads)) {
    const double mean = fitted.model.mean();
    settings.twisted_mean = kTwist;
    settings.service_rate = mean / kUtilization;
    settings.buffer = kBuffer * mean;
    settings.stop_time = kStopTime;
    settings.event = queueing::OverflowEvent::kFirstPassage;
  }

  engine::RunRequest request(std::size_t reps) const {
    engine::RunRequest req;
    req.kind = engine::EstimatorKind::kOverflowIs;
    req.is.model = &fitted.model;
    req.is.background = &background;
    req.is.settings = settings;
    req.is.settings.replications = reps;
    return req;
  }

  core::FittedModel fitted;
  fractal::HoskingModel background;
  engine::ReplicationEngine engine;
  is::IsOverflowSettings settings;
};

/// Serial replay of `reps` replications from `base`, with the engine's
/// stream layout (replication i uses base jumped i times) and shard
/// merge order, so its estimate is bit-identical to the engine's.
struct Replay {
  is::IsOverflowEstimate estimate;
  std::vector<unsigned char> hits;
  double wall_ns = 0.0;
};

Replay replay(const IsSetup& s, RandomEngine stream, std::size_t reps,
              std::size_t shard_size, SpanRecorder& rec, std::size_t first_rep = 0) {
  Replay out;
  out.hits.resize(reps);
  is::IsReplicationKernel kernel(s.fitted.model, s.background, 1, s.settings);
  engine::ScoreAccumulator total;
  const std::uint64_t t0 = now_ns();
  for (std::size_t lo = 0; lo < reps; lo += shard_size) {
    engine::ScoreAccumulator acc;
    const std::size_t hi = std::min(lo + shard_size, reps);
    for (std::size_t i = lo; i < hi; ++i) {
      rec.set_rep(static_cast<std::uint32_t>(first_rep + i));
      RandomEngine r = stream;
      is::IsReplicationKernel::Outcome o;
      {
        const auto span = rec.open("is.kernel.run_one");
        o = kernel.run_one(r);
      }
      acc.add(o.score, o.hit);
      out.hits[i] = o.hit ? 1 : 0;
      stream.jump();
    }
    if (lo == 0) {
      total = std::move(acc);
    } else {
      total.merge(acc);
    }
  }
  out.wall_ns = static_cast<double>(now_ns() - t0);
  out.estimate = is::make_is_overflow_estimate(total.mean(), total.sample_variance(),
                                               total.hits(), reps);
  return out;
}

/// Step counts of the same replications, replayed step by step with a
/// twisted HoskingSampler (the same draws and arithmetic as the
/// kernel), so the ledger knows how many Hosking steps each made.
struct Steps {
  std::vector<std::size_t> steps;
  std::vector<unsigned char> hits;
};

Steps count_steps(const IsSetup& s, RandomEngine stream, std::size_t reps) {
  Steps out;
  fractal::HoskingSampler sampler(s.background, kTwist);
  const core::MarginalTransform& h = s.fitted.model.transform();
  for (std::size_t i = 0; i < reps; ++i) {
    RandomEngine r = stream;
    sampler.reset();
    double w = 0.0;
    std::size_t n = kStopTime;
    bool hit = false;
    for (std::size_t k = 0; k < kStopTime; ++k) {
      w += h(sampler.next(r).value) - s.settings.service_rate;
      if (w > s.settings.buffer) {
        n = k + 1;
        hit = true;
        break;
      }
    }
    out.steps.push_back(n);
    out.hits.push_back(hit ? 1 : 0);
    stream.jump();
  }
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool identical(const is::IsOverflowEstimate& a, const is::IsOverflowEstimate& b) {
  return same_bits(a.probability, b.probability) &&
         same_bits(a.estimator_variance, b.estimator_variance) &&
         same_bits(a.effective_sample_size, b.effective_sample_size) && a.hits == b.hits &&
         a.replications == b.replications;
}

/// Pools IS estimates of consecutive batches into one estimate (exact
/// score moments: sum w and sum w^2 per batch).
struct ScorePool {
  double n = 0.0, sum_w = 0.0, sum_w2 = 0.0;
  std::size_t hits = 0;

  void add(const is::IsOverflowEstimate& e) {
    const double nb = static_cast<double>(e.replications);
    const double sw = e.probability * nb;
    const double s2 = e.estimator_variance * nb;
    n += nb;
    sum_w += sw;
    sum_w2 += s2 * (nb - 1.0) + e.probability * e.probability * nb;
    hits += e.hits;
  }

  is::IsOverflowEstimate estimate() const {
    const double mean = sum_w / n;
    const double var = (sum_w2 - n * mean * mean) / (n - 1.0);
    return is::make_is_overflow_estimate(mean, var, hits, static_cast<std::size_t>(n));
  }
};

/// Engine-vs-replay bit identity and kernel-vs-sampler agreement on
/// `reps` replications from `base`. Returns the mean Hosking steps per
/// replication.
double check_replay(IsSetup& s, const RandomEngine& base, std::size_t reps, Report& report) {
  RandomEngine rng = base;
  const is::IsOverflowEstimate eng = engine::run_with(s.request(reps), s.engine, rng).is_estimate;
  SpanRecorder off(false);
  const Replay rep = replay(s, base, reps, s.engine.shard_size(), off);
  report.check(identical(eng, rep.estimate),
               "is_fig14: engine estimate bit-identical to the serial replay");
  const Steps steps = count_steps(s, base, reps);
  report.check(steps.hits == rep.hits,
               "is_fig14: kernel hits match a step-by-step HoskingSampler replay");
  double total = 0.0;
  for (const std::size_t n : steps.steps) total += static_cast<double>(n);
  return total / static_cast<double>(reps);
}

void check_estimate(const is::IsOverflowEstimate& e, Report& report) {
  report.check(std::isfinite(e.probability) && e.probability > 0.0,
               "is_fig14: p is finite and positive");
  report.check(e.effective_sample_size >= 0.01 * static_cast<double>(e.replications),
               "is_fig14: ESS >= 1% of N");
}

Report timed(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  std::optional<IsSetup> s;
  const double setup_s = median_setup_s(s, series, opt.threads);

  RandomEngine rng(opt.seed);
  engine::run_with(s->request(kBatchReps), s->engine, rng);  // warm-up

  std::vector<double> rates;
  ScorePool pool;
  double elapsed = 0.0;
  while (elapsed < opt.seconds) {
    const auto t0 = Clock::now();
    const engine::RunResult res = engine::run_with(s->request(kBatchReps), s->engine, rng);
    const double dt = seconds_since(t0);
    elapsed += dt;
    rates.push_back(static_cast<double>(kBatchReps) / dt);
    report.check(res.complete(), "is_fig14: batch completed");
    pool.add(res.is_estimate);
  }
  const is::IsOverflowEstimate est = pool.estimate();
  check_estimate(est, report);
  const double mean_steps = check_replay(*s, rng, kCheckReps, report);

  const double reps_per_s = batch_throughput(rates);
  const double rel = est.ci95_halfwidth / est.probability / 0.10;
  std::fprintf(stderr,
               "# is_fig14: %zu batches of %zu, p=%.4g hw=%.3g%% ess=%.0f hits=%zu, "
               "%.2f steps/rep\n",
               rates.size(), kBatchReps, est.probability,
               100.0 * est.ci95_halfwidth / est.probability, est.effective_sample_size,
               est.hits, mean_steps);
  report.set("setup_s", setup_s);
  report.set("reps_per_s", reps_per_s);
  report.set("frames_per_s", reps_per_s * mean_steps);
  // Projected time to a 10% relative half-width at the measured
  // throughput: the work-normalized variance of the estimator.
  report.set("tts_10pct_s", static_cast<double>(est.replications) / reps_per_s * rel * rel);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

/// Cumulative isolated cost (ns) of HoskingModel::conditional_mean over
/// steps 0..s-1, tabulated at s = 0, 50, ..., kStopTime.
std::vector<double> cumulative_cond_mean_ns(const fractal::HoskingModel& model) {
  RandomEngine rng(21);
  std::vector<double> history(kStopTime);
  model.sample_path(rng, history);
  volatile double sink = 0.0;
  std::vector<double> cum{0.0};
  for (std::size_t s = 50; s <= kStopTime; s += 50) {
    cum.push_back(per_call_ns([&](std::size_t) {
      double acc = 0.0;
      for (std::size_t k = 0; k < s; ++k) acc += model.conditional_mean(k, history);
      sink = acc;
    }));
  }
  return cum;
}

double interpolate(const std::vector<double>& cum, std::size_t steps) {
  const std::size_t i = std::min<std::size_t>(steps / 50, cum.size() - 2);
  const double frac = static_cast<double>(steps - i * 50) / 50.0;
  return cum[i] + frac * (cum[i + 1] - cum[i]);
}

Report traced(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  IsSetup s(series, opt.threads);
  report_fit_costs(series, report);
  report.set("fractal.hosking.build_s", median_seconds([&] {
               const fractal::HoskingModel table(s.fitted.model.background_correlation(),
                                                 kStopTime);
             }));

  RandomEngine rng(opt.seed);
  engine::run_with(s.request(kBatchReps), s.engine, rng);  // warm-up
  const std::size_t chunk = kChunkReps;
  const std::size_t chunks = traced_chunks(opt.seconds);

  SpanRecorder off(false);
  SpanRecorder rec(true);
  engine::ReplicationEngine single(engine_config(1));
  PassWalls walls;
  ScorePool pool;
  Steps steps;
  bool identical_all = true;
  bool hits_match = true;
  for (std::size_t c = 0; c < chunks; ++c) {
    const RandomEngine base = rng;
    walls.plain_ns += replay(s, base, chunk, s.engine.shard_size(), off).wall_ns;
    const Replay traced_chunk = replay(s, base, chunk, s.engine.shard_size(), rec, c * chunk);
    walls.traced_ns += traced_chunk.wall_ns;
    RandomEngine r1 = base;
    is::IsOverflowEstimate e1, et;
    walls.engine1_ns +=
        wall_ns([&] { e1 = engine::run_with(s.request(chunk), single, r1).is_estimate; });
    walls.engine_ns +=
        wall_ns([&] { et = engine::run_with(s.request(chunk), s.engine, rng).is_estimate; });
    identical_all = identical_all && identical(e1, traced_chunk.estimate) &&
                    identical(et, traced_chunk.estimate);
    const Steps chunk_steps = count_steps(s, base, chunk);
    hits_match = hits_match && chunk_steps.hits == traced_chunk.hits;
    steps.steps.insert(steps.steps.end(), chunk_steps.steps.begin(), chunk_steps.steps.end());
    pool.add(traced_chunk.estimate);
  }
  const std::size_t reps = chunk * chunks;
  const is::IsOverflowEstimate estimate = pool.estimate();
  report.check(identical_all,
               "is_fig14: engine estimate bit-identical to the traced serial replay");
  report.check(hits_match, "is_fig14: kernel hits match a step-by-step HoskingSampler replay");
  check_estimate(estimate, report);

  // Isolated unit costs at this workload's configuration.
  const std::vector<double> cum = cumulative_cond_mean_ns(s.background);
  const double bm = box_muller_ns();
  const double value = transform_value_ns(s.fitted.model.transform());
  const double jump = jump_ns();
  volatile double sink = 0.0;
  const double lr_step = per_call_ns([&](std::size_t i) {
    is::LikelihoodRatioAccumulator lr;
    lr.add_step(0.25 + 1e-9 * static_cast<double>(i & 1023), 0.5, 0.1, 0.9);
    sink = lr.log_likelihood();
  });
  {
    RandomEngine r(22);
    std::vector<double> history(kStopTime);
    s.background.sample_path(r, history);
    double out = 0.0;
    const double sweep = per_call_ns([&](std::size_t) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kStopTime; ++k) {
        s.background.conditional_means_batch(k, history.data(), 1, 1, &out);
        acc += out;
      }
      sink = acc;
    });
    report.set("fractal.hosking.cond_means_ns", sweep / static_cast<double>(kStopTime));
  }

  const SpanRecorder::Totals kernel = rec.totals()["is.kernel.run_one"];
  double total_steps = 0.0, dots_ns = 0.0;
  for (const std::size_t n : steps.steps) {
    total_steps += static_cast<double>(n);
    dots_ns += interpolate(cum, n);
  }
  const double inner_ns = dots_ns + total_steps * (bm + value + lr_step);
  Ledger ledger;
  ledger.add("fractal.hosking.cond_mean", dots_ns);
  ledger.add("dist.normal_box_muller", total_steps * bm);
  ledger.add("core.transform.value", total_steps * value);
  ledger.add("is.likelihood.add_step", total_steps * lr_step);
  ledger.add("is.kernel.self", kernel.total_ns - inner_ns);
  ledger.add("engine.jump", static_cast<double>(reps) * jump);
  ledger.finish("is_fig14", walls.engine1_ns, reps, report);

  const double n = static_cast<double>(reps);
  report.set("fractal.hosking.cond_mean_ns", cum.back() / static_cast<double>(kStopTime));
  report.set("dist.normal_ns", fill_normal_ns());
  report.set("dist.box_muller_ns", bm);
  report.set("dist.jump_ns", jump);
  report.set("core.transform.value_ns", value);
  report.set("is.kernel.rep_ns", kernel.total_ns / n);
  report.set("is.lr.step_ns", lr_step);
  report.set("is.hit_frac", static_cast<double>(estimate.hits) / n);
  report.set("is.ess_frac", estimate.effective_sample_size / n);
  report.set("engine.overhead_frac",
             1.0 - kernel.total_ns / (static_cast<double>(opt.threads) * walls.engine_ns));
  report.set("trace.overhead_frac", walls.traced_ns / walls.plain_ns - 1.0);
  rec.write_jsonl(opt.out_dir + "/is_fig14-" + std::to_string(opt.seed) + "-spans.jsonl");
  std::fprintf(stderr, "# is_fig14 traced: %zu reps, %.1f steps/rep, kernel %.1f us/rep\n",
               reps, total_steps / n, kernel.total_ns / n * 1e-3);
  return report;
}

}  // namespace

Report run_is_fig14(const RunOptions& opt) { return opt.trace ? traced(opt) : timed(opt); }

}  // namespace perfbench
