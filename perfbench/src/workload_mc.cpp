// mc_fig16_durable: crude Monte-Carlo overflow (Fig. 16 grid point at
// utilization 0.4, b = 25, k = 10 b, p ~ 4e-2) through
// ModelArrivalProcess over one shared Davies-Harte sampler, on
// min(4, nproc) engine threads, checkpointing every few shards.
// Replications are cheap, so sharding, jumps, merge and checkpoint
// writes take a visible share of the time.
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/background_sampler.h"
#include "core/model_builder.h"
#include "engine/accumulator.h"
#include "engine/run.h"
#include "fractal/davies_harte.h"
#include "queueing/arrival.h"
#include "queueing/overflow_mc.h"
#include "units.h"

namespace perfbench {

using namespace ssvbr;

namespace {

constexpr double kUtilization = 0.4;
constexpr double kBuffer = 25.0;
constexpr std::size_t kStopTime = 250;  // k = 10 b
constexpr std::size_t kCheckpointEvery = 64;
constexpr std::size_t kCheckReps = 16 * 256;
// Replications per timed batch (~20 ms) and per traced-run chunk.
constexpr std::size_t kBatchReps = 24 * 256;
constexpr std::size_t kChunkReps = 96 * 256;

engine::EngineConfig engine_config(unsigned threads) {
  engine::EngineConfig config;
  config.threads = threads;
  return config;
}

struct McSetup {
  McSetup(std::span<const double> series, unsigned threads, std::string checkpoint_path)
      : model(std::make_shared<const core::UnifiedVbrModel>(
            core::fit_unified_model(series).model)),
        sampler(std::make_shared<const core::BackgroundPathSampler>(
            *model, kStopTime, core::BackgroundGenerator::kDaviesHarte)),
        engine(engine_config(threads)),
        checkpoint(std::move(checkpoint_path)) {}

  double service_rate() const { return model->mean() / kUtilization; }
  double buffer() const { return kBuffer * model->mean(); }

  engine::RunRequest request(std::size_t reps) const {
    engine::RunRequest req;
    req.kind = engine::EstimatorKind::kOverflowMc;
    req.mc.make_arrivals = [model = model, sampler = sampler] {
      return std::make_unique<queueing::ModelArrivalProcess>(model, sampler);
    };
    req.mc.service_rate = service_rate();
    req.mc.buffer = buffer();
    req.mc.stop_time = kStopTime;
    req.mc.replications = reps;
    req.mc.event = queueing::OverflowEvent::kFirstPassage;
    req.checkpoint.path = checkpoint;
    req.checkpoint.every_shards = kCheckpointEvery;
    return req;
  }

  std::shared_ptr<const core::UnifiedVbrModel> model;
  std::shared_ptr<const core::BackgroundPathSampler> sampler;
  engine::ReplicationEngine engine;
  std::string checkpoint;
};

/// Serial replay with the engine's stream layout and shard structure.
struct Replay {
  engine::HitAccumulator total;
  double wall_ns = 0.0;
};

Replay replay(const McSetup& s, RandomEngine stream, std::size_t reps,
              std::size_t shard_size, SpanRecorder& rec, std::size_t first_rep = 0) {
  Replay out;
  queueing::ModelArrivalProcess arrivals(s.model, s.sampler);
  queueing::LindleyQueue queue(s.service_rate());
  const std::uint64_t t0 = now_ns();
  for (std::size_t lo = 0; lo < reps; lo += shard_size) {
    engine::HitAccumulator acc;
    const std::size_t hi = std::min(lo + shard_size, reps);
    for (std::size_t i = lo; i < hi; ++i) {
      rec.set_rep(static_cast<std::uint32_t>(first_rep + i));
      RandomEngine r = stream;
      bool hit = false;
      {
        const auto span = rec.open("queueing.run_overflow_replication");
        hit = queueing::run_overflow_replication(arrivals, queue, s.service_rate(),
                                                 s.buffer(), kStopTime, r,
                                                 queueing::OverflowEvent::kFirstPassage,
                                                 0.0);
      }
      acc.add(hit);
      stream.jump();
    }
    out.total.merge(acc);
  }
  out.wall_ns = static_cast<double>(now_ns() - t0);
  return out;
}

void check_setup(const McSetup& s, Report& report) {
  report.check(!s.sampler->hosking_fallback(),
               "mc_fig16_durable: the background is synthesized by Davies-Harte");
}

void check_batch(const engine::RunResult& res, std::size_t reps, Report& report) {
  report.check(res.complete() && res.replications_done == reps,
               "mc_fig16_durable: batch completed");
  report.check(res.mc.probability > 0.0 && res.mc.probability < 1.0,
               "mc_fig16_durable: 0 < p < 1");
  report.check(res.provenance.checkpoints_written >= 1,
               "mc_fig16_durable: checkpoints written");
}

std::string checkpoint_path(const RunOptions& opt) {
  return opt.out_dir + "/mc_fig16_durable-" + std::to_string(opt.seed) + ".ckpt";
}

Report timed(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  std::optional<McSetup> s;
  const double setup_s = median_setup_s(s, series, opt.threads, checkpoint_path(opt));
  check_setup(*s, report);

  RandomEngine rng(opt.seed);
  engine::run_with(s->request(kBatchReps), s->engine, rng);  // warm-up

  std::vector<double> rates;
  std::size_t hits = 0, reps = 0;
  double elapsed = 0.0;
  while (elapsed < opt.seconds) {
    const auto t0 = Clock::now();
    const engine::RunResult res = engine::run_with(s->request(kBatchReps), s->engine, rng);
    const double dt = seconds_since(t0);
    elapsed += dt;
    rates.push_back(static_cast<double>(kBatchReps) / dt);
    check_batch(res, kBatchReps, report);
    hits += res.mc.hits;
    reps += res.replications_done;
  }
  const queueing::OverflowEstimate est = queueing::make_overflow_estimate(hits, reps);

  // Bit identity: threaded engine (with checkpoints) against the replay.
  const RandomEngine base = rng;
  const engine::RunResult check = engine::run_with(s->request(kCheckReps), s->engine, rng);
  SpanRecorder off(false);
  const Replay rep = replay(*s, base, kCheckReps, s->engine.shard_size(), off);
  report.check(check.mc.hits == rep.total.hits() && rep.total.count() == kCheckReps,
               "mc_fig16_durable: totals bit-identical across the replay and the threaded run");
  std::filesystem::remove(s->checkpoint);

  const double reps_per_s = batch_throughput(rates);
  const double rel = est.ci95_halfwidth / est.probability / 0.10;
  std::fprintf(stderr, "# mc_fig16_durable: %zu batches of %zu, p=%.5g hw=%.3g%%\n",
               rates.size(), kBatchReps, est.probability,
               100.0 * est.ci95_halfwidth / est.probability);
  report.set("setup_s", setup_s);
  report.set("reps_per_s", reps_per_s);
  report.set("frames_per_s", reps_per_s * static_cast<double>(kStopTime));
  // Projected time to a 10% relative half-width at the measured
  // throughput: the work-normalized variance of the estimator.
  report.set("tts_10pct_s", static_cast<double>(reps) / reps_per_s * rel * rel);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

Report traced(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  McSetup s(series, opt.threads, checkpoint_path(opt));
  check_setup(s, report);
  report_fit_costs(series, report);

  RandomEngine rng(opt.seed);
  engine::run_with(s.request(kBatchReps), s.engine, rng);  // warm-up
  const std::size_t chunk = kChunkReps;
  const std::size_t chunks = traced_chunks(opt.seconds);

  SpanRecorder off(false);
  SpanRecorder rec(true);
  engine::ReplicationEngine single(engine_config(1));
  PassWalls walls;
  std::size_t hits = 0, writes1 = 0, writes = 0;
  bool identical_all = true;
  for (std::size_t c = 0; c < chunks; ++c) {
    const RandomEngine base = rng;
    walls.plain_ns += replay(s, base, chunk, s.engine.shard_size(), off).wall_ns;
    const Replay traced_chunk = replay(s, base, chunk, s.engine.shard_size(), rec, c * chunk);
    walls.traced_ns += traced_chunk.wall_ns;
    RandomEngine r1 = base;
    engine::RunResult one, threaded;
    walls.engine1_ns += wall_ns([&] { one = engine::run_with(s.request(chunk), single, r1); });
    walls.engine_ns +=
        wall_ns([&] { threaded = engine::run_with(s.request(chunk), s.engine, rng); });
    identical_all = identical_all && one.mc.hits == traced_chunk.total.hits() &&
                    threaded.mc.hits == traced_chunk.total.hits() &&
                    traced_chunk.total.count() == chunk;
    check_batch(threaded, chunk, report);
    hits += traced_chunk.total.hits();
    writes1 += one.provenance.checkpoints_written;
    writes += threaded.provenance.checkpoints_written;
  }
  std::filesystem::remove(s.checkpoint);
  const std::size_t reps = chunk * chunks;
  report.check(identical_all,
               "mc_fig16_durable: totals bit-identical across the replay and the threaded run");

  // Isolated unit costs at this workload's configuration.
  const std::size_t m = 2 * 256;  // Davies-Harte embedding of k = 250
  const double normal = fill_normal_ns();
  const double fft = fft_real_ns(m);
  const double apply = transform_apply_ns(s.model->transform(), kStopTime);
  const double jump = jump_ns();
  RandomEngine r(31);
  std::vector<double> path(kStopTime);
  fractal::DaviesHarteModel dh(s.model->background_correlation(), kStopTime, 0.05);
  fractal::DaviesHarteModel::Workspace dh_ws;
  const double dh_path = per_call_ns([&](std::size_t) { dh.sample_path(r, path, dh_ws); });
  core::BackgroundWorkspace ws;
  const double sampler_path =
      per_call_ns([&](std::size_t) { s.sampler->sample(r, path, ws); });
  queueing::ModelArrivalProcess arrivals(s.model, s.sampler);
  const double arrival_rep =
      per_call_ns([&](std::size_t) { arrivals.begin_replication(r, kStopTime); });
  // Snapshots grow by one record per completed shard, so the average
  // write carries about half of a chunk's shards.
  const double write_ms = checkpoint_write_ms(opt.out_dir + "/mc_fig16_durable-probe.ckpt",
                                              chunk / s.engine.shard_size() / 2);

  const SpanRecorder::Totals mc = rec.totals()["queueing.run_overflow_replication"];
  const double n = static_cast<double>(reps);
  Ledger ledger;
  ledger.add("dist.fill_normal", n * static_cast<double>(m) * normal);
  ledger.add("fft.synthesize_real", n * fft);
  ledger.add("fractal.dh.self", n * (dh_path - static_cast<double>(m) * normal - fft));
  ledger.add("core.sampler.self", n * (sampler_path - dh_path));
  ledger.add("core.transform.apply", n * static_cast<double>(kStopTime) * apply);
  ledger.add("queueing.arrival.self",
             n * (arrival_rep - sampler_path - static_cast<double>(kStopTime) * apply));
  ledger.add("queueing.mc.self", mc.total_ns - n * arrival_rep);
  ledger.add("engine.jump", n * jump);
  ledger.add("engine.checkpoint", static_cast<double>(writes1) * write_ms * 1e6);
  ledger.finish("mc_fig16_durable", walls.engine1_ns, reps, report);

  report.set("fractal.dh.path_ns", dh_path);
  report.set("fft.real_ns", fft);
  report.set("dist.normal_ns", normal);
  report.set("dist.box_muller_ns", box_muller_ns());
  report.set("dist.jump_ns", jump);
  report.set("core.transform.apply_ns", apply);
  report.set("core.transform.value_ns", transform_value_ns(s.model->transform()));
  report.set("core.sampler.path_ns", sampler_path);
  std::vector<double> frames(4096);
  r.fill_normal(frames);
  s.model->transform().apply(frames, frames);
  report.set("queueing.lindley.step_ns", lindley_step_ns(s.service_rate(), frames));
  report.set("queueing.arrival.rep_ns", arrival_rep);
  report.set("queueing.mc_rep_ns", mc.total_ns / n);
  report.set("queueing.mc.hit_frac", static_cast<double>(hits) / n);
  report.set("engine.overhead_frac",
             1.0 - mc.total_ns / (static_cast<double>(opt.threads) * walls.engine_ns));
  report.set("engine.checkpoint.write_ms", write_ms);
  report.set("engine.checkpoint.count", static_cast<double>(writes));
  report.set("trace.overhead_frac", walls.traced_ns / walls.plain_ns - 1.0);
  rec.write_jsonl(opt.out_dir + "/mc_fig16_durable-" + std::to_string(opt.seed) +
                  "-spans.jsonl");
  return report;
}

}  // namespace

Report run_mc_fig16_durable(const RunOptions& opt) {
  return opt.trace ? traced(opt) : timed(opt);
}

}  // namespace perfbench
