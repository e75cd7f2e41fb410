// mux_tree_mixed: a 3-level fanout-2 ATM multiplexer tree (4096 slots,
// 512 warm-up) fed by every source kind — two 1000-source unified-model
// populations, an activity-modulated population, a Markov-chain LRD
// population and one chunked ABR streaming client — plus an AIMD ABR
// flow from a leaf to the root, on min(4, nproc) engine threads without
// checkpoints. Every class uses the Davies-Harte background: with
// Hosking a 4096-slot path exceeds the coefficient-table cap and falls
// back to O(n^2) streaming, which would make this a second Hosking
// workload. The only workload that spends its time in the net layer.
#include <cmath>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/model_builder.h"
#include "engine/replication_engine.h"
#include "fractal/davies_harte.h"
#include "net/run.h"
#include "net/simulator.h"
#include "stats/descriptive.h"
#include "units.h"

namespace perfbench {

using namespace ssvbr;

namespace {

constexpr std::size_t kSlots = 4096;
constexpr std::size_t kWarmup = 512;
constexpr std::size_t kLevels = 3;
constexpr std::size_t kPopulation = 1000;
constexpr std::size_t kCheckReps = 128;
// Replications per timed batch (~50 ms) and per traced-run chunk.
constexpr std::size_t kBatchReps = 192;
constexpr std::size_t kChunkReps = 256;

engine::EngineConfig engine_config(unsigned threads) {
  engine::EngineConfig config;
  config.threads = threads;
  config.shard_size = 2;
  return config;
}

/// The ABR client's per-slot bandwidth trace: 64 capacities drawn from
/// the run's seed, averaging about three source-means per slot.
std::vector<double> bandwidth_trace(std::uint64_t seed, double mean) {
  RandomEngine rng(seed ^ 0xABCDEF12345ULL);
  std::vector<double> trace(64);
  for (double& c : trace) c = mean * rng.uniform(0.0, 6.0);
  return trace;
}

net::ScenarioConfig scenario(const std::shared_ptr<const core::UnifiedVbrModel>& model,
                             std::uint64_t seed) {
  const double m = model->mean();
  const double leaf = static_cast<double>(kPopulation) * m;
  // Each level has less headroom than the one below it, so every level
  // queues: the root carries about 3.85 leaf loads plus the AIMD flow.
  const std::vector<double> service{1.10 * leaf, 2.05 * leaf, 3.95 * leaf};
  const std::vector<double> buffer{1.5 * leaf, 3.0 * leaf, 6.0 * leaf};
  std::vector<net::NodeConfig> nodes =
      net::make_mux_tree(kLevels, 2, service, buffer).nodes();
  // The root's P(Q > 0.1 leaf load): the estimate tts_10pct_s tracks.
  nodes.back().overflow_threshold = 0.1 * leaf;

  net::ScenarioConfig cfg;
  cfg.topology = net::Topology(std::move(nodes));
  cfg.slots = kSlots;
  cfg.warmup = kWarmup;
  const std::vector<std::size_t> leaves = net::mux_tree_leaves(kLevels, 2);
  const auto make_class = [&](net::SourceKind kind, std::size_t ingress) {
    net::SourceClassConfig c;
    c.kind = kind;
    c.model = model;
    c.population = kPopulation;
    c.ingress = ingress;
    c.generator = core::BackgroundGenerator::kDaviesHarte;
    return c;
  };
  cfg.classes.push_back(make_class(net::SourceKind::kVbrModel, leaves[0]));
  cfg.classes.push_back(make_class(net::SourceKind::kVbrModel, leaves[1]));
  net::SourceClassConfig activity = make_class(net::SourceKind::kActivityModulated, leaves[2]);
  activity.activity.busy_mean_frames = 40.0;
  activity.activity.idle_mean_frames = 10.0;
  activity.activity.idle_rate = 0.1 * m;
  cfg.classes.push_back(activity);
  net::SourceClassConfig markov = make_class(net::SourceKind::kMarkovLrd, leaves[3]);
  markov.markov_hurst = 0.85;
  markov.markov_on_rate = 2.0 * m;
  markov.markov_off_rate = 0.0;
  cfg.classes.push_back(markov);
  net::SourceClassConfig client = make_class(net::SourceKind::kAbrClient, leaves[0]);
  client.population = 1;
  client.abr_client.bandwidth_trace = bandwidth_trace(seed, m);
  cfg.classes.push_back(client);

  cfg.abr.enabled = true;
  cfg.abr.ingress = leaves[1];
  cfg.abr.initial_rate = m;
  cfg.abr.min_rate = 0.1 * m;
  cfg.abr.peak_rate = 0.1 * leaf;
  cfg.abr.additive_increase = 0.5 * m;
  cfg.abr.decrease_factor = 0.5;
  cfg.abr.queue_threshold = 0.05 * leaf;
  return cfg;
}

/// Merged totals plus the per-replication root overflow fraction (whose
/// sample variance gives the estimate's confidence interval).
struct MuxAccumulator {
  net::TopologyAccumulator totals;
  stats::RunningStats root_overflow;

  void add(const net::ScenarioStats& s) {
    totals.add(s);
    root_overflow.add(static_cast<double>(s.nodes.back().overflow_slots) /
                      static_cast<double>(s.measured_slots));
  }
  void merge(const MuxAccumulator& other) {
    totals.merge(other.totals);
    root_overflow.merge(other.root_overflow);
  }
};

struct MuxSetup {
  MuxSetup(std::span<const double> series, unsigned threads, std::uint64_t seed)
      : model(std::make_shared<const core::UnifiedVbrModel>(
            core::fit_unified_model(series).model)),
        context(scenario(model, seed)),
        engine(engine_config(threads)) {}

  /// `reps` replications on `eng` (this set-up's engine or another).
  MuxAccumulator run(engine::ReplicationEngine& eng, std::size_t reps, RandomEngine& rng) const {
    return eng.run<MuxAccumulator>(reps, rng, [this] {
      return [kernel = net::ScenarioKernel(context)](
                 std::size_t, RandomEngine& stream, MuxAccumulator& acc) mutable {
        acc.add(kernel.run_one(stream));
      };
    });
  }

  std::shared_ptr<const core::UnifiedVbrModel> model;
  net::ScenarioContext context;
  engine::ReplicationEngine engine;
};

/// Serial replay with the engine's stream layout and shard merge order.
struct Replay {
  MuxAccumulator total;
  double wall_ns = 0.0;
};

Replay replay(const MuxSetup& s, RandomEngine stream, std::size_t reps,
              std::size_t shard_size, SpanRecorder& rec, std::size_t first_rep = 0) {
  Replay out;
  net::ScenarioKernel kernel(s.context);
  const std::uint64_t t0 = now_ns();
  for (std::size_t lo = 0; lo < reps; lo += shard_size) {
    MuxAccumulator acc;
    const std::size_t hi = std::min(lo + shard_size, reps);
    for (std::size_t i = lo; i < hi; ++i) {
      rec.set_rep(static_cast<std::uint32_t>(first_rep + i));
      RandomEngine r = stream;
      const auto span = rec.open("net.kernel.run_one");
      acc.add(kernel.run_one(r));
      stream.jump();
    }
    if (lo == 0) {
      out.total = std::move(acc);
    } else {
      out.total.merge(acc);
    }
  }
  out.wall_ns = static_cast<double>(now_ns() - t0);
  return out;
}

/// Per-node conservation arrived = served + dropped + end_queue on
/// merged totals (sums of doubles, so to a relative 1e-9).
void check_conservation(const net::TopologyAccumulator& t, Report& report) {
  bool ok = t.count() > 0;
  for (const auto& node : t.nodes()) {
    const double rhs = node.served + node.dropped + node.end_queue;
    ok = ok && std::abs(node.arrived - rhs) <= 1e-9 * std::max(1.0, node.arrived);
  }
  report.check(ok, "mux_tree_mixed: per-node conservation arrived = served + dropped + end_queue");
}

void check_identical(const MuxAccumulator& threaded, const MuxAccumulator& replayed,
                     Report& report) {
  report.check(threaded.totals.to_words() == replayed.totals.to_words(),
               "mux_tree_mixed: totals bit-identical across the replay and the threaded run");
}

Report timed(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  std::optional<MuxSetup> s;
  const double setup_s = median_setup_s(s, series, opt.threads, opt.seed);

  RandomEngine rng(opt.seed);
  s->run(s->engine, kBatchReps, rng);  // warm-up

  std::vector<double> rates;
  MuxAccumulator pool;
  double elapsed = 0.0;
  while (elapsed < opt.seconds) {
    const auto t0 = Clock::now();
    const MuxAccumulator acc = s->run(s->engine, kBatchReps, rng);
    const double dt = seconds_since(t0);
    elapsed += dt;
    rates.push_back(static_cast<double>(kBatchReps) / dt);
    check_conservation(acc.totals, report);
    pool.merge(acc);
  }

  const RandomEngine base = rng;
  const MuxAccumulator threaded = s->run(s->engine, kCheckReps, rng);
  SpanRecorder off(false);
  check_identical(threaded, replay(*s, base, kCheckReps, s->engine.shard_size(), off).total,
                  report);

  const double n = static_cast<double>(pool.root_overflow.count());
  const double p = pool.root_overflow.mean();
  const double hw = 1.96 * std::sqrt(pool.root_overflow.variance() / n);
  report.check(p > 0.0 && p < 1.0, "mux_tree_mixed: 0 < root overflow fraction < 1");
  const double rel = hw / p / 0.10;
  const double reps_per_s = batch_throughput(rates);
  std::fprintf(stderr, "# mux_tree_mixed: %zu batches of %zu, root p=%.5g hw=%.3g%%\n",
               rates.size(), kBatchReps, p, 100.0 * hw / p);
  report.set("setup_s", setup_s);
  report.set("reps_per_s", reps_per_s);
  report.set("frames_per_s", reps_per_s * static_cast<double>(kSlots) *
                                 static_cast<double>(s->context.samplers().size()));
  // Projected time to a 10% relative half-width at the measured
  // throughput: the work-normalized variance of the estimator.
  report.set("tts_10pct_s", n / reps_per_s * rel * rel);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

Report traced(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  MuxSetup s(series, opt.threads, opt.seed);
  report_fit_costs(series, report);
  report.set("net.context.build_s", median_seconds([&] {
               const net::ScenarioContext context(scenario(s.model, opt.seed));
             }));

  RandomEngine rng(opt.seed);
  s.run(s.engine, kBatchReps, rng);  // warm-up
  const std::size_t chunk = kChunkReps;
  const std::size_t chunks = traced_chunks(opt.seconds);

  SpanRecorder off(false);
  SpanRecorder rec(true);
  engine::ReplicationEngine single(engine_config(1));
  // Class synthesis in isolation: the kernel's own draw sequence (every
  // class in class order from the replication's stream), timed per class.
  const std::vector<net::PopulationSampler>& samplers = s.context.samplers();
  std::vector<double> class_ns(samplers.size(), 0.0);
  std::vector<double> frames(kSlots), path(kSlots);
  core::BackgroundWorkspace ws;
  net::AbrClientStats client;
  const auto draw_classes = [&](RandomEngine stream) {
    for (std::size_t i = 0; i < chunk; ++i) {
      RandomEngine r = stream;
      for (std::size_t c = 0; c < samplers.size(); ++c) {
        class_ns[c] += wall_ns([&] { samplers[c].sample(r, frames, {}, path, ws, client); });
      }
      stream.jump();
    }
  };

  PassWalls walls;
  const std::size_t shard = s.engine.shard_size();
  for (std::size_t c = 0; c < chunks; ++c) {
    const RandomEngine base = rng;
    walls.plain_ns += replay(s, base, chunk, shard, off).wall_ns;
    const Replay traced_chunk = replay(s, base, chunk, shard, rec, c * chunk);
    walls.traced_ns += traced_chunk.wall_ns;
    draw_classes(base);
    RandomEngine r1 = base;
    MuxAccumulator one, threaded;
    walls.engine1_ns += wall_ns([&] { one = s.run(single, chunk, r1); });
    walls.engine_ns += wall_ns([&] { threaded = s.run(s.engine, chunk, rng); });
    check_identical(one, traced_chunk.total, report);
    check_identical(threaded, traced_chunk.total, report);
    check_conservation(threaded.totals, report);
  }
  const std::size_t reps = chunk * chunks;

  const double n = static_cast<double>(reps);
  std::vector<double> per_kind(4, 0.0);
  double classes_ns = 0.0;
  for (std::size_t c = 0; c < samplers.size(); ++c) {
    classes_ns += class_ns[c];
    per_kind[static_cast<std::size_t>(samplers[c].kind())] += class_ns[c];
  }
  // Both unified-model populations share one metric (per class draw).
  report.set("net.population.vbr_ns", per_kind[0] / (2.0 * n));
  report.set("net.population.activity_ns", per_kind[1] / n);
  report.set("net.population.markov_ns", per_kind[2] / n);
  report.set("net.population.abr_client_ns", per_kind[3] / n);

  // Inner layers of the four Davies-Harte class draws.
  const std::size_t m = 2 * kSlots;
  const double normal = fill_normal_ns();
  const double fft = fft_real_ns(m);
  const double apply = transform_apply_ns(s.model->transform(), kSlots);
  const double jump = jump_ns();
  RandomEngine r(41);
  fractal::DaviesHarteModel dh(s.model->background_correlation(), kSlots, 0.05);
  fractal::DaviesHarteModel::Workspace dh_ws;
  const double dh_path = per_call_ns([&](std::size_t) { dh.sample_path(r, path, dh_ws); });
  const double dh_draws = 4.0 * n;

  const SpanRecorder::Totals kernel = rec.totals()["net.kernel.run_one"];
  Ledger ledger;
  ledger.add("dist.fill_normal", dh_draws * static_cast<double>(m) * normal);
  ledger.add("fft.synthesize_real", dh_draws * fft);
  ledger.add("fractal.dh.self", dh_draws * (dh_path - static_cast<double>(m) * normal - fft));
  ledger.add("core.transform.apply", dh_draws * static_cast<double>(kSlots) * apply);
  ledger.add("net.population.self",
             classes_ns - dh_draws * (dh_path + static_cast<double>(kSlots) * apply));
  ledger.add("net.slot_loop.self", kernel.total_ns - classes_ns);
  ledger.add("engine.jump", n * jump);
  ledger.finish("mux_tree_mixed", walls.engine1_ns, reps, report);

  report.set("fractal.dh.path_ns", dh_path);
  report.set("fft.real_ns", fft);
  report.set("dist.normal_ns", normal);
  report.set("dist.box_muller_ns", box_muller_ns());
  report.set("dist.jump_ns", jump);
  report.set("core.transform.apply_ns", apply);
  report.set("core.transform.value_ns", transform_value_ns(s.model->transform()));
  report.set("net.kernel.rep_ns", kernel.total_ns / n);
  report.set("net.slot_loop.self_ns", (kernel.total_ns - classes_ns) / n);
  report.set("engine.overhead_frac",
             1.0 - kernel.total_ns / (static_cast<double>(opt.threads) * walls.engine_ns));
  report.set("trace.overhead_frac", walls.traced_ns / walls.plain_ns - 1.0);
  rec.write_jsonl(opt.out_dir + "/mux_tree_mixed-" + std::to_string(opt.seed) +
                  "-spans.jsonl");
  return report;
}

}  // namespace

Report run_mux_tree_mixed(const RunOptions& opt) {
  return opt.trace ? traced(opt) : timed(opt);
}

}  // namespace perfbench
