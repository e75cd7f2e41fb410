// paxson_stream: one stream of 2^23 frames from the Paxson
// BackgroundPathSampler::Stream, through MarginalTransform::apply, into
// one LindleyQueue, reporting the time-average overflow at several
// buffers (the trace-driven style of Fig. 16). The only workload that
// measures the Paxson backend and memory bounded by its synthesis
// window rather than the horizon.
#include <array>
#include <cmath>
#include <optional>

#include "bench.h"
#include "core/background_sampler.h"
#include "core/model_builder.h"
#include "fractal/paxson.h"
#include "queueing/lindley.h"
#include "stats/descriptive.h"
#include "units.h"

namespace perfbench {

using namespace ssvbr;

namespace {

constexpr std::size_t kFrames = std::size_t{1} << 23;
constexpr std::size_t kBlock = 4096;
constexpr double kUtilization = 0.4;
constexpr std::array<double, 4> kBuffers{10.0, 25.0, 50.0, 100.0};
constexpr std::size_t kTracked = 1;  // b = 25: the estimate tts_10pct_s tracks
// The stream's sample mean must lie within this many standard errors
// of the model's foreground mean; the standard error comes from the
// means of the stream's independently synthesized Paxson windows.
constexpr double kMeanStandardErrors = 5.0;

struct PaxsonSetup {
  explicit PaxsonSetup(std::span<const double> series)
      : fitted(core::fit_unified_model(series)),
        sampler(fitted.model, kFrames, core::BackgroundGenerator::kPaxson) {
    const double mean = fitted.model.mean();
    service_rate = mean / kUtilization;
    for (std::size_t j = 0; j < kBuffers.size(); ++j) buffers[j] = kBuffers[j] * mean;
  }

  core::FittedModel fitted;
  core::BackgroundPathSampler sampler;
  double service_rate = 0.0;
  std::array<double, kBuffers.size()> buffers{};
};

struct StreamResult {
  std::size_t frames = 0;
  double sum = 0.0;
  std::array<std::size_t, kBuffers.size()> over{};
  stats::RunningStats window_mean;  ///< mean frame size per synthesis window
  stats::RunningStats window_over;  ///< tracked-buffer overflow fraction per window
  std::vector<double> window_rates;  ///< frames per second, window by window
  double wall_ns = 0.0;
};

/// Scratch reused across streams (the steady state allocates nothing).
struct StreamScratch {
  core::BackgroundWorkspace ws;
  std::vector<double> block = std::vector<double>(kBlock);
};

StreamResult run_stream(const PaxsonSetup& s, RandomEngine rng, StreamScratch& scratch,
                        SpanRecorder& rec) {
  StreamResult out;
  const core::MarginalTransform& h = s.fitted.model.transform();
  const std::size_t window = s.sampler.window();
  queueing::LindleyQueue queue(s.service_rate);
  std::size_t window_count = 0;
  double window_sum = 0.0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t window_t0 = t0;
  core::BackgroundPathSampler::Stream stream = s.sampler.begin_stream(rng, scratch.ws);
  for (;;) {
    std::size_t n = 0;
    {
      const auto span = rec.open("core.stream.next_block");
      n = stream.next_block(scratch.block);
    }
    if (n == 0) break;
    const std::span<double> block(scratch.block.data(), n);
    {
      const auto span = rec.open("core.transform.apply");
      h.apply(block, block);
    }
    const auto span = rec.open("queueing.lindley.step");
    for (const double y : block) {
      window_sum += y;
      const double q = queue.step(y);
      for (std::size_t j = 0; j < kBuffers.size(); ++j) out.over[j] += q > s.buffers[j];
      window_count += q > s.buffers[kTracked];
    }
    out.frames += n;
    if (out.frames % window == 0 || stream.remaining() == 0) {
      out.window_mean.add(window_sum / static_cast<double>(window));
      out.window_over.add(static_cast<double>(window_count) / static_cast<double>(window));
      out.sum += window_sum;
      window_sum = 0.0;
      window_count = 0;
      const std::uint64_t now = now_ns();
      out.window_rates.push_back(1e9 * static_cast<double>(window) /
                                 static_cast<double>(now - window_t0));
      window_t0 = now;
    }
  }
  out.wall_ns = static_cast<double>(now_ns() - t0);
  return out;
}

void check_stream(const PaxsonSetup& s, const StreamResult& r, Report& report) {
  report.check(r.frames == kFrames, "paxson_stream: the stream delivered 2^23 frames");
  const double mean = s.fitted.model.mean();
  const double got = r.sum / static_cast<double>(r.frames);
  const double se = r.window_mean.stddev() / std::sqrt(static_cast<double>(r.window_mean.count()));
  report.check(std::abs(got - mean) <= kMeanStandardErrors * se,
               "paxson_stream: mean of the generated frames within 5 standard errors of "
               "model.mean()");
  bool monotone = true;
  for (std::size_t j = 1; j < kBuffers.size(); ++j) {
    monotone = monotone && r.over[j] <= r.over[j - 1];
  }
  report.check(monotone, "paxson_stream: overflow fraction non-increasing in the buffer");
}

Report timed(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  std::optional<PaxsonSetup> s;
  const double setup_s = median_setup_s(s, series);
  report.check(s->sampler.window_bounded_memory(),
               "paxson_stream: the sampler's memory is bounded by its window");

  StreamScratch scratch;
  SpanRecorder off(false);
  RandomEngine rng(opt.seed);
  run_stream(*s, rng, scratch, off);  // warm-up: first-touch of the workspace
  rng.jump();

  // Throughput is measured window by window (2^16 frames, one Paxson
  // synthesis each), the stream's natural batch.
  std::vector<double> rates;
  std::size_t streams = 0;
  stats::RunningStats window_over;
  std::array<double, kBuffers.size()> over{};
  double elapsed = 0.0;
  while (elapsed < opt.seconds) {
    const StreamResult r = run_stream(*s, rng, scratch, off);
    rng.jump();
    elapsed += r.wall_ns * 1e-9;
    ++streams;
    rates.insert(rates.end(), r.window_rates.begin(), r.window_rates.end());
    check_stream(*s, r, report);
    window_over.merge(r.window_over);
    for (std::size_t j = 0; j < kBuffers.size(); ++j) over[j] += static_cast<double>(r.over[j]);
  }

  const double p = window_over.mean();
  const double hw =
      1.96 * std::sqrt(window_over.variance() / static_cast<double>(window_over.count()));
  report.check(p > 0.0 && p < 1.0, "paxson_stream: 0 < overflow fraction < 1 at b = 25");
  const double rel = hw / p / 0.10;
  const double total = static_cast<double>(streams * kFrames);
  std::fprintf(stderr, "# paxson_stream: %zu streams; P(Q > b) at b = 10/25/50/100: "
               "%.4g %.4g %.4g %.4g; hw(b=25) %.3g%%\n",
               streams, over[0] / total, over[1] / total, over[2] / total,
               over[3] / total, 100.0 * hw / p);
  const double frames_per_s = batch_throughput(rates);
  const double reps_per_s = frames_per_s / static_cast<double>(kFrames);
  report.set("setup_s", setup_s);
  report.set("reps_per_s", reps_per_s);
  report.set("frames_per_s", frames_per_s);
  // Projected time to a 10% relative half-width at the measured
  // throughput: the work-normalized variance of the estimator.
  report.set("tts_10pct_s", static_cast<double>(streams) / reps_per_s * rel * rel);
  report.set("peak_rss_mb", peak_rss_mb());
  return report;
}

Report traced(const RunOptions& opt) {
  Report report;
  const std::vector<double>& series = standin_i_frames();
  const PaxsonSetup s(series);
  report_fit_costs(series, report);

  StreamScratch scratch;
  SpanRecorder off(false);
  SpanRecorder rec(true);
  RandomEngine rng(opt.seed);
  run_stream(s, rng, scratch, off);  // warm-up
  rng.jump();
  const std::size_t streams = traced_chunks(opt.seconds);

  double plain_ns = 0.0, traced_ns = 0.0;
  RandomEngine stream_rng = rng;
  for (std::size_t i = 0; i < streams; ++i) {
    const StreamResult a = run_stream(s, stream_rng, scratch, off);
    rec.set_rep(static_cast<std::uint32_t>(i));
    const StreamResult b = run_stream(s, stream_rng, scratch, rec);
    report.check(a.sum == b.sum && a.over == b.over,
                 "paxson_stream: traced and untraced streams are bit-identical");
    check_stream(s, b, report);
    plain_ns += a.wall_ns;
    traced_ns += b.wall_ns;
    stream_rng.jump();
  }

  const std::size_t window = s.sampler.window();
  const double normal = fill_normal_ns();
  const double fft = fft_real_ns(window);
  const fractal::PaxsonModel paxson(s.fitted.model.background_correlation(), window);
  fractal::PaxsonModel::Workspace ws;
  std::vector<double> out(window);
  RandomEngine r(51);
  const double window_ns =
      per_call_ns([&](std::size_t) { paxson.synthesize_window(r, out, ws); }, 5);
  std::vector<double> frames(kBlock);
  r.fill_normal(frames);
  s.fitted.model.transform().apply(frames, frames);

  std::map<std::string, SpanRecorder::Totals> spans = rec.totals();
  const SpanRecorder::Totals& blocks = spans["core.stream.next_block"];
  const double n = static_cast<double>(streams);
  const double windows = n * static_cast<double>(kFrames / window);
  Ledger ledger;
  ledger.add("dist.fill_normal", windows * static_cast<double>(window) * normal);
  ledger.add("fft.synthesize_real", windows * fft);
  ledger.add("fractal.paxson.self",
             windows * (window_ns - static_cast<double>(window) * normal - fft));
  ledger.add("core.stream.self", blocks.total_ns - windows * window_ns);
  ledger.add("core.transform.apply", spans["core.transform.apply"].total_ns);
  ledger.add("queueing.lindley", spans["queueing.lindley.step"].total_ns);
  ledger.add("dist.jump", n * jump_ns());
  ledger.finish("paxson_stream", plain_ns, streams, report);

  report.set("fractal.paxson.window_ns", window_ns);
  report.set("fft.real_ns", fft);
  report.set("dist.normal_ns", normal);
  report.set("dist.box_muller_ns", box_muller_ns());
  report.set("dist.jump_ns", jump_ns());
  report.set("core.transform.apply_ns", transform_apply_ns(s.fitted.model.transform(), kBlock));
  report.set("core.transform.value_ns", transform_value_ns(s.fitted.model.transform()));
  report.set("core.stream.block_ns", blocks.total_ns / static_cast<double>(blocks.count));
  report.set("queueing.lindley.step_ns", lindley_step_ns(s.service_rate, frames));
  report.set("trace.overhead_frac", traced_ns / plain_ns - 1.0);
  rec.write_jsonl(opt.out_dir + "/paxson_stream-" + std::to_string(opt.seed) + "-spans.jsonl");
  return report;
}

}  // namespace

Report run_paxson_stream(const RunOptions& opt) {
  return opt.trace ? traced(opt) : timed(opt);
}

}  // namespace perfbench
