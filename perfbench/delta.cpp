// delta_stream: a closed-loop mutation stream.  The spanning-tree spread at
// t=8 on a 64x64 grid (bounded growth: a t=8 ball is ~3.5% of the graph),
// one sweep slot.  Each step mutates a seeded 1-8 certificates and verifies
// through BatchVerifier::run_delta with the touched set declared, so
// DirtyIndex collect, the incremental relink and the dirty re-sweep carry
// the time; full parse/link and wire do nothing, and the pool does no
// parallel work.  The stream runs long enough for the intern table to
// re-seed.
#include <iostream>
#include <optional>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"
#include "radius/batch.hpp"
#include "radius/spread.hpp"
#include "schemes/spanning_tree.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSide = 64;
constexpr unsigned kT = 8;
constexpr std::size_t kMaxTouched = 8;
/// The delta.* counts are taken over exactly this many first steps, so they
/// repeat exactly for a seed whatever the machine's speed.
constexpr std::uint64_t kCountedSteps = 16384;
constexpr std::uint64_t kSampleEvery = 4096;
constexpr std::size_t kMaxSamples = 6;

struct Instance {
  obs::MetricsRegistry metrics;  ///< the verifier's delta-path figures
  schemes::StpLanguage language;
  schemes::StpScheme stp{language};
  radius::SpreadScheme spread{stp, kT};
  std::shared_ptr<const graph::Graph> graph;
  std::optional<local::Configuration> cfg;
  core::Labeling honest;
  std::unique_ptr<radius::BatchVerifier> verifier;
};

std::unique_ptr<Instance> build(Report& report) {
  auto in = std::make_unique<Instance>();
  in->graph = grid_graph(kSide, kSide, stream_seed(kInstanceSeed, 1), false);
  util::Rng rng(stream_seed(kInstanceSeed, 2));
  in->cfg.emplace(in->language.sample_legal(in->graph, rng));
  in->honest = in->spread.mark(*in->cfg);
  radius::BatchOptions options;
  options.threads = 1;
  options.metrics = &in->metrics;
  in->verifier =
      std::make_unique<radius::BatchVerifier>(in->spread, *in->cfg, kT, options);
  report.check(in->verifier->run_one(in->honest).all_accept(),
               "honest marking rejected (completeness)");
  return in;
}

/// The mutation stream, carried across the windows of one run.
struct Stream {
  util::Rng rng;
  core::Labeling current;
  std::vector<bool> previous;  ///< the resident verdict
  std::uint64_t step = 0;
  std::vector<Sample> samples;
  std::optional<radius::DeltaStats> counted;  ///< stats after kCountedSteps
};

struct Window {
  std::vector<double> call_us;
  double throughput = 0.0;  ///< deltas/s, median over one-second slices
  radius::AtlasStats atlas;
  obs::MetricsSnapshot metrics;
};

Window run_window(Instance& in, Stream& s, double seconds,
                  OutputLedger& ledger, Report& report) {
  const graph::Graph& g = *in.graph;
  Window w;
  std::vector<std::uint32_t> mark;
  std::vector<graph::NodeIndex> frontier;
  std::uint32_t stamp = 0;
  radius::LabelingDelta delta;
  const radius::AtlasStats atlas_before = in.verifier->atlas().stats();
  const obs::MetricsSnapshot metrics_before = in.metrics.snapshot();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  SliceRate rate(start);
  while (now_ns() < deadline) {
    delta.touched = pick_nodes(g.n(), 1 + s.rng.below(kMaxTouched), s.rng);
    for (const graph::NodeIndex v : delta.touched)
      mutate(in.honest, s.current, v, s.rng);
    std::vector<bool> accept;
    const std::uint64_t t0 = now_ns();
    {
      obs::TraceSpan span("BatchVerifier::run_delta", s.step);
      accept = in.verifier->run_delta(s.current, delta).accept();
    }
    const std::uint64_t t1 = now_ns();
    w.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    rate.add(t1, 1.0, static_cast<double>(t1 - t0) / 1e9);

    ledger.record(s.step);
    if (ledger.flip(s.step)) accept[delta.touched[0]] = !accept[delta.touched[0]];
    if (accept.size() != g.n()) {
      ledger.check(s.step, false, "delta verdict of the wrong size", report);
      accept.resize(g.n());
    }
    // Error locality: a center farther than t from every touched node sees
    // the same ball certificates as before, so its verdict cannot change.
    mark_ball(g, delta.touched, kT, mark, ++stamp, frontier);
    bool local = true;
    for (std::size_t v = 0; v < g.n(); ++v)
      local = local && (mark[v] == stamp || accept[v] == s.previous[v]);
    ledger.check(s.step, local, "a verdict changed outside every touched ball",
                 report);
    if (s.step % kSampleEvery == 0 && s.samples.size() < kMaxSamples)
      s.samples.push_back({s.step, s.current, accept});
    s.previous = std::move(accept);
    if (++s.step == kCountedSteps) s.counted = in.verifier->delta_stats();
  }
  w.throughput = rate.median_rate();
  w.atlas = in.verifier->atlas().stats().since(atlas_before);
  w.metrics = in.metrics.snapshot().since(metrics_before);
  return w;
}

}  // namespace

Report run_delta_stream(const Options& options) {
  Report report;
  SetupTimer setup;
  std::unique_ptr<Instance> in = setup.burst([&] { return build(report); });
  OutputLedger ledger(options.inject);
  Stream stream{util::Rng(stream_seed(options.seed, 3)), in->honest,
                std::vector<bool>(in->cfg->n(), true), 0, {}, std::nullopt};

  const Window w = run_window(*in, stream, options.seconds, ledger, report);
  const radius::DeltaStats after_window = in->verifier->delta_stats();
  std::optional<Window> traced;
  if (options.trace) {
    obs::TraceRecorder::enable(kTraceRing);
    traced = run_window(*in, stream, options.seconds, ledger, report);
    obs::TraceRecorder::disable();
  }

  // A sample of delta verdicts equals a from-scratch verification by a
  // fresh verifier with its own atlas, and one equals the reference engine.
  {
    radius::BatchOptions fresh;
    fresh.threads = 1;
    radius::BatchVerifier scratch(in->spread, *in->cfg, kT, fresh);
    for (const Sample& s : stream.samples)
      ledger.check(s.op, scratch.run_one(s.labeling).accept() == s.accept,
                   "delta verdict differs from a from-scratch run_one",
                   report);
  }
  if (!stream.samples.empty()) {
    util::Rng pick(stream_seed(options.seed, 4));
    const Sample& s = stream.samples[pick.below(stream.samples.size())];
    ledger.check(s.op,
                 radius::run_verifier_t_baseline(in->spread, *in->cfg,
                                                 s.labeling, kT)
                         .accept() == s.accept,
                 "delta verdict differs from run_verifier_t_baseline", report);
  }
  ledger.settle(stream.step, report);

  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  report.e2e("throughput_per_s", w.throughput, "1/s");
  report.e2e("latency_p50_ms", median(w.call_us) / 1e3, "ms");
  report.e2e("latency_tail_ms", quantile(w.call_us, 0.99) / 1e3, "ms");
  std::cerr << "delta_stream: " << w.call_us.size()
            << " deltas; tail = p99 of run_delta latency\n";

  if (options.trace) {
    // Counts over the first kCountedSteps steps (the whole first window
    // when it was shorter).
    const radius::DeltaStats& c = stream.counted ? *stream.counted : after_window;
    if (!stream.counted)
      std::cerr << "delta_stream: fewer than " << kCountedSteps
                << " steps; delta counts cover the whole first window\n";
    report_delta_counts(c, report);
    report_delta_stages(w.metrics, report);
    report_atlas_window(w.atlas, report);
    report_overhead(w.throughput, traced->throughput, report);
    probe_atlas(*in->graph, kT, options.seed, report);
  }
  // The second set-up burst, with the run's own instance gone.
  in.reset();
  setup.burst([&] { return build(report); });
  report.e2e("setup_s", setup.median_s(), "s");
  return report;
}

}  // namespace perfbench
