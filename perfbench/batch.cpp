// batch_t8: a closed-loop offline batch.  The spanning-tree spread at t=8
// over a random connected graph (n=2048, ~1.5n edges) verifies a long stream
// of distinct seeded mutants of the honest marking through
// BatchVerifier::run, kBatch labelings per call, with kThreads sweep slots.
// The atlas is warmed in set-up, so stage 2 (parse/link), stage 3 (sweep)
// and the pool carry all the timed work; wire, DRR, the delta path and atlas
// builds carry none.
#include <algorithm>
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

constexpr std::size_t kNodes = 2048;
constexpr unsigned kT = 8;
constexpr unsigned kThreads = 4;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kMaxMutations = 4;
constexpr std::size_t kSampleEvery = 64;  ///< labelings between kept samples
constexpr std::size_t kMaxSamples = 6;

struct Instance {
  obs::MetricsRegistry metrics;  ///< the verifier's stage figures
  schemes::StpLanguage language;
  schemes::StpScheme stp{language};
  radius::SpreadScheme spread{stp, kT};
  std::shared_ptr<const graph::Graph> graph;
  std::optional<local::Configuration> cfg;
  core::Labeling honest;
  std::unique_ptr<radius::BatchVerifier> verifier;
};

/// The program's set-up: graph, legal configuration, honest marking (the
/// prover), verifier, and the first verification, which builds the atlas.
std::unique_ptr<Instance> build(Report& report) {
  auto in = std::make_unique<Instance>();
  in->graph = random_graph(kNodes, stream_seed(kInstanceSeed, 1));
  util::Rng rng(stream_seed(kInstanceSeed, 2));
  in->cfg.emplace(in->language.sample_legal(in->graph, rng));
  in->honest = in->spread.mark(*in->cfg);
  radius::BatchOptions options;
  options.threads = kThreads;
  options.metrics = &in->metrics;
  in->verifier =
      std::make_unique<radius::BatchVerifier>(in->spread, *in->cfg, kT, options);
  report.check(in->verifier->run_one(in->honest).all_accept(),
               "honest marking rejected (completeness)");
  return in;
}

struct Window {
  std::vector<double> call_ms;
  std::uint64_t labelings = 0;
  double throughput = 0.0;  ///< labelings/s, median over one-second slices
  radius::AtlasStats atlas;
  obs::MetricsSnapshot metrics;
};

/// Mutant stream state shared by the windows of one run.
struct Stream {
  util::Rng rng;
  std::uint64_t next_op = 0;
  std::vector<Sample> samples;
};

Window run_window(Instance& in, Stream& stream, double seconds,
                  OutputLedger& ledger, Report& report) {
  const graph::Graph& g = *in.graph;
  Window w;
  std::vector<core::Labeling> batch(kBatch);
  std::vector<std::vector<graph::NodeIndex>> touched(kBatch);
  std::vector<std::uint32_t> mark;
  std::vector<graph::NodeIndex> frontier;
  std::uint32_t stamp = 0;
  const radius::AtlasStats atlas_before = in.verifier->atlas().stats();
  const obs::MetricsSnapshot metrics_before = in.metrics.snapshot();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  SliceRate rate(start);
  while (now_ns() < deadline) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch[i] = in.honest;
      touched[i] = pick_nodes(g.n(), 1 + stream.rng.below(kMaxMutations),
                              stream.rng);
      for (const graph::NodeIndex v : touched[i])
        mutate(in.honest, batch[i], v, stream.rng);
    }
    const std::uint64_t first_op = stream.next_op;
    std::vector<core::Verdict> verdicts;
    const std::uint64_t t0 = now_ns();
    {
      obs::TraceSpan span("BatchVerifier::run", first_op);
      verdicts = in.verifier->run(batch);
    }
    const std::uint64_t t1 = now_ns();
    w.call_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    rate.add(t1, kBatch, static_cast<double>(t1 - t0) / 1e9);
    w.labelings += kBatch;
    stream.next_op += kBatch;

    // A missing verdict shows in the ledger as an operation without
    // exactly one output.
    report.check(verdicts.size() <= kBatch, "more verdicts than labelings");
    for (std::size_t i = 0; i < std::min(verdicts.size(), kBatch); ++i) {
      const std::uint64_t op = first_op + i;
      ledger.record(op);
      std::vector<bool> accept = verdicts[i].accept();
      if (ledger.flip(op) && !accept.empty()) accept[0] = !accept[0];
      if (accept.size() != g.n()) {
        ledger.check(op, false, "verdict of the wrong size", report);
        continue;
      }
      // The honest marking is accepted everywhere, and a verdict depends
      // only on the certificates of the center's radius-t ball: every node
      // farther than t from all mutated nodes must still accept.
      mark_ball(g, touched[i], kT, mark, ++stamp, frontier);
      bool local = true;
      for (std::size_t v = 0; v < g.n(); ++v)
        local = local && (mark[v] == stamp || accept[v]);
      ledger.check(op, local, "a node outside every mutated ball rejected",
                   report);
      if (op % kSampleEvery == 0 && stream.samples.size() < kMaxSamples)
        stream.samples.push_back({op, batch[i], std::move(accept)});
    }
  }
  w.throughput = rate.median_rate();
  w.atlas = in.verifier->atlas().stats().since(atlas_before);
  w.metrics = in.metrics.snapshot().since(metrics_before);
  return w;
}

}  // namespace

Report run_batch_t8(const Options& options) {
  Report report;
  SetupTimer setup;
  std::unique_ptr<Instance> in = setup.burst([&] { return build(report); });
  OutputLedger ledger(options.inject);
  Stream stream{util::Rng(stream_seed(options.seed, 3)), 0, {}};

  const Window w = run_window(*in, stream, options.seconds, ledger, report);
  std::optional<Window> traced;
  if (options.trace) {
    obs::TraceRecorder::enable(kTraceRing);
    traced = run_window(*in, stream, options.seconds, ledger, report);
    obs::TraceRecorder::disable();
  }

  // Verdicts agree across thread counts: the kept samples again on one
  // sweep slot (the atlas is shared; geometry is verdict-invisible).
  {
    radius::BatchOptions one;
    one.threads = 1;
    one.atlas = in->verifier->atlas_ptr();
    radius::BatchVerifier sequential(in->spread, *in->cfg, kT, one);
    for (const Sample& s : stream.samples)
      ledger.check(s.op, sequential.run_one(s.labeling).accept() == s.accept,
                   "verdict differs between 4 sweep slots and 1", report);
  }
  // A seeded sample equals the reference engine (no atlas, no parse cache,
  // no threads).
  if (!stream.samples.empty()) {
    util::Rng pick(stream_seed(options.seed, 4));
    const Sample& s = stream.samples[pick.below(stream.samples.size())];
    ledger.check(s.op,
                 radius::run_verifier_t_baseline(in->spread, *in->cfg,
                                                 s.labeling, kT)
                         .accept() == s.accept,
                 "verdict differs from run_verifier_t_baseline", report);
  }
  ledger.settle(stream.next_op, report);

  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  report.e2e("throughput_per_s", w.throughput, "1/s");
  report.e2e("latency_p50_ms", median(w.call_ms), "ms");
  report.e2e("latency_tail_ms", quantile(w.call_ms, 0.9), "ms");
  std::cerr << "batch_t8: " << w.labelings << " labelings in "
            << w.call_ms.size() << " calls of " << kBatch
            << "; tail = p90 of call latency\n";

  if (options.trace) {
    report_atlas_window(w.atlas, report);
    report_full_stages(w.metrics, in->cfg->n(), "", report);
    report_overhead(w.throughput, traced->throughput, report);

    // The probes bring their own pools: release the verifier's first.
    const std::shared_ptr<radius::GeometryAtlas> atlas =
        in->verifier->atlas_ptr();
    in->verifier.reset();
    std::vector<core::Labeling> labelings{in->honest};
    for (const Sample& s : stream.samples) labelings.push_back(s.labeling);
    probe_decoders(in->spread, labelings, "", report);
    probe_radii(in->stp, *in->cfg, kThreads, atlas, report);
    probe_pool(kThreads, report);
    probe_atlas(*in->graph, kT, options.seed, report);
  }
  // The second set-up burst, with the run's own instance gone.
  in.reset();
  setup.burst([&] { return build(report); });
  report.e2e("setup_s", setup.median_s(), "s");
  return report;
}

}  // namespace perfbench
