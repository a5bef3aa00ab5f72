// Per-layer probes, for the figures the program keeps no record of: the
// split of stage 2 into the decoders' parse and link, the stage figures at
// each radius t, the pool's claim cost alone, and cold and resident atlas
// lookups.  Each drives one layer through its public calls on the
// workload's own instance.
#include <string>

#include "common.hpp"
#include "radius/batch.hpp"
#include "radius/spread.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr unsigned kProbeRadii[] = {1, 2, 4, 8};
constexpr int kDecoderReps = 3;
/// Labelings each radius's BatchVerifier run verifies (after a warm-up).
constexpr std::size_t kRadiusLabelings = 8;

}  // namespace

void probe_decoders(const radius::BallScheme& scheme,
                    std::span<const core::Labeling> labelings,
                    const std::string& suffix, Report& report) {
  if (!scheme.has_cert_parser() || labelings.empty()) return;
  std::vector<double> parse_ms;
  std::vector<double> link_ms;
  for (const core::Labeling& labeling : labelings) {
    for (int r = 0; r < kDecoderReps; ++r) {
      std::vector<std::unique_ptr<radius::ParsedCert>> storage(labeling.size());
      const std::uint64_t t0 = now_ns();
      for (std::size_t v = 0; v < labeling.size(); ++v)
        storage[v] = scheme.parse_cert(labeling.certs[v]);
      const std::uint64_t t1 = now_ns();
      scheme.link_parses(storage);
      const std::uint64_t t2 = now_ns();
      parse_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      link_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    }
  }
  report.layer("stage2.parse_ms" + suffix, median(parse_ms), "ms");
  report.layer("stage2.link_ms" + suffix, median(link_ms), "ms");
}

void probe_radii(const core::Scheme& base, const local::Configuration& cfg,
                 unsigned threads,
                 const std::shared_ptr<radius::GeometryAtlas>& atlas,
                 Report& report) {
  for (const unsigned t : kProbeRadii) {
    const std::string suffix = ".t" + std::to_string(t);
    const radius::SpreadScheme spread(base, t);
    const core::Labeling honest = spread.mark(cfg);
    probe_decoders(spread, {&honest, 1}, suffix, report);

    obs::MetricsRegistry metrics;
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = atlas;
    options.metrics = &metrics;
    radius::BatchVerifier verifier(spread, cfg, t, options);
    verifier.run_one(honest);  // builds this radius's geometry
    const obs::MetricsSnapshot before = metrics.snapshot();
    const std::vector<core::Labeling> batch(kRadiusLabelings, honest);
    bool complete = true;
    for (const core::Verdict& v : verifier.run(batch))
      complete = complete && v.all_accept();
    report.check(complete, "honest spread marking rejected at t=" +
                               std::to_string(t));
    report_full_stages(metrics.snapshot().since(before), cfg.n(), suffix,
                       report);
  }
}

void probe_pool(unsigned threads, Report& report) {
  util::ThreadPool pool(threads);
  constexpr std::size_t kClaims = std::size_t{1} << 17;
  const std::uint64_t t0 = now_ns();
  pool.for_range_stealing(
      kClaims, [](unsigned, std::size_t, std::size_t) {},
      util::RangeOptions{.chunk = 1});
  const std::uint64_t t1 = now_ns();
  report.layer("pool.claim_ns_per_chunk",
               static_cast<double>(t1 - t0) / static_cast<double>(kClaims),
               "ns");
}

void probe_atlas(const graph::Graph& g, unsigned t, std::uint64_t seed,
                 Report& report) {
  radius::GeometryAtlas atlas;  // cold, default options
  const std::uint32_t block = atlas.options().block_centers;
  std::uint64_t build_ns = 0;
  std::size_t blocks = 0;
  for (std::size_t c = 0; c < g.n(); c += block) {
    const std::uint64_t t0 = now_ns();
    atlas.block(g, t, static_cast<graph::NodeIndex>(c));
    build_ns += now_ns() - t0;
    ++blocks;
  }
  report.layer("atlas.build_ms_per_block",
               static_cast<double>(build_ns) / 1e6 /
                   static_cast<double>(blocks),
               "ms");
  constexpr std::size_t kHits = 1 << 15;
  util::Rng rng(stream_seed(seed, 901));
  std::vector<graph::NodeIndex> centers(kHits);
  for (auto& c : centers) c = static_cast<graph::NodeIndex>(rng.below(g.n()));
  const radius::AtlasStats before = atlas.stats();
  const std::uint64_t t0 = now_ns();
  for (const graph::NodeIndex c : centers) atlas.block(g, t, c);
  const std::uint64_t t1 = now_ns();
  report.check(atlas.stats().since(before).misses == 0,
               "resident atlas probe missed");
  report.layer("atlas.hit_ns",
               static_cast<double>(t1 - t0) / static_cast<double>(kHits),
               "ns");
}

}  // namespace perfbench
