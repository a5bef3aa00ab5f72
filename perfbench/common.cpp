#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>

#include "graph/generators.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void SliceRate::add(std::uint64_t now_ns, double ops, double busy_s) {
  if (now_ns >= slice_end_ && busy_s_ > 0.0) {
    rates_.push_back(ops_ / busy_s_);
    ops_ = 0.0;
    busy_s_ = 0.0;
    while (slice_end_ <= now_ns) slice_end_ += kSliceNs;
  }
  ops_ += ops;
  busy_s_ += busy_s;
}

double SliceRate::median_rate() const {
  std::vector<double> rates = rates_;
  if (busy_s_ > 0.0) rates.push_back(ops_ / busy_s_);
  return median(std::move(rates));
}

void release_free_memory() { malloc_trim(0); }

double SetupTimer::median_s() const { return median(secs_); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): nearby seeds give unrelated streams.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::shared_ptr<const graph::Graph> random_graph(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return std::make_shared<const graph::Graph>(
      graph::random_connected(n, n / 2, rng));
}

std::shared_ptr<const graph::Graph> grid_graph(std::size_t rows,
                                               std::size_t cols,
                                               std::uint64_t seed,
                                               bool weighted) {
  util::Rng rng(seed);
  graph::Graph g = graph::relabel_random(graph::grid(rows, cols), rng);
  if (weighted) g = graph::reweight_random(g, rng);
  return std::make_shared<const graph::Graph>(std::move(g));
}

void mutate(const core::Labeling& honest, core::Labeling& labeling,
            graph::NodeIndex v, util::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      labeling.certs[v] = labeling.certs[rng.below(labeling.size())];
      break;
    case 1:
      labeling.certs[v] = local::random_state(rng.below(64), rng);
      break;
    case 2: {
      // A forged tail: the honest certificate with 8-24 random bits
      // appended.  For the spread schemes this is a chunk payload no
      // earlier labeling carried, which is what grows the delta path's
      // intern table until it re-seeds.
      const util::BitString& h = honest.certs[v];
      util::BitWriter w;
      w.write_bits(h.data(), h.bit_size());
      const auto extra = static_cast<unsigned>(8 + rng.below(17));
      w.write_uint(rng.bits(), extra);
      labeling.certs[v] = util::BitString::from_writer(std::move(w));
      break;
    }
    default:
      labeling.certs[v] = honest.certs[v];
      break;
  }
}

std::vector<graph::NodeIndex> pick_nodes(std::size_t n, std::size_t k,
                                         util::Rng& rng) {
  std::vector<graph::NodeIndex> out;
  while (out.size() < k) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(n));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void mark_ball(const graph::Graph& g, std::span<const graph::NodeIndex> sources,
               unsigned t, std::vector<std::uint32_t>& mark,
               std::uint32_t stamp, std::vector<graph::NodeIndex>& frontier) {
  mark.resize(g.n(), 0);
  frontier.clear();
  for (const graph::NodeIndex s : sources) {
    if (mark[s] == stamp) continue;
    mark[s] = stamp;
    frontier.push_back(s);
  }
  std::size_t begin = 0;
  for (unsigned depth = 0; depth < t; ++depth) {
    const std::size_t end = frontier.size();
    for (std::size_t i = begin; i < end; ++i)
      for (const graph::AdjEntry& a : g.adjacency(frontier[i]))
        if (mark[a.to] != stamp) {
          mark[a.to] = stamp;
          frontier.push_back(a.to);
        }
    begin = end;
  }
}

void OutputLedger::record(std::uint64_t op) {
  if (inject_ == Inject::kDrop && op == 0) return;
  if (seen_.size() <= op) seen_.resize(op + 1, 0);
  const int copies = inject_ == Inject::kDup && op == 0 ? 2 : 1;
  seen_[op] = static_cast<std::uint8_t>(std::min(seen_[op] + copies, 255));
}

void OutputLedger::check(std::uint64_t op, bool ok, const std::string& what,
                         Report& report) {
  if (ok) return;
  report.check(false, what + " (operation " + std::to_string(op) + ")");
  failed_.push_back(op);
}

void OutputLedger::settle(std::uint64_t ops, Report& report) const {
  std::vector<std::uint8_t> bad(ops, 0);
  for (std::uint64_t op = 0; op < ops; ++op)
    bad[op] = op >= seen_.size() || seen_[op] != 1;
  const bool unknown = seen_.size() > ops;  // outputs of no operation
  for (const std::uint64_t op : failed_)
    if (op < ops) bad[op] = 1;
  report.attempted = ops;
  report.failed = static_cast<std::uint64_t>(
      std::count(bad.begin(), bad.end(), std::uint8_t{1}));
  report.check(report.failed == 0 && !unknown,
               std::to_string(report.failed) + " of " + std::to_string(ops) +
                   " operations failed or did not produce exactly one output");
}

namespace {

/// Mean of a window's histogram `name` in units of `scale` ns; -1 when the
/// window recorded none.
double mean_of(const obs::MetricsSnapshot& window, const std::string& name,
               double scale) {
  const auto it = window.histograms.find(name);
  if (it == window.histograms.end() || it->second.count == 0) return -1.0;
  return it->second.mean() / scale;
}

std::uint64_t counter_of(const obs::MetricsSnapshot& window,
                         const std::string& name) {
  const auto it = window.counters.find(name);
  return it == window.counters.end() ? 0 : it->second;
}

void layer_if(Report& report, const std::string& name, double value,
              const char* unit) {
  if (value >= 0.0) report.layer(name, value, unit);
}

}  // namespace

void report_full_stages(const obs::MetricsSnapshot& window, std::size_t n,
                        const std::string& suffix, Report& report) {
  layer_if(report, "stage2.parse_link_ms" + suffix,
           mean_of(window, "verify.parse_link_ns", 1e6), "ms");
  layer_if(report, "stage3.sweep_ms" + suffix,
           mean_of(window, "verify.sweep_window_ns", 1e6), "ms");
  if (n == 0) return;
  const auto busy = window.histograms.find("verify.worker_busy_ns");
  const std::uint64_t labelings = counter_of(window, "verify.labelings");
  if (busy == window.histograms.end() || busy->second.count == 0 ||
      labelings == 0)
    return;
  const obs::HistogramSnapshot& b = busy->second;
  report.layer("stage3.verify_ball_us" + suffix,
               static_cast<double>(b.sum) / 1e3 /
                   static_cast<double>(labelings * n),
               "us");
  if (!suffix.empty()) return;
  const std::uint64_t chunks = counter_of(window, "verify.sweep_chunks");
  report.layer("pool.steal_share",
               chunks == 0 ? 0.0
                           : static_cast<double>(
                                 counter_of(window, "verify.sweep_steals")) /
                                 static_cast<double>(chunks),
               "ratio");
  // Slot utilization: busy slot time over the slots' share of the sweep
  // windows (each window records one busy time per slot), so a straggler
  // that leaves the other slots idle lowers it.
  const auto window_it = window.histograms.find("verify.sweep_window_ns");
  if (window_it == window.histograms.end() || window_it->second.count == 0)
    return;
  const obs::HistogramSnapshot& sweeps = window_it->second;
  const double slots =
      static_cast<double>(b.count) / static_cast<double>(sweeps.count);
  report.layer("pool.slot_utilization",
               static_cast<double>(b.sum) /
                   (slots * static_cast<double>(sweeps.sum)),
               "ratio");
}

void report_delta_stages(const obs::MetricsSnapshot& window, Report& report) {
  layer_if(report, "delta.relink_us",
           mean_of(window, "delta.reparse_link_ns", 1e3), "us");
  layer_if(report, "delta.collect_us",
           mean_of(window, "delta.collect_ns", 1e3), "us");
  layer_if(report, "delta.resweep_us",
           mean_of(window, "delta.resweep_ns", 1e3), "us");
}

void report_atlas_window(const radius::AtlasStats& atlas, Report& report) {
  report.layer("atlas.misses", static_cast<double>(atlas.misses), "count");
  report.layer("atlas.evictions", static_cast<double>(atlas.evictions),
               "count");
  report.layer("atlas.bypassed", static_cast<double>(atlas.bypassed), "count");
  report.layer("atlas.hit_rate", atlas.hit_rate(), "ratio");
}

void report_delta_counts(const radius::DeltaStats& counts, Report& report) {
  report.layer("delta.certs_reparsed",
               static_cast<double>(counts.certs_reparsed), "count");
  report.layer("delta.centers_reswept",
               static_cast<double>(counts.centers_reswept), "count");
  report.layer("delta.link_reseeds", static_cast<double>(counts.link_reseeds),
               "count");
  if (counts.delta_runs > 0)
    report.layer("delta.dirty_centers",
                 static_cast<double>(counts.centers_reswept) /
                     static_cast<double>(counts.delta_runs),
                 "count");
}

void report_overhead(double untraced, double traced, Report& report) {
  report.layer("trace.overhead_pct", 100.0 * (untraced - traced) / untraced,
               "%");
}

}  // namespace perfbench
