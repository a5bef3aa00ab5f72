// Shared pieces of the benchmark harness: the command line, the result
// record, timing and statistics helpers, the seeded input generators every
// workload draws from, and the per-layer probes.
//
// The harness drives the program only through its public calls.  End-to-end
// figures come from the untraced window.  Per-layer figures come from the
// program's own metrics registry over that window (passed to the verifiers
// and the server through their options, in every run), and from probes
// where the program keeps no figure.  The traced run (--trace 1) also
// measures a second window with obs::TraceRecorder enabled, the benchmark's
// own spans around each call into a layer, and writes the chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "local/config.hpp"
#include "obs/metrics.hpp"
#include "pls/certificate.hpp"
#include "pls/engine.hpp"
#include "pls/scheme.hpp"
#include "radius/atlas.hpp"
#include "radius/delta.hpp"
#include "radius/engine_t.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pls;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Self-test faults: each corrupts the benchmark's record of the program's
/// outputs before the checks read it, so a run that still reports
/// `correct` would prove the check dead.
enum class Inject { kNone, kFlip, kDrop, kDup };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  Inject inject = Inject::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: the check outcome, the operation counts and
/// both metric families (main prints the one the run asked for).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 16) problems.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile of `values` (copied and sorted); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Throughput as the median over one-second slices of a window: each slice
/// contributes the operations completed in it over the time spent inside
/// them.  The machine's speed drifts over seconds (other work on the host
/// shares its caches), and the median keeps a burst of either sign from
/// moving the figure.
class SliceRate {
 public:
  explicit SliceRate(std::uint64_t start_ns) : slice_end_(start_ns + kSliceNs) {}
  void add(std::uint64_t now_ns, double ops, double busy_s);
  /// Median slice rate; the last, partial slice counts too.
  double median_rate() const;

 private:
  static constexpr std::uint64_t kSliceNs = 1'000'000'000;
  std::uint64_t slice_end_;
  double ops_ = 0.0;
  double busy_s_ = 0.0;
  std::vector<double> rates_;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Hands the heap's free pages back to the system (glibc malloc_trim).
void release_free_memory();

/// Times the program's set-up.  This machine's speed drifts over seconds,
/// and set-ups of tens of milliseconds timed back to back all see the drift
/// of one moment, so a run times two bursts of set-ups: one before its
/// window, whose last instance is the one the run uses, and one at its end,
/// whose instances are dropped.  setup_s is the median over both.
class SetupTimer {
 public:
  /// Set-ups per burst: at least kMinReps, and more until the burst has
  /// lasted kBurstNs.
  static constexpr int kMinReps = 5;
  static constexpr std::uint64_t kBurstNs = 2'000'000'000;

  /// Runs one burst of `build`, dropping each instance before the next, and
  /// returns the last one.  The dropped instance's memory is returned to
  /// the system first, so every set-up starts from a heap like a fresh
  /// process's, and peak_rss_mb counts one instance rather than the
  /// allocator's leftovers of earlier set-ups.
  template <typename Build>
  auto burst(Build build) -> decltype(build()) {
    decltype(build()) instance;
    const std::uint64_t start = now_ns();
    for (int r = 0; r < kMinReps || now_ns() - start < kBurstNs; ++r) {
      instance = {};
      release_free_memory();
      const std::uint64_t t0 = now_ns();
      instance = build();
      secs_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return instance;
  }

  /// Median set-up time, seconds, over every burst so far.
  double median_s() const;

 private:
  std::vector<double> secs_;
};

// ---------------------------------------------------------------------------
// Seeded inputs.

/// The seed of one named input stream of a run: every generator draws from
/// its own stream, so adding a draw to one never shifts another.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Seed of the workloads' instances (graphs, ids, weights, legal
/// configurations).  The instances are fixed so that the spread between
/// runs measures the program rather than the draw of the instance (the cost
/// of a t-ball sweep moves by up to a third between random instances of
/// one family); --seed drives every operation stream run on them.
inline constexpr std::uint64_t kInstanceSeed = 2005;

/// Connected random graph with n nodes and ~1.5n edges, ids 1..n.
std::shared_ptr<const graph::Graph> random_graph(std::size_t n,
                                                 std::uint64_t seed);
/// rows x cols grid with random distinct ids (bounded growth).
std::shared_ptr<const graph::Graph> grid_graph(std::size_t rows,
                                               std::size_t cols,
                                               std::uint64_t seed,
                                               bool weighted);

/// Replaces node v's certificate with a seeded forgery: a copy of another
/// node's certificate, random bits, the honest certificate with random bits
/// appended, or the honest certificate itself.
void mutate(const core::Labeling& honest, core::Labeling& labeling,
            graph::NodeIndex v, util::Rng& rng);

/// `k` distinct nodes of [0, n), sorted.
std::vector<graph::NodeIndex> pick_nodes(std::size_t n, std::size_t k,
                                         util::Rng& rng);

/// Marks every node within hop distance t of `sources` (plain BFS over the
/// graph's adjacency — independent of the program's ball machinery).
void mark_ball(const graph::Graph& g, std::span<const graph::NodeIndex> sources,
               unsigned t, std::vector<std::uint32_t>& mark,
               std::uint32_t stamp, std::vector<graph::NodeIndex>& frontier);

/// Counts how many times each operation produced an output and which
/// outputs failed a check.  Self-test faults act here.
class OutputLedger {
 public:
  explicit OutputLedger(Inject inject) : inject_(inject) {}
  /// Records one output of operation `op`.
  void record(std::uint64_t op);
  /// Whether the self-test wants op's verdict flipped before the checks.
  bool flip(std::uint64_t op) const {
    return inject_ == Inject::kFlip && op == 0;
  }
  /// A check on op's output: a failed one makes the run incorrect and
  /// counts op as failed.
  void check(std::uint64_t op, bool ok, const std::string& what,
             Report& report);
  /// Ends the run's accounting: `attempted` is `ops`, and `failed` counts
  /// the operations of [0, ops) that did not produce exactly one output or
  /// whose output failed a check; any such operation makes the run
  /// incorrect.
  void settle(std::uint64_t ops, Report& report) const;

 private:
  Inject inject_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint64_t> failed_;
};

/// A verified labeling kept for the checks after the window.
struct Sample {
  std::uint64_t op = 0;  ///< the operation that produced `accept`
  core::Labeling labeling;
  std::vector<bool> accept;
};

// ---------------------------------------------------------------------------
// Per-layer figures.

/// Events each thread's trace ring keeps (the oldest are overwritten).
inline constexpr std::size_t kTraceRing = std::size_t{1} << 15;

/// The program's stage figures over one window (`window`: the difference of
/// two registry snapshots): stage2.parse_link_ms and stage3.sweep_ms per
/// full labeling, and, when every sweep of the window was a full sweep of
/// `n` centers (n > 0), stage3.verify_ball_us (slot busy time per center)
/// and the pool's pool.steal_share and pool.slot_utilization.  Names get
/// `suffix` appended.
void report_full_stages(const obs::MetricsSnapshot& window, std::size_t n,
                        const std::string& suffix, Report& report);

/// The program's delta-path figures over one window: delta.relink_us,
/// delta.collect_us and delta.resweep_us per run_delta.
void report_delta_stages(const obs::MetricsSnapshot& window, Report& report);

/// Atlas traffic of a window, and the delta path's exact counts (with
/// delta.dirty_centers, the centers re-swept per run_delta).
void report_atlas_window(const radius::AtlasStats& atlas, Report& report);
void report_delta_counts(const radius::DeltaStats& counts, Report& report);

/// trace.overhead_pct: the traced window's throughput loss, in percent.
void report_overhead(double untraced, double traced, Report& report);

/// Probes, for the figures the program keeps no record of.  Each creates at
/// most `threads` threads of its own, so no other pool may be busy.
///
/// stage2.parse_ms / stage2.link_ms (+suffix): BallScheme::parse_cert over
/// every certificate, then link_parses, median over `labelings`.
void probe_decoders(const radius::BallScheme& scheme,
                    std::span<const core::Labeling> labelings,
                    const std::string& suffix, Report& report);
/// The size/time tradeoff: the spanning-tree spread of `base` at each
/// t in {1, 2, 4, 8} over `cfg`, honest markings (checked accepted
/// everywhere), through the decoder probe and a BatchVerifier of `threads`
/// slots on `atlas` with a registry of its own (the .t1 ... .t8 metrics).
void probe_radii(const core::Scheme& base, const local::Configuration& cfg,
                 unsigned threads,
                 const std::shared_ptr<radius::GeometryAtlas>& atlas,
                 Report& report);
/// pool.claim_ns_per_chunk: an empty-bodied for_range_stealing.
void probe_pool(unsigned threads, Report& report);
/// atlas.build_ms_per_block (cold GeometryAtlas::block on a fresh atlas) and
/// atlas.hit_ns (resident block).
void probe_atlas(const graph::Graph& g, unsigned t, std::uint64_t seed,
                 Report& report);

// ---------------------------------------------------------------------------
// Workloads.  Each sets up its instance, runs its untraced window (and, with
// --trace 1, a traced window and the probes), checks every output, and fills
// the report.

Report run_batch_t8(const Options& options);
Report run_delta_stream(const Options& options);
Report run_serve_open_loop(const Options& options);

}  // namespace perfbench
