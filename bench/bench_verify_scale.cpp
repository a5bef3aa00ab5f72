// Experiment R2 — staged verification at scale.
//
// Five scenarios over the spanning-tree spread, one of them (4) over the
// MST fragment spread instead — it gates what the steal scheduler buys a
// sweep that reads every ball, and the spread's planned sweep
// (radius::SweepPlan) decides most centers without theirs:
//
// 1. Single labeling: the reference engine (one ball at a time, every ball
//    certificate re-parsed at every center) against BatchVerifier::run_one
//    (staged pipeline: geometry atlas + parse-once cache + optional thread
//    pool) at n = 4096, t in {1, 2, 4, 8}.  Emits the time–size tradeoff
//    curve as JSON.
//
// 2. Multi-labeling batch (the adversary's workload): L labelings derived
//    from the honest marking by hill-climb-style point mutations, all
//    verified against ONE (scheme, cfg, t).  BatchVerifier + a warm
//    GeometryAtlas (geometry built once, served to every labeling, parse of
//    labeling i+1 overlapped with the sweep of labeling i) against the
//    rebuild-every-run baseline (byte_budget = 0 atlas: same code path, no
//    geometry retained — the pre-atlas behavior).  Reports throughput
//    (labelings/sec), the atlas hit rate, and resident bytes.
//
// 3. Incremental delta stream (the hill-climb's inner loop): a single-cert
//    mutation stream — labeling i is labeling i-1 with exactly one node's
//    certificate replaced — verified (a) by the full pipelined batch over a
//    warm atlas (the strongest full-re-verify path) and (b) through
//    BatchVerifier::run_delta with the mutated node declared per step, so
//    only the touched certificate is re-parsed and only the dirty centers
//    (the mutated node's radius-t ball, by ball symmetry) are re-swept.
//    Always n = 4096 on a 64x64 grid — incremental verification is a
//    locality play, so the instance is the bounded-growth regime where
//    radius-8 balls are 3.5% of the graph, not the expander-like random
//    instance whose balls cover 2/3 of it (the emitted dirty_fraction
//    quantifies that boundary); --smoke only shortens the stream.  Reports
//    both throughputs, the delta work counters, and per-phase atlas hit
//    rates (snapshot-diffed AtlasStats, AtlasStats::since).
//
// 4. Serving tier (scheduler balance + open loop): a skewed fragment-style
//    instance — dense chorded-ring core on the low sixteenth of the index
//    space, sparse chains over the rest — where a contiguous split leaves
//    most slots idle behind the share that drew the core.  Runs the batch
//    closed-loop over a shared warm atlas (steal counters and per-slot
//    busy-time quantiles from the obs registry), then one labeling at a
//    time to measure the busy imbalance — the median over sweeps of
//    max/mean per-slot busy time — on it and on scenario 2's uniform random
//    graph (MST configurations of both; verdicts asserted bit-identical
//    across runs and thread counts), then drives an OPEN-LOOP phase: requests arrive on a fixed
//    schedule (default 80% of the measured closed-loop throughput,
//    --arrival-rate overrides) whether or not the previous one finished, so
//    queueing delay lands in the next request's latency.  Reports sustained
//    labelings/sec and p50/p99 latency from the serve.latency_ns histogram.
//
// 5. Admission A/B (the TinyLFU case): a delta stream whose touched nodes
//    are zipf-popular (rank through a random permutation) on scenario 3's
//    grid, replayed against an atlas whose budget holds a sixth of the
//    geometry — once under kScanResistant (the every-k-th turnover guard)
//    and once under kTinyLFU (frequency-sketch admission).  The hot nodes'
//    radius-t balls concentrate the block traffic; the sketch vetoes
//    cold-tail contenders the blind turnover would admit.  Reports both hit
//    rates, their ratio (the --require-tinylfu-hit-ratio gate),
//    labelings/sec per policy, and sketch_rejects; both constrained replays
//    are asserted verdict-identical to an unconstrained ground-truth replay.
//
// Verdict identity is asserted everywhere: scenario 1 across
// baseline/sequential/parallel verifiers per row; scenario 2 across the
// rebuild loop and batch runs at threads {1, 2, hardware}, and against
// run_verifier_t_baseline for the first few labelings (all of them under
// --smoke — the naive engine is too slow to oracle 100 full-size labelings);
// scenario 3 delta vs. full batch for every labeling of the stream, delta at
// threads {1, 2, hardware} over a prefix, and the stream head against the
// naive engine (full runs only — it is a 4096-node t = 8 instance).
//
// Per-stage latency (parse/link, sweep window, delta stages) is recorded
// into an obs::MetricsRegistry by the verifiers themselves
// (BatchOptions::metrics); the emitted JSON carries the full snapshot —
// count/mean/p50/p90/p95/p99 per stage — and stderr quotes the headline
// p50/p99.  --trace-out additionally records the timed batch contender with
// obs::TraceRecorder and writes a chrome://tracing document showing the
// parse(i+1)-inside-sweep-window(i) pipelining overlap and per-slot sweep
// skew.  --max-disabled-span-ns gates the observability tax: the measured
// per-span cost of an instrumented-but-disabled trace point (one relaxed
// atomic load) must stay under the bound.
//
// Usage: bench_verify_scale [--smoke] [--out FILE] [--batch-out FILE]
//                           [--incremental-out FILE] [--trace-out FILE]
//                           [--serving-out FILE]
//                           [--seed S] [--threads T] [--t T] [--labelings L]
//                           [--require-speedup X] [--require-batch-speedup X]
//                           [--require-incremental-speedup X]
//                           [--max-disabled-span-ns X]
//                           [--require-busy-imbalance X] [--arrival-rate A]
//   --smoke                   n = 1024 for scenarios 1-2, fewer labelings
//                             (CI-friendly; scenario 3 stays at n = 4096)
//   --out FILE                write the tradeoff JSON there instead of stdout
//   --batch-out FILE          additionally write the batch-scenario JSON
//   --incremental-out FILE    additionally write the delta-scenario JSON
//   --trace-out FILE          record the timed batch run; write chrome-trace
//                             JSON there (load via chrome://tracing)
//   --serving-out FILE        additionally write the serving-scenario JSON
//   --seed S                  base RNG seed (echoed into every JSON)
//   --threads T               thread count for the timed runs (default: hw)
//   --t T                     batch/incremental radius (default 8)
//   --labelings L             batch + stream size (default 100; 16 under
//                             --smoke)
//   --require-speedup X       fail if t = 8 sequential run_one speedup < X
//   --require-batch-speedup X fail if batch+atlas throughput gain < X
//   --require-incremental-speedup X fail if delta-vs-full gain < X
//   --max-disabled-span-ns X  fail if a disabled trace span costs > X ns
//   --require-busy-imbalance X fail if the sweep busy imbalance on the
//                             skewed or the uniform instance > X (needs
//                             real cores; a CI gate for multi-core
//                             runners, trivially met at threads=1)
//   --arrival-rate A          open-loop offered rate, labelings/sec
//                             (default: 0.8x the measured closed-loop
//                             throughput)
//   --admission-out FILE      additionally write the admission-scenario JSON
//   --zipf-s S                admission-stream skew exponent (default 1.0)
//   --require-tinylfu-hit-ratio R fail if the tinylfu/scan-resistant atlas
//                             hit-rate ratio on the zipf stream < R
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pls;

constexpr graph::RawId kIdSpace = graph::RawId{1} << 56;

// Default base seed; --seed overrides.  The stream RNGs are salted so the
// default reproduces the historical per-scenario seeds (0xBA115CA1E for the
// instance, 0xA71A5 for the batch stream) exactly.
constexpr std::uint64_t kDefaultSeed = 0xBA11'5CA1Eull;
constexpr std::uint64_t kBatchSalt = kDefaultSeed ^ 0xA7'1A5ull;
constexpr std::uint64_t kIncrementalSalt = 0xDE17A'BA11ull;
constexpr std::uint64_t kServingSalt = 0x5E1F'57EA1ull;
constexpr std::uint64_t kAdmissionSalt = 0xAD317'CAC3Eull;

struct Row {
  std::string scheme;
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t max_cert_bits = 0;
  double avg_cert_bits = 0.0;
  double baseline_ms = 0.0;  ///< reference engine (re-parse per ball)
  double seq_ms = 0.0;       ///< BatchVerifier::run_one, threads = 1
  double par_ms = 0.0;       ///< BatchVerifier::run_one, threads = T
  unsigned threads = 1;
  bool verdicts_identical = false;
};

/// The multi-labeling scenario's result sheet.
struct BatchResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double rebuild_ms = 0.0;  ///< per-run geometry rebuild (budget-0 atlas)
  double batch_ms = 0.0;    ///< BatchVerifier + warm atlas
  double rebuild_per_sec = 0.0;
  double batch_per_sec = 0.0;
  double speedup = 0.0;
  radius::AtlasStats atlas;
  std::size_t baseline_checked = 0;  ///< labelings oracled vs the naive engine
  bool verdicts_identical = false;
};

double time_ms(const std::function<core::Verdict()>& run,
               core::Verdict& out) {
  const auto start = std::chrono::steady_clock::now();
  out = run();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  return a.accept() == b.accept();
}

/// Builds every block of `g`'s radius-t geometry into `atlas`, center order.
/// A full run of the spread does not: its planned sweep reads geometry only
/// at ball-routed centers (radius::SweepPlan).
void warm_geometry(radius::GeometryAtlas& atlas, const graph::Graph& g,
                   unsigned t) {
  for (graph::NodeIndex v = 0; v < g.n();)
    v = atlas.block(g, t, v)->end_center();
}

Row measure(const core::Scheme& scheme, const local::Configuration& cfg,
            unsigned t, unsigned threads) {
  Row row;
  row.scheme = std::string(scheme.name());
  row.n = cfg.n();
  row.t = t;
  row.threads = threads;

  const core::Labeling lab = scheme.mark(cfg);
  row.max_cert_bits = lab.max_bits();
  row.avg_cert_bits =
      static_cast<double>(lab.total_bits()) / static_cast<double>(cfg.n());

  core::Verdict baseline, seq, par;
  row.baseline_ms = time_ms(
      [&] { return radius::run_verifier_t_baseline(scheme, cfg, lab, t); },
      baseline);
  row.seq_ms = time_ms(
      [&] {
        radius::BatchOptions options;
        options.threads = 1;
        radius::BatchVerifier verifier(scheme, cfg, t, options);
        return verifier.run_one(lab);
      },
      seq);
  row.par_ms = time_ms(
      [&] {
        radius::BatchOptions options;
        options.threads = threads;
        radius::BatchVerifier verifier(scheme, cfg, t, options);
        return verifier.run_one(lab);
      },
      par);

  // Micro-assert for the staged pipeline: run_one serves geometry
  // through the atlas and interns chunk payloads into dense ids after the
  // parallel parse (link_parses), while the baseline engine rebuilds balls
  // and re-parses raw BitStrings everywhere — any divergence between the
  // two shows up right here.
  row.verdicts_identical =
      same_verdict(baseline, seq) && same_verdict(baseline, par);
  PLS_ASSERT(row.verdicts_identical);
  PLS_ASSERT(baseline.all_accept());  // honest marking on a legal instance
  return row;
}

/// Hill-climb-style candidate stream: each labeling is the previous one with
/// one node's certificate replaced (by a donor node's certificate or random
/// bits) — exactly the adversary's usage pattern.
std::vector<core::Labeling> candidate_labelings(const core::Scheme& scheme,
                                                const local::Configuration& cfg,
                                                std::size_t count,
                                                util::Rng& rng) {
  std::vector<core::Labeling> labs;
  labs.reserve(count);
  labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (labs.size() < count) {
    core::Labeling next = labs.back();
    const std::size_t v = rng.below(n);
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    labs.push_back(std::move(next));
  }
  return labs;
}

BatchResult measure_batch(const core::Scheme& scheme,
                          const local::Configuration& cfg, unsigned t,
                          unsigned threads,
                          std::span<const core::Labeling> labs,
                          std::size_t baseline_checked,
                          obs::MetricsRegistry& registry, bool trace) {
  BatchResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = labs.size();
  r.threads = threads;

  // Rebuild-every-run baseline: the identical staged code path with a
  // byte_budget = 0 atlas (nothing retained between runs) and no batch
  // pipelining — what every pre-atlas caller paid.
  std::vector<core::Verdict> rebuild_verdicts;
  rebuild_verdicts.reserve(labs.size());
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = std::make_shared<radius::GeometryAtlas>(
        radius::AtlasOptions{0, 64});
    radius::BatchVerifier rebuild(scheme, cfg, t, options);
    const auto start = std::chrono::steady_clock::now();
    for (const core::Labeling& lab : labs)
      rebuild_verdicts.push_back(rebuild.run_one(lab));
    const auto stop = std::chrono::steady_clock::now();
    r.rebuild_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }

  // BatchVerifier + warm atlas, the timed contender — the run the stage
  // histograms (and, under --trace-out, the chrome trace) describe.
  std::vector<core::Verdict> batch_verdicts;
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.metrics = &registry;
    radius::BatchVerifier batch(scheme, cfg, t, options);
    if (trace) obs::TraceRecorder::enable();
    const auto start = std::chrono::steady_clock::now();
    batch_verdicts = batch.run(labs);
    const auto stop = std::chrono::steady_clock::now();
    if (trace) obs::TraceRecorder::disable();
    r.batch_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    r.atlas = batch.atlas().stats();
  }

  r.rebuild_per_sec =
      static_cast<double>(labs.size()) / (r.rebuild_ms / 1000.0);
  r.batch_per_sec = static_cast<double>(labs.size()) / (r.batch_ms / 1000.0);
  r.speedup = r.rebuild_ms / r.batch_ms;

  // Verdict identity: batch == rebuild for every labeling, batch at
  // threads {1, 2, hardware} all equal (untimed), and the first
  // `baseline_checked` labelings against the naive reference engine.
  bool identical = true;
  for (std::size_t i = 0; i < labs.size(); ++i)
    identical = identical &&
                same_verdict(rebuild_verdicts[i], batch_verdicts[i]);
  for (const unsigned check_threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    radius::BatchOptions options;
    options.threads = check_threads;
    radius::BatchVerifier batch(scheme, cfg, t, options);
    const std::vector<core::Verdict> verdicts = batch.run(labs);
    for (std::size_t i = 0; i < labs.size(); ++i)
      identical = identical && same_verdict(verdicts[i], batch_verdicts[i]);
  }
  r.baseline_checked = std::min(baseline_checked, labs.size());
  for (std::size_t i = 0; i < r.baseline_checked; ++i)
    identical = identical &&
                same_verdict(radius::run_verifier_t_baseline(scheme, cfg,
                                                             labs[i], t),
                             batch_verdicts[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

/// Scenario 3's result sheet.
struct IncrementalResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double full_ms = 0.0;    ///< pipelined batch, warm atlas (full re-verify)
  double delta_ms = 0.0;   ///< one seeding run + run_delta per mutation
  double full_per_sec = 0.0;
  double delta_per_sec = 0.0;
  double speedup = 0.0;
  radius::DeltaStats delta_stats;
  double dirty_fraction = 0.0;       ///< avg re-swept centers / n per delta
  double full_phase_hit_rate = 0.0;  ///< atlas, full phase only
  double delta_phase_hit_rate = 0.0; ///< atlas, delta phase only
  std::size_t baseline_checked = 0;
  bool verdicts_identical = false;
};

/// Single-certificate mutation stream with the mutated node recorded per
/// step — the delta path's declared input.  labs[0] is the honest marking;
/// labs[i] replaces one certificate of labs[i-1] (donor copy or random
/// bits), touched[i-1] names the node.
struct MutationStream {
  std::vector<core::Labeling> labs;
  std::vector<graph::NodeIndex> touched;
};

MutationStream mutation_stream(const core::Scheme& scheme,
                               const local::Configuration& cfg,
                               std::size_t count, util::Rng& rng) {
  MutationStream stream;
  stream.labs.reserve(count);
  stream.labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (stream.labs.size() < count) {
    core::Labeling next = stream.labs.back();
    const auto v = static_cast<graph::NodeIndex>(rng.below(n));
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    stream.labs.push_back(std::move(next));
    stream.touched.push_back(v);
  }
  return stream;
}

/// Replays the stream through run_delta on `verifier` (one full seeding run
/// for labs[0], then one delta per mutation).
std::vector<core::Verdict> replay_deltas(radius::BatchVerifier& verifier,
                                         const MutationStream& stream) {
  std::vector<core::Verdict> verdicts;
  verdicts.reserve(stream.labs.size());
  verdicts.push_back(verifier.run_one(stream.labs.front()));
  radius::LabelingDelta delta;
  delta.touched.resize(1);
  for (std::size_t i = 1; i < stream.labs.size(); ++i) {
    delta.touched[0] = stream.touched[i - 1];
    verdicts.push_back(verifier.run_delta(stream.labs[i], delta));
  }
  return verdicts;
}

IncrementalResult measure_incremental(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      unsigned t, unsigned threads,
                                      const MutationStream& stream,
                                      std::size_t baseline_checked,
                                      obs::MetricsRegistry& registry) {
  IncrementalResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = stream.labs.size();
  r.threads = threads;

  // Both contenders share one warm atlas: geometry is scenario 2's subject,
  // not this one's, so it is built once up front and both phases run
  // steady-state.  Snapshot diffs (AtlasStats::since) bracket the phases for
  // per-phase hit rates — the retired reset_stats could misattribute
  // concurrent traffic to the wrong phase; a diff of two snapshots cannot.
  radius::BatchOptions options;
  options.threads = threads;
  options.atlas = std::make_shared<radius::GeometryAtlas>();
  options.metrics = &registry;
  radius::BatchVerifier full(scheme, cfg, t, options);
  radius::BatchVerifier delta(scheme, cfg, t, options);
  warm_geometry(*options.atlas, cfg.graph(), t);
  const radius::AtlasStats warm = options.atlas->stats();

  std::vector<core::Verdict> full_verdicts;
  {
    const auto start = std::chrono::steady_clock::now();
    full_verdicts = full.run(stream.labs);
    const auto stop = std::chrono::steady_clock::now();
    r.full_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  const radius::AtlasStats after_full = options.atlas->stats();
  r.full_phase_hit_rate = after_full.since(warm).hit_rate();

  std::vector<core::Verdict> delta_verdicts;
  {
    const auto start = std::chrono::steady_clock::now();
    delta_verdicts = replay_deltas(delta, stream);
    const auto stop = std::chrono::steady_clock::now();
    r.delta_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  r.delta_phase_hit_rate = options.atlas->stats().since(after_full).hit_rate();
  r.delta_stats = delta.delta_stats();

  const auto count = static_cast<double>(stream.labs.size());
  r.full_per_sec = count / (r.full_ms / 1000.0);
  r.delta_per_sec = count / (r.delta_ms / 1000.0);
  r.speedup = r.full_ms / r.delta_ms;
  r.dirty_fraction =
      r.delta_stats.delta_runs == 0
          ? 0.0
          : static_cast<double>(r.delta_stats.centers_reswept) /
                (static_cast<double>(r.delta_stats.delta_runs) *
                 static_cast<double>(cfg.n()));

  // Verdict identity: delta == full batch for EVERY labeling of the stream,
  // delta at threads {1, 2, hardware} over a prefix (untimed), and the
  // stream head against the naive reference engine.
  bool identical = full_verdicts.size() == delta_verdicts.size();
  for (std::size_t i = 0; identical && i < full_verdicts.size(); ++i)
    identical = same_verdict(full_verdicts[i], delta_verdicts[i]);
  const std::size_t prefix = std::min<std::size_t>(10, stream.labs.size());
  MutationStream head;
  head.labs.assign(stream.labs.begin(),
                   stream.labs.begin() + static_cast<std::ptrdiff_t>(prefix));
  head.touched.assign(
      stream.touched.begin(),
      stream.touched.begin() + static_cast<std::ptrdiff_t>(prefix - 1));
  for (const unsigned check_threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    radius::BatchOptions check_options;
    check_options.threads = check_threads;
    check_options.atlas = options.atlas;
    radius::BatchVerifier check(scheme, cfg, t, check_options);
    const std::vector<core::Verdict> got = replay_deltas(check, head);
    for (std::size_t i = 0; identical && i < got.size(); ++i)
      identical = same_verdict(got[i], full_verdicts[i]);
  }
  r.baseline_checked = std::min(baseline_checked, stream.labs.size());
  for (std::size_t i = 0; identical && i < r.baseline_checked; ++i)
    identical = same_verdict(
        radius::run_verifier_t_baseline(scheme, cfg, stream.labs[i], t),
        full_verdicts[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

// ---- Scenario 4: the serving tier (skewed sweep + open loop) --------------

/// A deliberately skewed instance: a dense chorded ring on the lowest `core`
/// indices — every core node's radius-t ball spans most of the core, so a
/// contiguous split's first share carries balls an order of magnitude
/// fatter than the chain interiors' — trailing sparse chains over the rest
/// of [0, n).  The shape fragment-heavy workloads produce and the shape a
/// contiguous partition handles worst: its first slot sweeps the whole core
/// while the other slots finish their chain segments and idle.
graph::Graph skewed_core_chain_graph(std::size_t core, std::size_t chains,
                                     std::size_t chain_len) {
  graph::Graph::Builder b;
  const std::size_t n = core + chains * chain_len;
  for (std::size_t v = 0; v < n; ++v)
    b.add_node(static_cast<graph::RawId>(v));
  for (std::size_t v = 0; v < core; ++v)
    b.add_edge(static_cast<graph::NodeIndex>(v),
               static_cast<graph::NodeIndex>((v + 1) % core));
  for (const std::size_t stride : {std::size_t{5}, std::size_t{11}}) {
    for (std::size_t v = 0; v < core; ++v)
      b.add_edge(static_cast<graph::NodeIndex>(v),
                 static_cast<graph::NodeIndex>((v + stride) % core));
  }
  std::size_t next = core;
  for (std::size_t c = 0; c < chains; ++c) {
    auto prev = static_cast<graph::NodeIndex>(c % core);
    for (std::size_t i = 0; i < chain_len; ++i) {
      const auto v = static_cast<graph::NodeIndex>(next++);
      b.add_edge(prev, v);
      prev = v;
    }
  }
  return std::move(b).build();
}

/// Scenario 4's result sheet: the sweep scheduler's balance on the skewed
/// and uniform instances, plus the open-loop (arrival-rate-driven) phase.
struct ServingResult {
  std::size_t n = 0;
  std::size_t core = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  // Closed loop, skewed instance: the whole batch through run().
  double closed_loop_ms = 0.0;
  std::uint64_t sweep_chunks = 0;   ///< closed-loop run, all sweeps
  std::uint64_t sweep_steals = 0;   ///< chunks run off their contiguous home
  double busy_p50_us = 0.0;         ///< per-slot claim-loop busy time
  double busy_p99_us = 0.0;
  // Scheduler balance (see sweep_busy_imbalance): 1.0 is a perfectly
  // balanced sweep; a slot left holding the dense core pushes it toward
  // `threads`.
  double busy_imbalance = 0.0;          ///< skewed instance
  double uniform_busy_imbalance = 0.0;  ///< scenario 2's uniform instance
  // Open loop over the skewed instance: requests arrive on a deterministic
  // schedule; latency includes queueing delay.
  double offered_per_sec = 0.0;
  double sustained_per_sec = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  bool verdicts_identical = false;
};

/// Median over sweeps of max/mean per-slot busy time (verify.worker_busy_ns,
/// one record per slot per sweep): each labeling runs alone through run_one
/// and its sweep's records are diffed out of a private registry.  The max
/// is a histogram bucket bound, so the ratio reads at most 1/16 high.
double sweep_busy_imbalance(const core::Scheme& scheme,
                            const local::Configuration& cfg, unsigned t,
                            unsigned threads,
                            std::span<const core::Labeling> labs,
                            const std::shared_ptr<radius::GeometryAtlas>& atlas,
                            std::vector<core::Verdict>& out) {
  obs::MetricsRegistry registry;
  radius::BatchOptions options;
  options.threads = threads;
  options.atlas = atlas;
  options.metrics = &registry;
  radius::BatchVerifier verifier(scheme, cfg, t, options);
  obs::Histogram& busy = registry.histogram("verify.worker_busy_ns");
  std::vector<double> ratios;
  out.clear();
  for (const core::Labeling& lab : labs) {
    const obs::HistogramSnapshot before = busy.snapshot();
    out.push_back(verifier.run_one(lab));
    const obs::HistogramSnapshot sweep = busy.snapshot().since(before);
    if (sweep.mean() > 0.0)
      ratios.push_back(static_cast<double>(sweep.max) / sweep.mean());
  }
  if (ratios.empty()) return 0.0;
  const auto mid =
      ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

ServingResult measure_serving(const core::Scheme& scheme,
                              const local::Configuration& skewed_cfg,
                              std::size_t core,
                              const local::Configuration& uniform_cfg,
                              unsigned t, unsigned threads,
                              std::span<const core::Labeling> skewed_labs,
                              std::span<const core::Labeling> uniform_labs,
                              double arrival_rate,
                              obs::MetricsRegistry& registry) {
  ServingResult r;
  r.n = skewed_cfg.n();
  r.core = core;
  r.t = t;
  r.labelings = skewed_labs.size();
  r.threads = threads;

  // Shared warm atlases per instance: geometry build cost is scenario 2's
  // subject; here every run must sweep the same cached balls.
  auto skewed_atlas = std::make_shared<radius::GeometryAtlas>();
  auto uniform_atlas = std::make_shared<radius::GeometryAtlas>();
  warm_geometry(*skewed_atlas, skewed_cfg.graph(), t);
  warm_geometry(*uniform_atlas, uniform_cfg.graph(), t);

  std::vector<core::Verdict> closed_v;
  {
    const obs::MetricsSnapshot before = registry.snapshot();
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = skewed_atlas;
    options.metrics = &registry;
    radius::BatchVerifier verifier(scheme, skewed_cfg, t, options);
    const auto start = std::chrono::steady_clock::now();
    closed_v = verifier.run(skewed_labs);
    const auto stop = std::chrono::steady_clock::now();
    r.closed_loop_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const obs::MetricsSnapshot snap = registry.snapshot().since(before);
    r.sweep_chunks = snap.counters.at("verify.sweep_chunks");
    r.sweep_steals = snap.counters.at("verify.sweep_steals");
    const obs::HistogramSnapshot& busy =
        snap.histograms.at("verify.worker_busy_ns");
    r.busy_p50_us = static_cast<double>(busy.quantile(0.5)) / 1e3;
    r.busy_p99_us = static_cast<double>(busy.quantile(0.99)) / 1e3;
  }

  std::vector<core::Verdict> skewed_one_v, uniform_one_v;
  r.busy_imbalance = sweep_busy_imbalance(scheme, skewed_cfg, t, threads,
                                          skewed_labs, skewed_atlas,
                                          skewed_one_v);
  r.uniform_busy_imbalance =
      sweep_busy_imbalance(scheme, uniform_cfg, t, threads, uniform_labs,
                           uniform_atlas, uniform_one_v);

  // Open loop: requests arrive at i / rate on one deterministic schedule
  // (not closed-loop: the next arrival does not wait for the previous
  // completion, so a slow sweep shows up as queueing delay in the NEXT
  // request's latency — the number a serving deployment actually quotes).
  // Default rate: 80% of the measured closed-loop throughput, the
  // sustainable-regime convention.
  const double closed_loop_per_sec =
      static_cast<double>(skewed_labs.size()) / (r.closed_loop_ms / 1000.0);
  r.offered_per_sec =
      arrival_rate > 0.0 ? arrival_rate : 0.8 * closed_loop_per_sec;
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = skewed_atlas;
    options.metrics = &registry;
    radius::BatchVerifier server(scheme, skewed_cfg, t, options);
    obs::Histogram& latency = registry.histogram("serve.latency_ns");
    const auto open_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < skewed_labs.size(); ++i) {
      const auto scheduled =
          open_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / r.offered_per_sec));
      std::this_thread::sleep_until(scheduled);
      const core::Verdict got = server.run_one(skewed_labs[i]);
      const auto done = std::chrono::steady_clock::now();
      latency.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(done -
                                                               scheduled)
              .count()));
      PLS_ASSERT(same_verdict(got, closed_v[i]));
    }
    const auto open_stop = std::chrono::steady_clock::now();
    const double window_s =
        std::chrono::duration<double>(open_stop - open_start).count();
    r.sustained_per_sec =
        static_cast<double>(skewed_labs.size()) / window_s;
    const obs::HistogramSnapshot lat_snap = latency.snapshot();
    r.latency_p50_ms = static_cast<double>(lat_snap.quantile(0.5)) / 1e6;
    r.latency_p99_ms = static_cast<double>(lat_snap.quantile(0.99)) / 1e6;
  }

  // Assignment nondeterminism must never reach the verdict bytes: every run
  // above, and batches at 2 and hardware threads, agree with the 1-slot
  // batch, whose claims drain in index order.
  const auto batch_at = [&](const local::Configuration& cfg,
                            std::span<const core::Labeling> labs,
                            const std::shared_ptr<radius::GeometryAtlas>& atlas,
                            unsigned check_threads) {
    radius::BatchOptions options;
    options.threads = check_threads;
    options.atlas = atlas;
    return radius::BatchVerifier(scheme, cfg, t, options).run(labs);
  };
  const auto same_all = [](const std::vector<core::Verdict>& a,
                           const std::vector<core::Verdict>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!same_verdict(a[i], b[i])) return false;
    return true;
  };
  const std::vector<core::Verdict> reference =
      batch_at(skewed_cfg, skewed_labs, skewed_atlas, 1);
  bool identical =
      same_all(closed_v, reference) && same_all(skewed_one_v, reference) &&
      same_all(uniform_one_v,
               batch_at(uniform_cfg, uniform_labs, uniform_atlas, 1));
  for (const unsigned check_threads :
       {2u, util::ThreadPool::hardware_threads()})
    identical = identical &&
                same_all(batch_at(skewed_cfg, skewed_labs, skewed_atlas,
                                  check_threads),
                         reference);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

// ---- Scenario 5: TinyLFU admission A/B (zipf center popularity) -----------

/// Scenario 5's result sheet: the same zipf-skewed delta stream replayed
/// against a budget-constrained atlas under both admission policies.
struct AdmissionResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double zipf_s = 0.0;
  std::size_t geometry_bytes = 0;  ///< all blocks resident (unconstrained)
  std::size_t byte_budget = 0;     ///< the constrained A/B budget
  double scan_ms = 0.0;
  double tinylfu_ms = 0.0;
  double scan_per_sec = 0.0;
  double tinylfu_per_sec = 0.0;
  radius::AtlasStats scan;
  radius::AtlasStats tinylfu;
  double hit_ratio = 0.0;  ///< tinylfu hit rate / scan-resistant hit rate
  bool verdicts_identical = false;
};

/// Mutation stream whose touched nodes are zipf-popular: rank r of the
/// sampler maps through a random permutation, so a handful of "hot" nodes —
/// and therefore the geometry blocks their radius-t balls live in — absorb
/// most of the delta traffic while the cold tail trickles.  Exactly the
/// center-popularity skew TinyLFU admission targets.
MutationStream zipf_mutation_stream(const core::Scheme& scheme,
                                    const local::Configuration& cfg,
                                    std::size_t count, double s,
                                    util::Rng& rng) {
  const std::vector<std::uint64_t> perm = rng.permutation(cfg.n());
  const bench::ZipfSampler zipf(cfg.n(), s);
  MutationStream stream;
  stream.labs.reserve(count);
  stream.labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (stream.labs.size() < count) {
    core::Labeling next = stream.labs.back();
    const auto v = static_cast<graph::NodeIndex>(perm[zipf.sample(rng)]);
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    stream.labs.push_back(std::move(next));
    stream.touched.push_back(v);
  }
  return stream;
}

AdmissionResult measure_admission(const core::Scheme& scheme,
                                  const local::Configuration& cfg, unsigned t,
                                  unsigned threads,
                                  const MutationStream& stream,
                                  double zipf_s) {
  AdmissionResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = stream.labs.size();
  r.threads = threads;
  r.zipf_s = zipf_s;

  // Ground truth on an unconstrained atlas holding every block, so its
  // residency is the total geometry footprint the budget then squeezes.
  auto full_atlas = std::make_shared<radius::GeometryAtlas>();
  warm_geometry(*full_atlas, cfg.graph(), t);
  std::vector<core::Verdict> truth;
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = full_atlas;
    radius::BatchVerifier verifier(scheme, cfg, t, options);
    truth = replay_deltas(verifier, stream);
  }
  r.geometry_bytes = full_atlas->stats().bytes_in_use;
  // A quarter of the geometry fits: one hot node's radius-t ball spans a
  // sizable block range on the grid, so the budget must reward keeping the
  // zipf head resident while staying far too small for the whole sweep.
  r.byte_budget = std::max<std::size_t>(1, r.geometry_bytes / 4);
  // TinyLFU's aging cadence, sized to the cache like W-TinyLFU prescribes
  // (sample period ~ 10x capacity in entries).  The 8192-record default
  // never fires on a stream this size, and an unaged sketch freezes the
  // early hot set: blocks that peaked at estimate 15 an epoch ago veto
  // every newly hot contender, so TinyLFU's edge *decays* as the stream
  // lengthens exactly when it should compound.
  const std::size_t total_blocks = std::max<std::size_t>(1, (cfg.n() + 15) / 16);
  const std::size_t block_bytes =
      std::max<std::size_t>(1, r.geometry_bytes / total_blocks);
  const std::uint64_t sample_period =
      std::max<std::uint64_t>(64, 10 * (r.byte_budget / block_bytes));

  const auto run_policy = [&](radius::Admission admission, double& ms,
                              radius::AtlasStats& stats) {
    radius::AtlasOptions atlas_options;
    atlas_options.byte_budget = r.byte_budget;
    atlas_options.admission = admission;
    atlas_options.sketch_sample_period = sample_period;
    // Finer blocks sharpen the A/B: a cold delta's ball then spans more
    // (smaller) blocks, so the blind every-k-th turnover admits — and
    // churns — proportionally more per scan, while the sketch's veto is
    // per-block and unaffected.
    atlas_options.block_centers = 16;
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = std::make_shared<radius::GeometryAtlas>(atlas_options);
    radius::BatchVerifier verifier(scheme, cfg, t, options);
    std::vector<core::Verdict> verdicts;
    verdicts.reserve(stream.labs.size());
    // The seeding scan over every block is a cyclic scan both policies
    // survive the same way (bypass); its lookups would dilute the A/B, so
    // the reported stats cover the delta phase only (snapshot diff).
    warm_geometry(*options.atlas, cfg.graph(), t);
    verdicts.push_back(verifier.run_one(stream.labs.front()));
    const radius::AtlasStats warm = options.atlas->stats();
    radius::LabelingDelta delta;
    delta.touched.resize(1);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 1; i < stream.labs.size(); ++i) {
      delta.touched[0] = stream.touched[i - 1];
      verdicts.push_back(verifier.run_delta(stream.labs[i], delta));
    }
    const auto stop = std::chrono::steady_clock::now();
    ms = std::chrono::duration<double, std::milli>(stop - start).count();
    stats = options.atlas->stats().since(warm);
    return verdicts;
  };
  const std::vector<core::Verdict> scan_v =
      run_policy(radius::Admission::kScanResistant, r.scan_ms, r.scan);
  const std::vector<core::Verdict> tinylfu_v =
      run_policy(radius::Admission::kTinyLFU, r.tinylfu_ms, r.tinylfu);

  // Throughput over the timed (delta) phase: deltas per second.
  const auto count = static_cast<double>(stream.labs.size() - 1);
  r.scan_per_sec = count / (r.scan_ms / 1000.0);
  r.tinylfu_per_sec = count / (r.tinylfu_ms / 1000.0);
  r.hit_ratio = r.scan.hit_rate() > 0.0
                    ? r.tinylfu.hit_rate() / r.scan.hit_rate()
                    : 0.0;

  // Admission policy is a performance knob, never a correctness one: both
  // constrained replays must agree with the unconstrained ground truth.
  bool identical = scan_v.size() == truth.size() &&
                   tinylfu_v.size() == truth.size();
  for (std::size_t i = 0; identical && i < truth.size(); ++i)
    identical = same_verdict(scan_v[i], truth[i]) &&
                same_verdict(tinylfu_v[i], truth[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

/// Writes the admission-scenario object (nested under "admission" in the
/// top-level artifact; --admission-out wraps it as its own root).
void emit_admission(obs::JsonWriter& json, const AdmissionResult& r,
                    std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_admission");
  json.kv("seed", seed);
  json.kv("n", r.n);
  json.kv("t", r.t);
  json.kv("labelings", r.labelings);
  json.kv("threads", r.threads);
  json.kv("zipf_s", r.zipf_s);
  json.kv("geometry_bytes", r.geometry_bytes);
  json.kv("byte_budget", r.byte_budget);
  json.kv("scan_ms", r.scan_ms);
  json.kv("tinylfu_ms", r.tinylfu_ms);
  json.kv("scan_labelings_per_sec", r.scan_per_sec);
  json.kv("tinylfu_labelings_per_sec", r.tinylfu_per_sec);
  json.kv("scan_hit_rate", r.scan.hit_rate());
  json.kv("tinylfu_hit_rate", r.tinylfu.hit_rate());
  json.kv("hit_ratio", r.hit_ratio);
  json.kv("scan_evictions", r.scan.evictions);
  json.kv("scan_bypassed", r.scan.bypassed);
  json.kv("tinylfu_evictions", r.tinylfu.evictions);
  json.kv("tinylfu_sketch_rejects", r.tinylfu.sketch_rejects);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.end_object();
}

double t8_speedup_sequential(const std::vector<Row>& rows) {
  for (const Row& r : rows)
    if (r.t == 8) return r.baseline_ms / r.seq_ms;
  return 0.0;
}

/// Writes the incremental-scenario object into an in-progress document (the
/// top-level artifact nests it; --incremental-out wraps it as its own root).
void emit_incremental(obs::JsonWriter& json, const IncrementalResult& r,
                      const obs::MetricsSnapshot& metrics,
                      std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_incremental");
  json.kv("seed", seed);
  json.kv("n", r.n);
  json.kv("t", r.t);
  json.kv("labelings", r.labelings);
  json.kv("threads", r.threads);
  json.kv("full_ms", r.full_ms);
  json.kv("delta_ms", r.delta_ms);
  json.kv("full_labelings_per_sec", r.full_per_sec);
  json.kv("delta_labelings_per_sec", r.delta_per_sec);
  json.kv("speedup", r.speedup);
  json.kv("delta_runs", r.delta_stats.delta_runs);
  json.kv("certs_reparsed", r.delta_stats.certs_reparsed);
  json.kv("links_incremental", r.delta_stats.links_incremental);
  json.kv("centers_reswept", r.delta_stats.centers_reswept);
  json.kv("verdicts_carried", r.delta_stats.verdicts_carried);
  json.kv("dirty_fraction", r.dirty_fraction);
  json.kv("full_phase_hit_rate", r.full_phase_hit_rate);
  json.kv("delta_phase_hit_rate", r.delta_phase_hit_rate);
  json.kv("baseline_checked", r.baseline_checked);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
}

void emit_batch(obs::JsonWriter& json, const BatchResult& b,
                const obs::MetricsSnapshot& metrics, std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_batch");
  json.kv("seed", seed);
  json.kv("n", b.n);
  json.kv("t", b.t);
  json.kv("labelings", b.labelings);
  json.kv("threads", b.threads);
  json.kv("rebuild_ms", b.rebuild_ms);
  json.kv("batch_ms", b.batch_ms);
  json.kv("rebuild_labelings_per_sec", b.rebuild_per_sec);
  json.kv("batch_labelings_per_sec", b.batch_per_sec);
  json.kv("speedup", b.speedup);
  json.kv("atlas_hits", b.atlas.hits);
  json.kv("atlas_misses", b.atlas.misses);
  json.kv("atlas_hit_rate", b.atlas.hit_rate());
  json.kv("atlas_evictions", b.atlas.evictions);
  json.kv("atlas_bytes_in_use", b.atlas.bytes_in_use);
  json.kv("atlas_peak_bytes", b.atlas.peak_bytes);
  json.kv("baseline_checked", b.baseline_checked);
  json.kv("verdicts_identical", b.verdicts_identical);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
}

/// Writes the serving-scenario object (docs/metrics-schema.md,
/// "Serving artifact"): closed-loop scheduler balance plus the open-loop
/// phase.
void emit_serving(obs::JsonWriter& json, const ServingResult& r,
                  const obs::MetricsSnapshot& metrics, std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_serving");
  json.kv("seed", seed);
  json.kv("n", r.n);
  json.kv("core", r.core);
  json.kv("t", r.t);
  json.kv("labelings", r.labelings);
  json.kv("threads", r.threads);
  json.kv("closed_loop_ms", r.closed_loop_ms);
  json.kv("sweep_chunks", r.sweep_chunks);
  json.kv("sweep_steals", r.sweep_steals);
  json.kv("busy_p50_us", r.busy_p50_us);
  json.kv("busy_p99_us", r.busy_p99_us);
  json.kv("busy_imbalance", r.busy_imbalance);
  json.kv("uniform_busy_imbalance", r.uniform_busy_imbalance);
  json.kv("offered_per_sec", r.offered_per_sec);
  json.kv("sustained_per_sec", r.sustained_per_sec);
  json.kv("latency_p50_ms", r.latency_p50_ms);
  json.kv("latency_p99_ms", r.latency_p99_ms);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
}

void emit(std::ostream& out, const std::vector<Row>& rows,
          const BatchResult& batch, const obs::MetricsSnapshot& batch_metrics,
          const IncrementalResult& incremental,
          const obs::MetricsSnapshot& incr_metrics,
          const ServingResult& serving,
          const obs::MetricsSnapshot& serving_metrics,
          const AdmissionResult& admission,
          double disabled_span_ns, std::uint64_t seed) {
  const double t8_speedup_seq = t8_speedup_sequential(rows);
  double t8_speedup_par = 0.0;
  for (const Row& r : rows)
    if (r.t == 8) t8_speedup_par = r.baseline_ms / r.par_ms;
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "verify_scale");
  json.kv("id_space", kIdSpace);
  json.kv("seed", seed);
  json.kv("t8_speedup_sequential", t8_speedup_seq);
  json.kv("t8_speedup_parallel", t8_speedup_par);
  json.kv("disabled_span_ns", disabled_span_ns);
  json.key("rows");
  json.begin_array();
  for (const Row& r : rows) {
    json.begin_object();
    json.kv("scheme", r.scheme);
    json.kv("n", r.n);
    json.kv("t", r.t);
    json.kv("max_cert_bits", r.max_cert_bits);
    json.kv("avg_cert_bits", r.avg_cert_bits);
    json.kv("baseline_ms", r.baseline_ms);
    json.kv("seq_ms", r.seq_ms);
    json.kv("par_ms", r.par_ms);
    json.kv("threads", r.threads);
    json.kv("verdicts_identical", r.verdicts_identical);
    json.end_object();
  }
  json.end_array();
  json.key("batch");
  emit_batch(json, batch, batch_metrics, seed);
  json.key("incremental");
  emit_incremental(json, incremental, incr_metrics, seed);
  json.key("serving");
  emit_serving(json, serving, serving_metrics, seed);
  json.key("admission");
  emit_admission(json, admission, seed);
  json.end_object();
  PLS_ASSERT(json.finished());
}

/// The observability tax when nothing observes: per-iteration cost of one
/// instrumented-but-disabled trace span (a relaxed atomic load, no clock
/// read).  The CI overhead gate bounds this number.
double disabled_span_cost_ns(std::size_t iters) {
  PLS_REQUIRE(!obs::TraceRecorder::enabled());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    PLS_TRACE_SPAN("overhead.gate");
  }
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  return static_cast<double>(ns) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliArgs args(argc, argv);
  const bool smoke = args.take_flag("smoke");
  const std::string out_path = args.take_value("out").value_or("");
  const std::string batch_out_path = args.take_value("batch-out").value_or("");
  const std::string incremental_out_path =
      args.take_value("incremental-out").value_or("");
  const std::string trace_out_path = args.take_value("trace-out").value_or("");
  const std::string serving_out_path =
      args.take_value("serving-out").value_or("");
  const std::uint64_t seed = args.take_seed(kDefaultSeed);
  const unsigned threads =
      args.take_unsigned("threads", util::ThreadPool::hardware_threads());
  const unsigned batch_t = args.take_unsigned("t", 8);
  const std::size_t labeling_count =
      args.take_size("labelings", smoke ? 16 : 100);
  const double require_speedup = args.take_double("require-speedup", 0.0);
  const double require_batch_speedup =
      args.take_double("require-batch-speedup", 0.0);
  const double require_incremental_speedup =
      args.take_double("require-incremental-speedup", 0.0);
  const double max_disabled_span_ns =
      args.take_double("max-disabled-span-ns", 0.0);
  const double require_busy_imbalance =
      args.take_double("require-busy-imbalance", 0.0);
  const double arrival_rate = args.take_double("arrival-rate", 0.0);
  const std::string admission_out_path =
      args.take_value("admission-out").value_or("");
  const double zipf_s = args.take_double("zipf-s", 1.0);
  const double require_tinylfu_hit_ratio =
      args.take_double("require-tinylfu-hit-ratio", 0.0);
  if (!args.finish("bench_verify_scale [--smoke] [--out FILE] "
                   "[--batch-out FILE] [--incremental-out FILE] "
                   "[--trace-out FILE] [--serving-out FILE] "
                   "[--admission-out FILE] [--seed S] "
                   "[--threads T] [--t T] [--labelings L] "
                   "[--require-speedup X] [--require-batch-speedup X] "
                   "[--require-incremental-speedup X] "
                   "[--max-disabled-span-ns X] [--require-busy-imbalance X] "
                   "[--arrival-rate A] "
                   "[--zipf-s S] [--require-tinylfu-hit-ratio R]"))
    return 2;
  PLS_REQUIRE(batch_t >= 1 && labeling_count >= 1 && threads >= 1);

  const std::size_t n = smoke ? 1024 : 4096;
  util::Rng rng(seed);
  graph::Graph base_graph = graph::random_connected(n, n / 2, rng);
  auto g = std::make_shared<const graph::Graph>(
      graph::relabel_random(base_graph, rng, kIdSpace));

  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  const local::Configuration cfg = language.sample_legal(g, rng);

  std::vector<Row> rows;
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    if (t == 1) {
      rows.push_back(measure(stp, cfg, 1, threads));
    } else {
      const radius::SpreadScheme spread(stp, t);
      rows.push_back(measure(spread, cfg, t, threads));
    }
    const Row& r = rows.back();
    std::cerr << r.scheme << " n=" << r.n << " t=" << r.t
              << " max_bits=" << r.max_cert_bits
              << " baseline_ms=" << r.baseline_ms
              << " seq_ms=" << r.seq_ms << " par_ms=" << r.par_ms << "\n";
  }

  // Scenario 2: the adversary-style batch.  Oracle every labeling against
  // the naive engine under --smoke; at full size the naive engine takes
  // ~10 s per labeling, so oracle only the first two (the batch/rebuild/
  // thread-count cross-checks still cover all of them).
  const radius::SpreadScheme batch_spread(stp, batch_t);
  const core::Scheme& batch_scheme =
      batch_t == 1 ? static_cast<const core::Scheme&>(stp)
                   : static_cast<const core::Scheme&>(batch_spread);
  util::Rng batch_rng(seed ^ kBatchSalt);
  const std::vector<core::Labeling> labs =
      candidate_labelings(batch_scheme, cfg, labeling_count, batch_rng);
  obs::MetricsRegistry batch_registry;
  const BatchResult batch =
      measure_batch(batch_scheme, cfg, batch_t, threads, labs,
                    smoke ? labs.size() : 2, batch_registry,
                    !trace_out_path.empty());
  const obs::MetricsSnapshot batch_metrics = batch_registry.snapshot();
  {
    const obs::HistogramSnapshot& sweep =
        batch_metrics.histograms.at("verify.sweep_window_ns");
    const obs::HistogramSnapshot& e2e =
        batch_metrics.histograms.at("verify.e2e_ns");
    std::cerr << "batch n=" << batch.n << " t=" << batch.t
              << " labelings=" << batch.labelings
              << " threads=" << batch.threads
              << " rebuild_ms=" << batch.rebuild_ms
              << " batch_ms=" << batch.batch_ms << " speedup=" << batch.speedup
              << " atlas_hit_rate=" << batch.atlas.hit_rate()
              << " e2e_p50_us=" << static_cast<double>(e2e.quantile(0.5)) / 1e3
              << " e2e_p99_us=" << static_cast<double>(e2e.quantile(0.99)) / 1e3
              << " sweep_p50_us="
              << static_cast<double>(sweep.quantile(0.5)) / 1e3
              << " sweep_p99_us="
              << static_cast<double>(sweep.quantile(0.99)) / 1e3 << "\n";
  }
  if (!trace_out_path.empty()) {
    std::ofstream trace_out(trace_out_path);
    if (!trace_out) {
      std::cerr << "cannot open " << trace_out_path << "\n";
      return 1;
    }
    obs::TraceRecorder::export_chrome_trace(trace_out);
    std::cout << "wrote " << trace_out_path << "\n";
  }

  // Scenario 3: the incremental delta stream.  Always n = 4096 — the dirty
  // fraction (mutated node's ball / n) is what the speedup measures, so a
  // smaller smoke instance would gate a different quantity; --smoke keeps
  // the stream short instead.  The topology is a 64x64 grid: incremental
  // verification is a *locality* play, and the grid is the bounded-growth
  // regime the t-PLS tradeoff targets — |B(v, 8)| <= 145 = 3.5% of n, so
  // re-sweeping only the dirty ball can win big.  (On the random
  // random_connected(n, n/2) instance of scenarios 1-2 the radius-8 ball
  // already covers ~2/3 of the graph — its random-attachment spanning tree
  // has O(log n) depth — and NO delta scheme can beat ~1.5x there; the
  // emitted dirty_fraction makes that boundary explicit.)
  const std::size_t incr_side = 64;
  IncrementalResult incremental;
  obs::MetricsRegistry incr_registry;
  {
    util::Rng incr_rng(seed ^ kIncrementalSalt);
    graph::Graph incr_base = graph::grid(incr_side, incr_side);
    auto incr_g = std::make_shared<const graph::Graph>(
        graph::relabel_random(incr_base, incr_rng, kIdSpace));
    const local::Configuration incr_cfg =
        language.sample_legal(incr_g, incr_rng);
    const radius::SpreadScheme incr_spread(stp, batch_t);
    const core::Scheme& incr_scheme =
        batch_t == 1 ? static_cast<const core::Scheme&>(stp)
                     : static_cast<const core::Scheme&>(incr_spread);
    const MutationStream stream =
        mutation_stream(incr_scheme, incr_cfg, labeling_count, incr_rng);
    incremental = measure_incremental(incr_scheme, incr_cfg, batch_t, threads,
                                      stream, smoke ? 1 : 2, incr_registry);
    const obs::MetricsSnapshot snap = incr_registry.snapshot();
    const obs::HistogramSnapshot& delta_e2e =
        snap.histograms.at("delta.e2e_ns");
    std::cerr << "incremental n=" << incremental.n << " t=" << incremental.t
              << " labelings=" << incremental.labelings
              << " threads=" << incremental.threads
              << " full_ms=" << incremental.full_ms
              << " delta_ms=" << incremental.delta_ms
              << " speedup=" << incremental.speedup
              << " dirty_fraction=" << incremental.dirty_fraction
              << " delta_phase_hit_rate=" << incremental.delta_phase_hit_rate
              << " delta_e2e_p50_us="
              << static_cast<double>(delta_e2e.quantile(0.5)) / 1e3
              << " delta_e2e_p99_us="
              << static_cast<double>(delta_e2e.quantile(0.99)) / 1e3 << "\n";
  }
  const obs::MetricsSnapshot incr_metrics = incr_registry.snapshot();

  // Scenario 4: the serving tier.  The skewed instance is where a
  // contiguous split demonstrably starves cores — a dense chorded-ring core
  // on the low sixteenth of the index space (fat radius-t balls) plus sparse
  // chains over the rest — so its per-sweep busy imbalance pins the
  // scheduler's balance, the uniform instance (scenario 2's random graph)
  // pins it where there is no skew to fix, and the open-loop phase reports
  // what a deployment quotes: sustained labelings/sec and p50/p99 latency
  // at a fixed offered rate.  Verdict identity across runs and thread
  // counts is asserted inside measure_serving.  The scenario gates what the
  // steal scheduler buys a sweep that reads every center's ball; the
  // spread's planned sweep decides most centers from distance fields
  // instead (radius::SweepPlan), so it runs the MST fragment spread, which
  // plans nothing, over MST configurations of both graphs (distinct random
  // edge weights).
  ServingResult serving;
  obs::MetricsRegistry serving_registry;
  {
    const schemes::MstLanguage mst_language;
    const schemes::MstScheme mst(mst_language);
    const radius::FragmentSpreadScheme serving_fragment(mst, batch_t);
    const core::Scheme& serving_scheme =
        batch_t == 1 ? static_cast<const core::Scheme&>(mst)
                     : static_cast<const core::Scheme&>(serving_fragment);
    const std::size_t serving_core = n / 16;
    const std::size_t serving_chains = 32;
    const std::size_t chain_len = (n - serving_core) / serving_chains;
    util::Rng serving_rng(seed ^ kServingSalt);
    graph::Graph skewed_base =
        skewed_core_chain_graph(serving_core, serving_chains, chain_len);
    auto skewed_g = std::make_shared<const graph::Graph>(
        graph::reweight_random(
            graph::relabel_random(skewed_base, serving_rng, kIdSpace),
            serving_rng));
    const local::Configuration skewed_cfg =
        mst_language.sample_legal(skewed_g, serving_rng);
    const std::vector<core::Labeling> skewed_labs = candidate_labelings(
        serving_scheme, skewed_cfg, labeling_count, serving_rng);
    const local::Configuration uniform_cfg = mst_language.sample_legal(
        std::make_shared<const graph::Graph>(
            graph::reweight_random(*g, serving_rng)),
        serving_rng);
    const std::vector<core::Labeling> uniform_labs = candidate_labelings(
        serving_scheme, uniform_cfg, labeling_count, serving_rng);
    serving = measure_serving(serving_scheme, skewed_cfg, serving_core,
                              uniform_cfg, batch_t, threads, skewed_labs,
                              uniform_labs, arrival_rate, serving_registry);
    std::cerr << "serving n=" << serving.n << " core=" << serving.core
              << " t=" << serving.t << " labelings=" << serving.labelings
              << " threads=" << serving.threads
              << " closed_loop_ms=" << serving.closed_loop_ms
              << " steals=" << serving.sweep_steals << "/"
              << serving.sweep_chunks
              << " busy_imbalance=" << serving.busy_imbalance
              << " uniform_busy_imbalance=" << serving.uniform_busy_imbalance
              << " offered_per_sec=" << serving.offered_per_sec
              << " sustained_per_sec=" << serving.sustained_per_sec
              << " latency_p50_ms=" << serving.latency_p50_ms
              << " latency_p99_ms=" << serving.latency_p99_ms << "\n";
  }
  const obs::MetricsSnapshot serving_metrics = serving_registry.snapshot();

  // Scenario 5: admission A/B.  Same bounded-growth grid as scenario 3 (the
  // skew is over *blocks*, so the instance must have many distinct blocks
  // with local balls), a delta stream whose touched nodes are zipf-popular,
  // and an atlas budget holding a sixth of the geometry: kScanResistant's
  // every-k-th turnover admits cold-tail blocks blindly and churns the hot
  // head out; kTinyLFU's sketch vetoes them.  The stream length is fixed
  // (independent of --labelings) so the sketch has traffic to learn from
  // even under --smoke.
  AdmissionResult admission;
  {
    util::Rng adm_rng(seed ^ kAdmissionSalt);
    graph::Graph adm_base = graph::grid(incr_side, incr_side);
    auto adm_g = std::make_shared<const graph::Graph>(
        graph::relabel_random(adm_base, adm_rng, kIdSpace));
    const local::Configuration adm_cfg = language.sample_legal(adm_g, adm_rng);
    // t = 2, not batch_t: admission is a block-traffic property, and a
    // radius-8 ball spans a third of the grid's rows — smearing every
    // node's popularity over dozens of blocks until the two policies see
    // nearly the same key stream.  A t = 2 ball stays within a couple of
    // blocks, so the zipf skew lands on block keys undiluted.
    const unsigned adm_t = 2;
    const radius::SpreadScheme adm_scheme(stp, adm_t);
    const MutationStream adm_stream = zipf_mutation_stream(
        adm_scheme, adm_cfg, smoke ? 48 : 160, zipf_s, adm_rng);
    admission = measure_admission(adm_scheme, adm_cfg, adm_t, threads,
                                  adm_stream, zipf_s);
    std::cerr << "admission n=" << admission.n << " t=" << admission.t
              << " labelings=" << admission.labelings
              << " zipf_s=" << admission.zipf_s
              << " budget=" << admission.byte_budget << "/"
              << admission.geometry_bytes
              << " scan_hit_rate=" << admission.scan.hit_rate()
              << " tinylfu_hit_rate=" << admission.tinylfu.hit_rate()
              << " hit_ratio=" << admission.hit_ratio
              << " sketch_rejects=" << admission.tinylfu.sketch_rejects
              << " scan_per_sec=" << admission.scan_per_sec
              << " tinylfu_per_sec=" << admission.tinylfu_per_sec << "\n";
  }

  const double disabled_span_ns = disabled_span_cost_ns(1u << 20);
  std::cerr << "disabled_span_ns=" << disabled_span_ns << "\n";

  if (out_path.empty()) {
    emit(std::cout, rows, batch, batch_metrics, incremental, incr_metrics,
         serving, serving_metrics, admission, disabled_span_ns, seed);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    emit(out, rows, batch, batch_metrics, incremental, incr_metrics, serving,
         serving_metrics, admission, disabled_span_ns, seed);
    std::cout << "wrote " << out_path << "\n";
  }
  if (!batch_out_path.empty()) {
    std::ofstream out(batch_out_path);
    if (!out) {
      std::cerr << "cannot open " << batch_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_batch(json, batch, batch_metrics, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << batch_out_path << "\n";
  }
  if (!incremental_out_path.empty()) {
    std::ofstream out(incremental_out_path);
    if (!out) {
      std::cerr << "cannot open " << incremental_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_incremental(json, incremental, incr_metrics, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << incremental_out_path << "\n";
  }
  if (!serving_out_path.empty()) {
    std::ofstream out(serving_out_path);
    if (!out) {
      std::cerr << "cannot open " << serving_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_serving(json, serving, serving_metrics, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << serving_out_path << "\n";
  }
  if (!admission_out_path.empty()) {
    std::ofstream out(admission_out_path);
    if (!out) {
      std::cerr << "cannot open " << admission_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_admission(json, admission, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << admission_out_path << "\n";
  }

  if (require_speedup > 0.0) {
    const double speedup = t8_speedup_sequential(rows);
    if (speedup < require_speedup) {
      std::cerr << "FAIL: t=8 sequential speedup " << speedup << " < required "
                << require_speedup << "\n";
      return 1;
    }
    std::cerr << "t=8 sequential speedup " << speedup << " >= required "
              << require_speedup << "\n";
  }
  if (require_batch_speedup > 0.0) {
    if (batch.speedup < require_batch_speedup) {
      std::cerr << "FAIL: batch speedup " << batch.speedup << " < required "
                << require_batch_speedup << "\n";
      return 1;
    }
    std::cerr << "batch speedup " << batch.speedup << " >= required "
              << require_batch_speedup << "\n";
  }
  if (require_incremental_speedup > 0.0) {
    if (incremental.speedup < require_incremental_speedup) {
      std::cerr << "FAIL: incremental speedup " << incremental.speedup
                << " < required " << require_incremental_speedup << "\n";
      return 1;
    }
    std::cerr << "incremental speedup " << incremental.speedup
              << " >= required " << require_incremental_speedup << "\n";
  }
  if (require_busy_imbalance > 0.0) {
    const double worst =
        std::max(serving.busy_imbalance, serving.uniform_busy_imbalance);
    if (worst > require_busy_imbalance) {
      std::cerr << "FAIL: sweep busy imbalance " << serving.busy_imbalance
                << " (skewed), " << serving.uniform_busy_imbalance
                << " (uniform) > allowed " << require_busy_imbalance << "\n";
      return 1;
    }
    std::cerr << "sweep busy imbalance " << serving.busy_imbalance
              << " (skewed), " << serving.uniform_busy_imbalance
              << " (uniform) <= allowed " << require_busy_imbalance << "\n";
  }
  if (require_tinylfu_hit_ratio > 0.0) {
    if (admission.hit_ratio < require_tinylfu_hit_ratio) {
      std::cerr << "FAIL: tinylfu/scan hit ratio " << admission.hit_ratio
                << " < required " << require_tinylfu_hit_ratio << "\n";
      return 1;
    }
    std::cerr << "tinylfu/scan hit ratio " << admission.hit_ratio
              << " >= required " << require_tinylfu_hit_ratio << "\n";
  }
  if (max_disabled_span_ns > 0.0) {
    if (disabled_span_ns > max_disabled_span_ns) {
      std::cerr << "FAIL: disabled span costs " << disabled_span_ns
                << " ns > allowed " << max_disabled_span_ns << "\n";
      return 1;
    }
    std::cerr << "disabled span " << disabled_span_ns << " ns <= allowed "
              << max_disabled_span_ns << "\n";
  }
  return 0;
}
