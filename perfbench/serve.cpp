// serve_open_loop: three tenants on one serve::Server with one sweep slot
// (so the shared atlas sees a deterministic access order per tenant):
//
//   stp_t1  the 1-round spanning-tree verifier (KKP05) on a random graph,
//           n=4096
//   stp_t8  the spanning-tree spread at t=8 on a 64x64 grid
//   mst_t4  the MST fragment spread at t=4 on a weighted 64x64 grid
//
// They share one atlas with the default admission policy and a budget below
// the tenants' total geometry, so fulls evict and rebuild blocks.  Requests
// are version-1 frames (no TTL, no queue bound), round-robin over the
// tenants: mostly 1-4-node deltas, and every kFullEvery-th request of a
// tenant a full re-seed to the honest marking.  Arrivals follow a fixed
// schedule at the constant rate kOfferedRps whether or not the server keeps
// up, and each request is timed from its scheduled arrival, so a slow
// dispatch charges its overrun to the requests queued behind it.  Wire
// parsing, DRR queueing, atlas admission/eviction/rebuild and the 1-round
// engine carry the time here and nowhere else.
#include <array>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/trace.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace perfbench {
namespace {

/// Offered load, requests/s over all tenants: about half of the dispatcher's
/// measured capacity (~190 req/s) on the reference machine (see the README),
/// fixed so that the load does not move with the code under test.
constexpr double kOfferedRps = 90.0;
constexpr std::size_t kFlatNodes = 4096;
constexpr std::size_t kSide = 64;
constexpr std::size_t kFullEvery = 32;
constexpr std::size_t kMaxDeltaNodes = 4;
/// About 3/4 of the tenants' ~25.5 MiB of geometry (stp_t8 ~20 MiB, mst_t4
/// ~5.5 MiB; the 1-round tenant needs none).
constexpr std::size_t kAtlasBudget = std::size_t{20} << 20;
constexpr std::size_t kTenants = 3;
constexpr std::size_t kFlat = 0;  ///< the 1-round tenant

struct Tenant {
  std::string name;
  const core::Scheme* scheme = nullptr;
  const local::Configuration* cfg = nullptr;
  unsigned t = 0;
  std::uint32_t id = 0;
  core::Labeling honest;
  serve::Server::Frame full;  ///< the honest marking, encoded once
};

struct Instance {
  obs::MetricsRegistry metrics;  ///< the server's and its verifiers' figures
  schemes::StpLanguage stp_language;
  schemes::StpScheme stp{stp_language};
  schemes::MstLanguage mst_language;
  schemes::MstScheme mst{mst_language};
  radius::SpreadScheme stp_t8{stp, 8};
  radius::FragmentSpreadScheme mst_t4{mst, 4};
  std::optional<local::Configuration> cfg_flat;
  std::optional<local::Configuration> cfg_grid;
  std::optional<local::Configuration> cfg_mst;
  std::array<Tenant, kTenants> tenants;
  std::unique_ptr<serve::Server> server;
};

serve::Server::Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Set-up: instances, honest markings, the server with its tenants, and one
/// full request per tenant served closed-loop (the cold atlas builds).
std::unique_ptr<Instance> build(Report& report) {
  auto in = std::make_unique<Instance>();
  util::Rng rng(stream_seed(kInstanceSeed, 2));
  in->cfg_flat.emplace(in->stp_language.sample_legal(
      random_graph(kFlatNodes, stream_seed(kInstanceSeed, 1)), rng));
  in->cfg_grid.emplace(in->stp_language.sample_legal(
      grid_graph(kSide, kSide, stream_seed(kInstanceSeed, 5), false), rng));
  in->cfg_mst.emplace(in->mst_language.sample_legal(
      grid_graph(kSide, kSide, stream_seed(kInstanceSeed, 6), true), rng));

  serve::ServerOptions options;
  options.threads = 1;
  radius::AtlasOptions atlas;
  atlas.byte_budget = kAtlasBudget;
  options.atlas = std::make_shared<radius::GeometryAtlas>(atlas);
  options.metrics = &in->metrics;
  in->server = std::make_unique<serve::Server>(options);
  in->tenants[0] = {"stp_t1", &in->stp, &*in->cfg_flat, 1, 0, {}, {}};
  in->tenants[1] = {"stp_t8", &in->stp_t8, &*in->cfg_grid, 8, 0, {}, {}};
  in->tenants[2] = {"mst_t4", &in->mst_t4, &*in->cfg_mst, 4, 0, {}, {}};
  for (Tenant& tenant : in->tenants) {
    tenant.id =
        in->server->add_tenant(tenant.name, *tenant.scheme, *tenant.cfg, tenant.t);
    tenant.honest = tenant.scheme->mark(*tenant.cfg);
    tenant.full = frame_of(serve::encode_full(
        tenant.id, tenant.cfg->graph().epoch(), tenant.t, tenant.honest));
    in->server->submit(tenant.full, serve::Server::now_ns());
  }
  for (const serve::Server::Response& r : in->server->drain())
    report.check(r.wire_ok && r.verdict.all_accept(),
                 "warm-up: honest full request not accepted everywhere");
  return in;
}

/// One request of the schedule, as the benchmark generated it.
struct Request {
  std::size_t tenant = 0;
  bool full = false;
  std::vector<graph::NodeIndex> touched;
  std::vector<util::BitString> certs;  ///< new certificates of `touched`
  serve::Server::Frame frame;
};

/// The seeded request schedule of `count` requests, continuing each
/// tenant's stream state in `current`.
std::vector<Request> plan(const Instance& in, std::size_t count,
                          std::uint64_t first, util::Rng& rng,
                          std::array<core::Labeling, kTenants>& current) {
  std::vector<Request> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t global = first + i;
    Request& r = out[i];
    r.tenant = global % kTenants;
    const Tenant& tenant = in.tenants[r.tenant];
    // Each tenant's fulls are phase-shifted so the three never arrive
    // back to back.
    const std::uint64_t nth = global / kTenants + r.tenant * 11;
    r.full = nth % kFullEvery == kFullEvery - 1;
    core::Labeling& labeling = current[r.tenant];
    if (r.full) {
      labeling = tenant.honest;
      r.frame = tenant.full;
      continue;
    }
    const graph::Graph& g = tenant.cfg->graph();
    r.touched = pick_nodes(g.n(), 1 + rng.below(kMaxDeltaNodes), rng);
    for (const graph::NodeIndex v : r.touched) {
      mutate(tenant.honest, labeling, v, rng);
      r.certs.push_back(labeling.certs[v]);
    }
    r.frame = frame_of(serve::encode_delta(
        tenant.id, g.epoch(), tenant.t, static_cast<std::uint32_t>(g.n()),
        r.touched, labeling));
  }
  return out;
}

/// What the benchmark observed for one request.
struct Outcome {
  bool answered = false;
  std::vector<bool> accept;
  double latency_ms = 0.0;  ///< completion - scheduled arrival
  double service_ms = 0.0;  ///< the serve_next call that completed it
};

struct Window {
  std::vector<double> lag_ms;
  double busy_s = 0.0;
  double submit_s = 0.0;
  std::size_t served = 0;
  radius::AtlasStats atlas;
  obs::MetricsSnapshot metrics;
};

/// Offers `requests` (global indices from `first`) on the fixed schedule,
/// serving between arrivals, then drains.
Window run_window(Instance& in, std::span<const Request> requests,
                  std::uint64_t first, std::uint64_t seq_base,
                  std::vector<Outcome>& outcomes, OutputLedger& ledger,
                  Report& report) {
  serve::Server& server = *in.server;
  Window w;
  const radius::AtlasStats atlas_before = server.atlas()->stats();
  const obs::MetricsSnapshot metrics_before = in.metrics.snapshot();
  std::vector<std::uint64_t> scheduled(requests.size());
  const bool traced = obs::TraceRecorder::enabled();
  const auto serve_one = [&]() -> bool {
    const std::uint64_t span_start = traced ? obs::TraceRecorder::now_ns() : 0;
    const std::uint64_t t0 = now_ns();
    const std::optional<serve::Server::Response> r = server.serve_next();
    const std::uint64_t t1 = now_ns();
    // Only a poll that served a request is dispatcher work: the empty
    // polls between arrivals are the generator idling.
    if (!r) return false;
    w.busy_s += static_cast<double>(t1 - t0) / 1e9;
    ++w.served;
    // The span is recorded after the call because the served seq, its
    // argument, is known only then.
    if (traced)
      obs::TraceRecorder::record("Server::serve_next", span_start,
                                 obs::TraceRecorder::now_ns(), r->seq);
    const std::uint64_t op = r->seq - seq_base;
    if (r->seq < seq_base || op < first || op >= first + requests.size()) {
      report.check(false, "response for an unknown seq");
      return true;
    }
    ledger.record(op);
    ledger.check(op, r->wire_ok,
                 std::string("request not served: ") +
                     (r->error != nullptr ? r->error : "?"),
                 report);
    ledger.check(op,
                 r->tenant_id == in.tenants[requests[op - first].tenant].id,
                 "response carries the wrong tenant", report);
    Outcome& o = outcomes[op];
    o.answered = true;
    o.accept = r->verdict.accept();
    if (ledger.flip(op) && !o.accept.empty()) o.accept[0] = !o.accept[0];
    o.latency_ms = static_cast<double>(t1 - scheduled[op - first]) / 1e6;
    o.service_ms = static_cast<double>(t1 - t0) / 1e6;
    return true;
  };

  const std::uint64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    scheduled[i] = start + static_cast<std::uint64_t>(
                               static_cast<double>(i) * 1e9 / kOfferedRps);
    // Serve while the next arrival is not due; wait only when idle (sleep
    // the bulk, spin the last stretch so arrivals stay on schedule).
    for (std::uint64_t now = now_ns(); now < scheduled[i]; now = now_ns()) {
      if (serve_one()) continue;
      const std::uint64_t left = scheduled[i] - now;
      if (left > 200'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    }
    const std::uint64_t t0 = now_ns();
    {
      obs::TraceSpan span("Server::submit", seq_base + first + i);
      server.submit(requests[i].frame, scheduled[i]);
    }
    const std::uint64_t t1 = now_ns();
    w.lag_ms.push_back(static_cast<double>(t0 - scheduled[i]) / 1e6);
    w.busy_s += static_cast<double>(t1 - t0) / 1e9;
    w.submit_s += static_cast<double>(t1 - t0) / 1e9;
  }
  while (serve_one()) {
  }
  w.atlas = server.atlas()->stats().since(atlas_before);
  w.metrics = in.metrics.snapshot().since(metrics_before);
  return w;
}

/// Replays every tenant's stream as the benchmark generated it and checks
/// each served verdict: the 1-round tenant against core::run_verifier, the
/// others against a verifier of their own (own atlas), fulls for
/// completeness, and one seeded request per spread tenant against the
/// reference engine.  Returns the replay verifiers' delta counters.
radius::DeltaStats replay(const Instance& in,
                          const std::vector<Request>& requests,
                          const std::vector<Outcome>& outcomes,
                          std::uint64_t seed, OutputLedger& ledger,
                          Report& report) {
  radius::DeltaStats counts;
  util::Rng pick(stream_seed(seed, 4));
  for (std::size_t k = 0; k < kTenants; ++k) {
    const Tenant& tenant = in.tenants[k];
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < requests.size(); ++i)
      if (requests[i].tenant == k) mine.push_back(i);
    const std::size_t baseline_at = mine.empty() ? 0 : pick.below(mine.size());
    core::Labeling labeling = tenant.honest;
    std::optional<radius::BatchVerifier> oracle;
    if (k != kFlat) {
      radius::BatchOptions options;
      options.threads = 1;
      oracle.emplace(*tenant.scheme, *tenant.cfg, tenant.t, options);
      oracle->run_one(labeling);
    }
    for (std::size_t j = 0; j < mine.size(); ++j) {
      const Request& r = requests[mine[j]];
      const Outcome& o = outcomes[mine[j]];
      if (r.full) {
        labeling = tenant.honest;
      } else {
        for (std::size_t c = 0; c < r.touched.size(); ++c)
          labeling.certs[r.touched[c]] = r.certs[c];
      }
      core::Verdict expect;
      if (k == kFlat) {
        expect = core::run_verifier(*tenant.scheme, *tenant.cfg, labeling);
      } else if (r.full) {
        expect = oracle->run_one(labeling);
      } else {
        expect = oracle->run_delta(labeling, radius::LabelingDelta{r.touched});
      }
      if (!o.answered) continue;  // counted by the ledger
      const std::uint64_t op = mine[j];
      if (r.full)
        ledger.check(op,
                     o.accept == std::vector<bool>(labeling.size(), true),
                     tenant.name + ": honest full request rejected", report);
      ledger.check(op, o.accept == expect.accept(),
                   tenant.name + ": served verdict differs from the replay",
                   report);
      if (k != kFlat && j == baseline_at)
        ledger.check(op,
                     radius::run_verifier_t_baseline(*tenant.scheme,
                                                     *tenant.cfg, labeling,
                                                     tenant.t)
                             .accept() == o.accept,
                     tenant.name + ": verdict differs from the reference",
                     report);
    }
    if (oracle) {
      const radius::DeltaStats& s = oracle->delta_stats();
      counts.delta_runs += s.delta_runs;
      counts.certs_reparsed += s.certs_reparsed;
      counts.centers_reswept += s.centers_reswept;
      counts.link_reseeds += s.link_reseeds;
    }
  }
  return counts;
}

/// wire.parse_full_us / wire.parse_delta_us: RequestView::parse of every
/// frame of the schedule, median per kind.
void probe_wire(std::span<const Request> requests, Report& report) {
  std::vector<double> full_us;
  std::vector<double> delta_us;
  for (const Request& r : requests) {
    const std::uint64_t t0 = now_ns();
    const std::optional<serve::RequestView> view =
        serve::RequestView::parse(*r.frame);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    report.check(view.has_value(), "probe frame failed to parse");
    if (view) (r.full ? full_us : delta_us).push_back(us);
  }
  report.layer("wire.parse_full_us", median(full_us), "us");
  report.layer("wire.parse_delta_us", median(delta_us), "us");
}

/// engine.verify_1round_ms: core::run_verifier of the 1-round tenant's
/// honest marking.
void probe_engine(const Tenant& tenant, Report& report) {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    const core::Verdict v =
        core::run_verifier(*tenant.scheme, *tenant.cfg, tenant.honest);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    report.check(v.all_accept(), "1-round honest marking rejected");
  }
  report.layer("engine.verify_1round_ms", median(ms), "ms");
}

}  // namespace

Report run_serve_open_loop(const Options& options) {
  Report report;
  SetupTimer setup;
  std::unique_ptr<Instance> in = setup.burst([&] { return build(report); });
  const auto per_window =
      static_cast<std::size_t>(kOfferedRps * options.seconds);
  const std::size_t windows = options.trace ? 2 : 1;
  util::Rng rng(stream_seed(options.seed, 3));
  std::array<core::Labeling, kTenants> current;
  for (std::size_t k = 0; k < kTenants; ++k) current[k] = in->tenants[k].honest;
  const std::vector<Request> requests =
      plan(*in, per_window * windows, 0, rng, current);

  OutputLedger ledger(options.inject);
  std::vector<Outcome> outcomes(requests.size());
  const std::uint64_t seq_base = kTenants;  // the warm-up requests
  std::vector<Window> w;
  for (std::size_t i = 0; i < windows; ++i) {
    if (i == 1) obs::TraceRecorder::enable(kTraceRing);
    const std::span<const Request> slice =
        std::span(requests).subspan(i * per_window, per_window);
    w.push_back(run_window(*in, slice, i * per_window, seq_base, outcomes,
                           ledger, report));
  }
  obs::TraceRecorder::disable();

  const radius::DeltaStats counts =
      replay(*in, requests, outcomes, options.seed, ledger, report);
  ledger.settle(requests.size(), report);

  // Window 0 only: the untraced figures.
  std::vector<double> full_ms;
  std::vector<double> delta_ms;
  std::vector<double> service_full_ms;
  std::vector<double> service_delta_ms;
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < per_window; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.answered) continue;
    (requests[i].full ? full_ms : delta_ms).push_back(o.latency_ms);
    (requests[i].full ? service_full_ms : service_delta_ms)
        .push_back(o.service_ms);
    wait_ms.push_back(o.latency_ms - o.service_ms);
  }
  const double capacity = static_cast<double>(w[0].served) / w[0].busy_s;
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  report.e2e("throughput_per_s", capacity, "1/s");
  report.e2e("latency_p50_ms", median(delta_ms), "ms");
  report.e2e("latency_tail_ms", quantile(delta_ms, 0.99), "ms");
  std::cerr << "serve_open_loop: offered " << kOfferedRps << " req/s, "
            << delta_ms.size() << " deltas (tail = p99), " << full_ms.size()
            << " fulls (p50 " << median(full_ms) << " ms, p90 "
            << quantile(full_ms, 0.9) << " ms); generator lag p99 "
            << quantile(w[0].lag_ms, 0.99) << " ms, max "
            << quantile(w[0].lag_ms, 1.0) << " ms\n";

  if (options.trace) {
    report.layer("serve.submit_us",
                 w[0].submit_s * 1e6 / static_cast<double>(per_window), "us");
    report.layer("serve.queue_wait_p50_ms", median(wait_ms), "ms");
    report.layer("serve.queue_wait_p99_ms", quantile(wait_ms, 0.99), "ms");
    report.layer("serve.service_full_ms", median(service_full_ms), "ms");
    report.layer("serve.service_delta_us", median(service_delta_ms) * 1e3,
                 "us");
    report.layer("serve.full_latency_p50_ms", median(full_ms), "ms");
    report.layer("serve.full_latency_p90_ms", quantile(full_ms, 0.9), "ms");
    report.layer("serve.delta_latency_p50_ms", median(delta_ms), "ms");
    report.layer("serve.delta_latency_p99_ms", quantile(delta_ms, 0.99), "ms");
    report.layer("loadgen.lag_p99_ms", quantile(w[0].lag_ms, 0.99), "ms");
    report.layer("loadgen.lag_max_ms", quantile(w[0].lag_ms, 1.0), "ms");
    report_atlas_window(w[0].atlas, report);
    // The server's registry mixes its tenants: stage figures of the fulls
    // of both ball tenants, delta figures of every tenant's deltas.
    report_full_stages(w[0].metrics, 0, "", report);
    report_delta_stages(w[0].metrics, report);
    report_delta_counts(counts, report);
    report_overhead(capacity, static_cast<double>(w[1].served) / w[1].busy_s,
                    report);

    in->server.reset();
    probe_wire(requests, report);
    probe_engine(in->tenants[kFlat], report);
    probe_atlas(in->cfg_grid->graph(), 8, options.seed, report);
  }
  // The second set-up burst, with the run's own instance gone.
  in.reset();
  setup.burst([&] { return build(report); });
  report.e2e("setup_s", setup.median_s(), "s");
  return report;
}

}  // namespace perfbench
