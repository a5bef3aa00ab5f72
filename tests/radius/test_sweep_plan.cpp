// Differential test of the sweep plan (SpreadScheme::plan_sweep): the full
// sweep routes each center to reject, the 1-hop base decoder, or its ball,
// and every route must give exactly the verdict verify_ball gives.  Anomaly
// density is swept from none to every node — malformed certificates,
// foreign chunk counts, rotated residues, forged chunk classes — on a random
// graph, a grid, a path, a triangulated grid (odd cycles: both endpoints of
// an edge can sit at distance exactly t from a center), a bipartite-scheme
// grid (no shared prefix: forged chunks break the prefix reassembly), and a
// disconnected graph whose components have different eccentricities (so
// several k values coexist), at t in {1, 2, 4, 8} and threads {1, 2,
// hardware}.  Verdicts are compared with run_verifier_t_baseline, which has
// no plan; the plan itself is checked to send only clean balls to the base
// decoder; and the route counters prove that each route fired.  Dropping
// any one routing rule from plan_sweep fails this test.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/spread.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/agree.hpp"
#include "schemes/bipartite.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"
#include "util/thread_pool.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

enum class Fault { kMalformed, kForeignK, kRotate, kForge };
constexpr Fault kFaults[] = {Fault::kMalformed, Fault::kForeignK,
                             Fault::kRotate, Fault::kForge};

/// One labeling's forging mode.  Forged chunks are a deterministic function
/// of the honest chunk and the mode, so every forged node of one residue
/// carries the same new class: a forged region is consistent, which is what
/// makes some balls see only the anomalous class of a residue.  Sparing one
/// residue while growing the others' chunks leaves chunk lengths that do
/// not interleave, so the majority prefix fails to reassemble.
struct Forging {
  bool grow = false;           ///< append a bit, else flip the first one
  std::uint64_t spared = 64;   ///< residue left honest (64: none)
};

/// Applies one fault to one certificate.
void apply(Fault fault, const Forging& forging, local::Certificate& cert,
           util::Rng& rng) {
  std::optional<detail::SpreadWire> wire = detail::parse_wire(cert);
  if (fault == Fault::kForge && wire && wire->residue == forging.spared)
    return;
  if (fault == Fault::kMalformed || !wire) {
    cert = rng.below(2) == 0 ? local::Certificate{}
                             : local::random_state(rng.below(12), rng);
    return;
  }
  switch (fault) {
    case Fault::kForeignK:
      wire->k = std::min<std::uint64_t>(63, wire->k + 1 + rng.below(3));
      break;
    case Fault::kRotate:
      if (wire->k > 1)
        wire->residue = (wire->residue + 1 + rng.below(wire->k - 1)) % wire->k;
      break;
    default: {  // kForge
      util::BitWriter w;
      const util::BitString& chunk = wire->chunk;
      if (forging.grow || chunk.bit_size() == 0) {
        w.write_bits(chunk.data(), chunk.bit_size());
        w.write_uint(1, 1);
      } else {
        w.write_uint(detail::bit_at(chunk, 0) ? 0 : 1, 1);
        w.write_bits(chunk.data(), 1, chunk.bit_size() - 1);
      }
      wire->chunk = util::BitString::from_writer(std::move(w));
      break;
    }
  }
  cert = detail::encode_wire(*wire);
}

/// Nodes within `radius` hops of `root`.
std::vector<graph::NodeIndex> region(const graph::Graph& g,
                                     graph::NodeIndex root, unsigned radius) {
  std::vector<std::uint32_t> dist(g.n(), UINT32_MAX);
  std::vector<graph::NodeIndex> out{root};
  dist[root] = 0;
  for (std::size_t head = 0; head < out.size(); ++head) {
    const graph::NodeIndex u = out[head];
    if (dist[u] == radius) continue;
    for (const graph::AdjEntry& a : g.adjacency(u))
      if (dist[a.to] == UINT32_MAX) {
        dist[a.to] = dist[u] + 1;
        out.push_back(a.to);
      }
  }
  return out;
}

/// Regions around `roots` random nodes whose residues all shift by two,
/// each node taking the honest chunk of its new residue (what copying
/// another node's certificate does): no chunk class is anomalous, so with
/// k >= 4 the only faults are the bad-residue edges lining the regions'
/// boundaries — clusters of them, with centers at exactly distance t
/// beyond, where only the exact edge test decides.
core::Labeling shifted_regions(const graph::Graph& g,
                               const core::Labeling& honest, int roots,
                               unsigned radius, util::Rng& rng) {
  const std::size_t n = g.n();
  std::vector<std::optional<detail::SpreadWire>> honest_wire(n);
  std::vector<const detail::SpreadWire*> of_residue(64, nullptr);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    honest_wire[v] = detail::parse_wire(honest.certs[v]);
    of_residue[honest_wire[v]->residue] = &*honest_wire[v];
  }
  core::Labeling lab = honest;
  for (int i = 0; i < roots; ++i) {
    const auto root = static_cast<graph::NodeIndex>(rng.below(n));
    for (const graph::NodeIndex v : region(g, root, radius)) {
      detail::SpreadWire wire = *honest_wire[v];
      wire.residue = (wire.residue + 2) % wire.k;
      const detail::SpreadWire* donor = of_residue[wire.residue];
      if (donor == nullptr || donor->k != wire.k) continue;
      wire.chunk = donor->chunk;
      lab.certs[v] = detail::encode_wire(wire);
    }
  }
  return lab;
}

/// The anomaly-density sweep over one honest labeling: for each fault mix
/// (each fault alone, then all mixed), random node subsets from none to
/// every node, then BFS regions around a random node; then one region whose
/// residues shift consistently.
std::vector<core::Labeling> density_sweep(const graph::Graph& g,
                                          const core::Labeling& honest,
                                          unsigned t, util::Rng& rng) {
  const std::size_t n = g.n();
  std::vector<core::Labeling> out{honest};
  for (std::size_t mix = 0; mix <= std::size(kFaults); ++mix) {
    const auto pick_fault = [&] {
      return mix < std::size(kFaults) ? kFaults[mix]
                                      : kFaults[rng.below(std::size(kFaults))];
    };
    const auto pick_forging = [&] {
      Forging f;
      f.grow = rng.below(2) == 0;
      if (rng.below(2) == 0) f.spared = rng.below(t / 2 + 1);
      return f;
    };
    for (const double density : {0.0, 0.02, 0.1, 0.3, 0.6, 1.0}) {
      core::Labeling lab = honest;
      const Forging forging = pick_forging();
      std::size_t hits = 0;
      for (graph::NodeIndex v = 0; v < n; ++v)
        if (static_cast<double>(rng.below(1000)) < density * 1000.0) {
          apply(pick_fault(), forging, lab.certs[v], rng);
          ++hits;
        }
      if (hits == 0 && density > 0.0)  // at least one anomaly
        apply(pick_fault(), forging, lab.certs[rng.below(n)], rng);
      out.push_back(std::move(lab));
    }
    for (const unsigned radius : {0u, 1u, t / 2, t + 1}) {
      core::Labeling lab = honest;
      const Forging forging = pick_forging();
      const auto root = static_cast<graph::NodeIndex>(rng.below(n));
      for (const graph::NodeIndex v : region(g, root, radius))
        apply(pick_fault(), forging, lab.certs[v], rng);
      out.push_back(std::move(lab));
    }
  }
  for (const unsigned radius : {0u, 1u, 3u})
    for (int trial = 0; trial < 3; ++trial)
      out.push_back(shifted_regions(g, honest, 1, radius, rng));
  return out;
}

/// Whether center c's ball passes every consistency check verify_ball makes
/// before it runs the base decoder: all members well-formed with the
/// center's k, adjacent residues cyclically consecutive, one chunk class
/// per residue, every residue present, and a prefix that reassembles.
/// The base route is sound only for such centers.
bool ball_is_clean(const local::Configuration& cfg,
                   const core::Labeling& lab, graph::NodeIndex c, unsigned t,
                   BallBuilder& builder) {
  const BallView& ball = builder.build(cfg, lab, c, t,
                                       local::Visibility::kCertificatesOnly);
  std::vector<detail::SpreadWire> wires;
  for (const BallMember& m : ball.members()) {
    std::optional<detail::SpreadWire> w = detail::parse_wire(*m.cert);
    if (!w) return false;
    wires.push_back(std::move(*w));
  }
  const std::uint64_t k = wires.front().k;
  std::vector<const util::BitString*> chunk_of(k, nullptr);
  for (std::uint32_t i = 0; i < wires.size(); ++i) {
    if (wires[i].k != k) return false;
    for (const std::uint32_t nb : ball.neighbors_of(i)) {
      const std::uint64_t diff = (wires[i].residue + k - wires[nb].residue) % k;
      if (diff != 0 && diff != 1 && diff != k - 1) return false;
    }
    const util::BitString*& chunk = chunk_of[wires[i].residue];
    if (chunk != nullptr && !(*chunk == wires[i].chunk)) return false;
    chunk = &wires[i].chunk;
  }
  for (const util::BitString* chunk : chunk_of)
    if (chunk == nullptr) return false;
  return detail::reassemble_chunks(chunk_of).has_value();
}

struct RouteTotals {
  std::uint64_t reject = 0, base = 0, ball = 0;
};

/// Runs the sweep through BatchVerifier at threads {1, 2, hardware},
/// checks every verdict against the baseline and the route counters
/// against n x labelings, and accumulates the routes taken.
void expect_matches_baseline(const SpreadScheme& spread,
                             const local::Configuration& cfg, unsigned t,
                             const std::vector<core::Labeling>& labs,
                             RouteTotals& totals, const std::string& what) {
  std::vector<std::vector<bool>> expected;
  for (const core::Labeling& lab : labs)
    expected.push_back(run_verifier_t_baseline(spread, cfg, lab, t).accept());
  // The plan itself: a malformed center is rejected outright, never sent to
  // its ball; a planned rejection is a real one; and the base route runs
  // only where the ball is clean, whatever the base decoder would say.
  BallBuilder builder;
  for (std::size_t i = 0; i < labs.size(); ++i) {
    std::vector<std::unique_ptr<ParsedCert>> storage;
    std::vector<const ParsedCert*> view;
    for (const local::Certificate& cert : labs[i].certs) {
      storage.push_back(spread.parse_cert(cert));
      view.push_back(storage.back().get());
    }
    spread.link_parses(storage);
    SweepPlan plan;
    ASSERT_TRUE(spread.plan_sweep(cfg, view, plan));
    ASSERT_EQ(plan.route.size(), cfg.n());
    for (graph::NodeIndex c = 0; c < cfg.n(); ++c) {
      if (view[c] == nullptr) {
        EXPECT_EQ(plan.route[c], SweepRoute::kReject)
            << what << " labeling " << i << " malformed center " << c;
      }
      if (plan.route[c] == SweepRoute::kReject) {
        EXPECT_FALSE(expected[i][c])
            << what << " labeling " << i << " planned rejection " << c;
      }
      if (plan.route[c] == SweepRoute::kBase) {
        EXPECT_TRUE(ball_is_clean(cfg, labs[i], c, t, builder))
            << what << " labeling " << i << " base route at " << c;
      }
    }
  }
  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    obs::MetricsRegistry registry;
    BatchOptions options;
    options.threads = threads;
    options.metrics = &registry;
    BatchVerifier verifier(spread, cfg, t, options);
    const std::vector<core::Verdict> got = verifier.run(labs);
    ASSERT_EQ(got.size(), labs.size());
    for (std::size_t i = 0; i < labs.size(); ++i)
      ASSERT_EQ(got[i].accept(), expected[i])
          << what << " labeling " << i << " threads " << threads;
    const obs::MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t reject = snap.counters.at("verify.route_reject");
    const std::uint64_t base = snap.counters.at("verify.route_base");
    const std::uint64_t ball = snap.counters.at("verify.route_ball");
    EXPECT_EQ(reject + base + ball, cfg.n() * labs.size()) << what;
    if (threads == 1) {
      totals.reject += reject;
      totals.base += base;
      totals.ball += ball;
    }
  }
}

/// A grid with one diagonal per cell: bounded growth like the grid, but
/// with triangles, so both endpoints of an edge can sit at the same
/// distance from a center (never so in a bipartite graph).
graph::Graph triangulated_grid(std::size_t rows, std::size_t cols) {
  graph::Graph::Builder b;
  for (std::size_t v = 0; v < rows * cols; ++v)
    b.add_node(static_cast<graph::RawId>(v + 1));
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<graph::NodeIndex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c));
      if (r + 1 < rows && c + 1 < cols) b.add_edge(at(r, c), at(r + 1, c + 1));
    }
  return std::move(b).build();
}

/// Components of eccentricity 0, 1, 2 and >= 4: at t = 8 their chunk
/// counts are 1, 2, 3 and 5, so most k values coexist with the majority K.
graph::Graph disjoint_paths(std::span<const std::size_t> sizes) {
  graph::Graph::Builder b;
  std::size_t next = 0;
  for (const std::size_t size : sizes) {
    for (std::size_t i = 0; i < size; ++i)
      b.add_node(static_cast<graph::RawId>(100 + next + i));
    for (std::size_t i = 1; i < size; ++i)
      b.add_edge(static_cast<graph::NodeIndex>(next + i - 1),
                 static_cast<graph::NodeIndex>(next + i));
    next += size;
  }
  return std::move(b).build();
}

TEST(SweepPlan, DensitySweepMatchesBaselineOnEveryRoute) {
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  // The agree value is the whole certificate, so it is all prefix.
  const schemes::AgreeLanguage agree_language(48);
  const schemes::AgreeScheme agree(agree_language);
  // One-bit sides share no prefix: all chunks are empty, and a forged
  // chunk class changes the chunk lengths the prefix reassembles from.
  const schemes::BipartiteLanguage bipartite_language;
  const schemes::BipartiteScheme bipartite(bipartite_language);
  util::Rng rng(0x5EE9'91A4ull);

  struct Instance {
    std::string name;
    const core::Scheme* base;
    local::Configuration cfg;
  };
  std::vector<Instance> instances;
  const auto add_stp = [&](std::string name, graph::Graph g) {
    auto shared = share(std::move(g));
    instances.push_back(
        {std::move(name), &stp, stp_language.sample_legal(shared, rng)});
  };
  add_stp("random", graph::random_connected(44, 22, rng));
  add_stp("grid", graph::relabel_random(graph::grid(6, 7), rng));
  add_stp("path", graph::path(36));
  add_stp("triangulated", triangulated_grid(14, 14));
  {
    auto g = share(graph::grid(5, 8));
    instances.push_back({"bipartite-grid", &bipartite,
                         bipartite_language.sample_legal(g, rng)});
  }
  {
    const std::size_t sizes[] = {1, 2, 5, 24};
    auto g = share(disjoint_paths(sizes));
    ASSERT_FALSE(g->is_connected());
    instances.push_back(
        {"disconnected", &agree,
         local::Configuration(
             g, std::vector<local::State>(
                    g->n(), agree_language.encode_value(0xC0FF'EE12'3456ull)))});
  }

  RouteTotals totals;
  for (const unsigned t : {1u, 2u, 4u, 8u})
    for (const Instance& in : instances) {
      const SpreadScheme spread(*in.base, t);
      const core::Labeling honest = spread.mark(in.cfg);
      expect_matches_baseline(
          spread, in.cfg, t,
          density_sweep(in.cfg.graph(), honest, t, rng), totals,
          in.name + " t=" + std::to_string(t));
    }
  EXPECT_GT(totals.reject, 0u);
  EXPECT_GT(totals.base, 0u);
  EXPECT_GT(totals.ball, 0u);
}

// Many shifted regions on a triangulated grid large for its radius: more
// bad edges than one 64-bit round of the exact edge test holds, and centers
// at exactly t from a boundary edge throughout the graph.
TEST(SweepPlan, ExactEdgeTestOverManyBadEdges) {
  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  util::Rng rng(0x5EE9'91A7ull);
  auto g = share(triangulated_grid(36, 36));
  const local::Configuration cfg = language.sample_legal(g, rng);
  constexpr unsigned kT = 8;  // k = 5: a shift by two breaks adjacency
  const SpreadScheme spread(stp, kT);
  const core::Labeling honest = spread.mark(cfg);
  std::vector<core::Labeling> labs;
  for (const int roots : {1, 3})
    for (const unsigned radius : {6u, 10u})
      labs.push_back(shifted_regions(cfg.graph(), honest, roots, radius, rng));
  RouteTotals totals;
  expect_matches_baseline(spread, cfg, kT, labs, totals, "many bad edges");
  EXPECT_GT(totals.reject, 0u);
  EXPECT_GT(totals.base, 0u);
}

// An honest labeling is decided without a single ball: every center takes
// the base route, and no geometry is built.
TEST(SweepPlan, HonestLabelingRunsOnlyTheBaseDecoder) {
  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  const SpreadScheme spread(stp, 4);
  util::Rng rng(0x5EE9'91A5ull);
  auto g = share(graph::random_connected(60, 30, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  obs::MetricsRegistry registry;
  BatchOptions options;
  options.threads = 2;
  options.metrics = &registry;
  BatchVerifier verifier(spread, cfg, 4, options);
  EXPECT_TRUE(verifier.run_one(spread.mark(cfg)).all_accept());
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("verify.route_base"), cfg.n());
  EXPECT_EQ(snap.counters.at("verify.route_reject"), 0u);
  EXPECT_EQ(snap.counters.at("verify.route_ball"), 0u);
  EXPECT_EQ(snap.histograms.at("verify.plan_ns").count, 1u);
  EXPECT_EQ(verifier.atlas().stats().misses, 0u);
}

// Schemes without a plan count every center under their own decoder: the
// ball for a ball scheme, the 1-round routine for a plain one.
TEST(SweepPlan, UnplannedSchemesCountEveryCenterOnce) {
  util::Rng rng(0x5EE9'91A6ull);
  auto g = share(graph::reweight_random(graph::grid(4, 5), rng));
  const schemes::MstLanguage language;
  const schemes::MstScheme mst(language);
  const local::Configuration cfg = language.sample_legal(g, rng);
  const FragmentSpreadScheme fragment(mst, 2);
  struct Case {
    const core::Scheme* scheme;
    const char* counter;
  };
  for (const Case c : {Case{&mst, "verify.route_base"},
                       Case{&fragment, "verify.route_ball"}}) {
    obs::MetricsRegistry registry;
    BatchOptions options;
    options.threads = 2;
    options.metrics = &registry;
    BatchVerifier verifier(*c.scheme, cfg, 2, options);
    const core::Labeling honest = c.scheme->mark(cfg);
    const std::vector<core::Labeling> labs = {honest, honest, honest};
    verifier.run(labs);
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at(c.counter), cfg.n() * labs.size())
        << c.scheme->name();
    EXPECT_EQ(snap.counters.at("verify.route_reject") +
                  snap.counters.at("verify.route_base") +
                  snap.counters.at("verify.route_ball"),
              cfg.n() * labs.size());
  }
}

}  // namespace
}  // namespace pls::radius
