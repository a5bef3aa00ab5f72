#include "radius/spread.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "graph/algorithms.hpp"
#include "radius/parse_link.hpp"
#include "radius/splice.hpp"
#include "radius/spread_wire.hpp"
#include "util/assert.hpp"

namespace pls::radius {

namespace {

using detail::kChunkCountField;
using detail::SpreadWire;

/// The verifier's cached parse of one spread certificate.
struct SpreadParsed final : ParsedCert {
  static constexpr std::uint32_t kUnlinked =
      std::numeric_limits<std::uint32_t>::max();

  explicit SpreadParsed(SpreadWire w) : wire(std::move(w)) {}
  SpreadWire wire;
  /// Dense chunk-payload class assigned by link_parses: equal ids iff the
  /// chunks are bit-identical.  kUnlinked outside a verifier's cache.
  std::uint32_t chunk_class = kUnlinked;
};

/// Per-thread scratch for verify_ball: the engine calls it once per center,
/// so reusing these buffers across the O(n) adjacent centers of a sweep
/// removes every per-ball allocation from the hot path.  Thread-local keeps
/// the parallel sweep race-free without sharing state between slots.
struct VerifyScratch {
  std::vector<const SpreadWire*> parsed;
  std::vector<std::uint32_t> chunk_class;  ///< per member; kUnlinked = none
  std::vector<SpreadWire> local_parses;
  std::vector<std::uint32_t> rep_of;  ///< per residue: first member index
  std::vector<const util::BitString*> chunk_of;
  std::vector<local::Certificate> neighbor_certs;
  std::vector<local::NeighborView> views;
};

constexpr std::uint32_t kNoMember = std::numeric_limits<std::uint32_t>::max();

/// Hop count of a node beyond a bounded BFS's radius (radius() <= 63).
constexpr std::uint8_t kFar = std::numeric_limits<std::uint8_t>::max();

/// Level-synchronous BFS bounded at `t` hops.  `frontier` holds the sources,
/// already marked; `mark(v, d)` marks v at hop count d and returns true iff
/// v was unmarked.  The marks are the visited set, so a field costs what it
/// visits, not O(n).
template <typename Mark>
void flood(const graph::Graph& g, unsigned t,
           std::vector<graph::NodeIndex>& frontier,
           std::vector<graph::NodeIndex>& next, Mark mark) {
  for (unsigned d = 1; d <= t && !frontier.empty(); ++d) {
    next.clear();
    for (const graph::NodeIndex u : frontier)
      for (const graph::AdjEntry& a : g.adjacency(u))
        if (mark(a.to, d)) next.push_back(a.to);
    frontier.swap(next);
  }
}

/// The fields of all residues at once: bit j of near[v] ends up set iff v
/// lies within `t` of a node whose seeded bits (in near, on entry) hold j.
/// `frontier` holds the seeded nodes, `gain` their seeded bits; each round
/// expands only the bits a node gained in the previous one, so this is one
/// BFS per bit sharing its passes.  The inner loop appends without a branch
/// (whether a neighbor gains bits is data-dependent and mispredicts), so
/// both frontiers are sized n + 1 up front.  Leaves `gain` and `gain_next`
/// zero.
void flood_bits(const graph::Graph& g, unsigned t,
                std::vector<std::uint64_t>& near,
                std::vector<std::uint64_t>& gain,
                std::vector<std::uint64_t>& gain_next,
                std::vector<graph::NodeIndex>& frontier,
                std::vector<graph::NodeIndex>& next) {
  std::size_t count = frontier.size();
  frontier.resize(g.n() + 1);
  next.resize(g.n() + 1);
  for (unsigned d = 1; d <= t && count > 0; ++d) {
    std::size_t next_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const graph::NodeIndex v = frontier[i];
      const std::uint64_t bits = gain[v];
      gain[v] = 0;
      for (const graph::AdjEntry& a : g.adjacency(v)) {
        const std::uint64_t add = bits & ~near[a.to];
        const std::uint64_t pending = gain_next[a.to];
        next[next_count] = a.to;
        next_count += static_cast<std::size_t>((pending == 0) & (add != 0));
        near[a.to] |= add;
        gain_next[a.to] = pending | add;
      }
    }
    gain.swap(gain_next);
    frontier.swap(next);
    count = next_count;
  }
  for (std::size_t i = 0; i < count; ++i) gain[frontier[i]] = 0;
}

/// Per-thread scratch of plan_sweep (stage 2 runs it on the verifier's
/// calling thread), reused across labelings like VerifyScratch.
struct PlanScratch {
  std::vector<std::uint8_t> native;      ///< well-formed with k == K
  std::vector<std::uint8_t> near;        ///< kNearBad, kNearGood, ... bits
  std::vector<std::uint64_t> near_maj;   ///< bit j: D_maj_j <= t
  std::vector<std::uint64_t> near_anom;  ///< bit j: D_anom_j <= t
  std::vector<std::uint64_t> gain, gain_next;  ///< flood_bits scratch
  std::vector<std::uint8_t> edge_dist;   ///< D_edge, exact up to t
  std::vector<std::uint32_t> by_residue; ///< native nodes, bucketed by residue
  std::vector<std::uint32_t> bucket_end;
  std::vector<std::uint32_t> class_count;
  std::vector<std::uint32_t> majority;   ///< per residue: M_j
  std::vector<graph::NodeIndex> frontier, next;
  std::vector<std::pair<graph::NodeIndex, graph::NodeIndex>> bad_edges;
  std::vector<graph::NodeIndex> pending;  ///< centers at D_edge == t
  std::vector<std::uint64_t> near_u, near_v;  ///< exact edge test fields
  std::vector<const util::BitString*> chunk_of;
};

constexpr std::uint8_t kNearBad = 1;   ///< D_bad <= t
constexpr std::uint8_t kNearGood = 2;  ///< D_good <= t
constexpr std::uint8_t kNeeded = 4;    ///< a base-route center or neighbor

}  // namespace

SpreadScheme::SpreadScheme(const core::Scheme& base, unsigned t)
    : base_(base), t_(t) {
  PLS_REQUIRE(t >= 1 && t <= 63);
  name_ = "spread(t=" + std::to_string(t) + ")/" + std::string(base.name());
}

std::unique_ptr<ParsedCert> SpreadScheme::parse_cert(
    const local::Certificate& cert) const {
  auto wire = detail::parse_wire(cert);
  if (!wire) return nullptr;
  return std::make_unique<SpreadParsed>(std::move(*wire));
}

void SpreadScheme::link_parses(
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes<SpreadParsed>(parsed);
}

std::unique_ptr<LinkState> SpreadScheme::make_link_state() const {
  return std::make_unique<detail::ChunkInternState>();
}

void SpreadScheme::link_parses_stateful(
    LinkState& state,
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes_stateful<SpreadParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed);
}

void SpreadScheme::relink_parses(
    LinkState& state, std::span<const std::unique_ptr<ParsedCert>> parsed,
    std::span<const graph::NodeIndex> touched) const {
  detail::relink_chunk_classes<SpreadParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed, touched);
}

// The plan answers each of verify_ball's ball-wide checks for all centers at
// once.  K is the most common chunk count, M_j the most common chunk class of
// residue j among K-nodes ("native" nodes); the choice affects speed only.
// Every field below is a multi-source BFS bounded at t:
//   D_bad    to a malformed node or a node with k != K;
//   D_good   to a native node;
//   D_maj_j  to a native node of residue j and class M_j;
//   D_anom_j to a native node of residue j and another class;
//   D_edge   to an endpoint of a bad-residue edge between native nodes.
// A native center whose ball holds only native nodes, one class per residue,
// every residue, and no bad edge reassembles the same prefix from the M_j
// chunks as every such center: it runs the base decoder on the 1-hop
// neighborhood directly.  Each reject rule below is one of verify_ball's
// rejections, so a route never changes a verdict.
bool SpreadScheme::plan_sweep(const local::Configuration& cfg,
                              std::span<const ParsedCert* const> parsed,
                              SweepPlan& out) const {
  const graph::Graph& g = cfg.graph();
  const std::size_t n = g.n();
  PLS_REQUIRE(parsed.size() == n);
  const unsigned t = t_;
  out.route.assign(n, SweepRoute::kReject);  // malformed centers stay here
  out.base = nullptr;
  const auto wire_of = [&parsed](graph::NodeIndex v) -> const SpreadParsed* {
    return static_cast<const SpreadParsed*>(parsed[v]);
  };

  // K: the most common chunk count (ties: the smaller k).
  std::array<std::size_t, std::size_t{1} << kChunkCountField> k_count{};
  for (graph::NodeIndex v = 0; v < n; ++v)
    if (const SpreadParsed* p = wire_of(v)) ++k_count[p->wire.k];
  const auto k_max = std::max_element(k_count.begin(), k_count.end());
  if (*k_max == 0) return true;  // nothing well-formed: every center rejects
  const auto K = static_cast<std::uint64_t>(k_max - k_count.begin());

  static thread_local PlanScratch scratch;
  PlanScratch& s = scratch;
  // Native nodes bucketed by residue (counting sort), and each residue's
  // majority chunk class M_j (ties: the smaller class id).
  s.native.assign(n, 0);
  s.bucket_end.assign(K + 1, 0);
  std::uint32_t max_class = 0;
  bool has_bad = false;
  for (graph::NodeIndex v = 0; v < n; ++v) {
    const SpreadParsed* p = wire_of(v);
    if (p == nullptr || p->wire.k != K) {
      has_bad = true;
      continue;
    }
    PLS_ASSERT(p->chunk_class != SpreadParsed::kUnlinked);
    s.native[v] = 1;
    ++s.bucket_end[p->wire.residue + 1];
    max_class = std::max(max_class, p->chunk_class);
  }
  for (std::size_t j = 0; j < K; ++j) s.bucket_end[j + 1] += s.bucket_end[j];
  s.by_residue.resize(s.bucket_end[K]);
  for (graph::NodeIndex v = 0; v < n; ++v)
    if (s.native[v] != 0)
      s.by_residue[s.bucket_end[wire_of(v)->wire.residue]++] = v;
  // bucket_end[j] now holds the end of bucket j; bucket j begins at
  // bucket_end[j-1] (0 for j = 0).
  const auto bucket = [&](std::size_t j) {
    const std::uint32_t begin = j == 0 ? 0 : s.bucket_end[j - 1];
    return std::span<const std::uint32_t>(s.by_residue)
        .subspan(begin, s.bucket_end[j] - begin);
  };
  s.class_count.assign(std::size_t{max_class} + 1, 0);
  s.majority.assign(K, SpreadParsed::kUnlinked);
  for (std::size_t j = 0; j < K; ++j) {
    std::uint32_t best_count = 0;
    for (const std::uint32_t v : bucket(j)) {
      const std::uint32_t c = wire_of(v)->chunk_class;
      const std::uint32_t count = ++s.class_count[c];
      if (count > best_count || (count == best_count && c < s.majority[j])) {
        best_count = count;
        s.majority[j] = c;
      }
    }
    for (const std::uint32_t v : bucket(j))
      s.class_count[wire_of(v)->chunk_class] = 0;
  }

  // Seeds `frontier` with the sources `mark` accepts at hop count 0.
  const auto seed = [&s](graph::NodeIndex v, auto& mark) {
    if (mark(v, 0)) s.frontier.push_back(v);
  };

  // D_bad and D_good, as bits of `near`.  D_good only matters at centers
  // with k != K: a shortest path from one to its nearest native node runs
  // through non-native nodes, so that BFS starts at the native nodes
  // bordering the non-native region and never steps into the native one.
  s.near.assign(n, 0);
  if (has_bad) {
    const auto mark_bad = [&s](graph::NodeIndex v, unsigned) {
      if ((s.near[v] & kNearBad) != 0) return false;
      s.near[v] |= kNearBad;
      return true;
    };
    s.frontier.clear();
    for (graph::NodeIndex v = 0; v < n; ++v)
      if (s.native[v] == 0) seed(v, mark_bad);
    flood(g, t, s.frontier, s.next, mark_bad);
    const auto mark_good = [&s](graph::NodeIndex v, unsigned d) {
      if ((s.near[v] & kNearGood) != 0 || (d > 0 && s.native[v] != 0))
        return false;
      s.near[v] |= kNearGood;
      return true;
    };
    s.frontier.clear();
    for (graph::NodeIndex v = 0; v < n; ++v)
      if (s.native[v] != 0)
        for (const graph::AdjEntry& a : g.adjacency(v))
          if (s.native[a.to] == 0) {
            seed(v, mark_good);
            break;
          }
    flood(g, t, s.frontier, s.next, mark_good);
  }

  // D_maj_j and D_anom_j, one bit per residue.
  s.gain.assign(n, 0);
  s.gain_next.assign(n, 0);
  for (std::vector<std::uint64_t>* near : {&s.near_maj, &s.near_anom}) {
    const bool maj = near == &s.near_maj;
    near->assign(n, 0);
    s.frontier.clear();
    for (std::size_t j = 0; j < K; ++j)
      for (const std::uint32_t v : bucket(j))
        if ((wire_of(v)->chunk_class == s.majority[j]) == maj) {
          (*near)[v] = s.gain[v] = std::uint64_t{1} << j;
          s.frontier.push_back(v);
        }
    flood_bits(g, t, *near, s.gain, s.gain_next, s.frontier, s.next);
  }

  // Bad-residue edges between native nodes (residues of adjacent nodes must
  // be cyclically consecutive), and D_edge from their endpoints.  An edge
  // lies in a center's ball iff both endpoints lie within t, so a center
  // within t-1 of an endpoint sees the edge; one at exactly t needs the
  // exact test below.
  const auto bad_edge = [&](graph::NodeIndex u, graph::NodeIndex v) {
    if (s.native[u] == 0 || s.native[v] == 0) return false;
    const std::uint64_t diff =
        (wire_of(u)->wire.residue + K - wire_of(v)->wire.residue) % K;
    return diff != 0 && diff != 1 && diff != K - 1;
  };
  s.edge_dist.assign(n, kFar);
  const auto mark_edge = [&s](graph::NodeIndex v, unsigned d) {
    if (s.edge_dist[v] != kFar) return false;
    s.edge_dist[v] = static_cast<std::uint8_t>(d);
    return true;
  };
  s.frontier.clear();
  s.bad_edges.clear();
  for (const graph::Edge& e : g.edges())
    if (bad_edge(e.u, e.v)) {
      s.bad_edges.emplace_back(e.u, e.v);
      seed(e.u, mark_edge);
      seed(e.v, mark_edge);
    }
  flood(g, t, s.frontier, s.next, mark_edge);

  // Route every well-formed center.
  const std::uint64_t all_residues = (std::uint64_t{1} << K) - 1;
  s.pending.clear();
  for (graph::NodeIndex c = 0; c < n; ++c) {
    if (wire_of(c) == nullptr) continue;  // malformed center: reject
    SweepRoute& route = out.route[c];
    if (s.native[c] == 0) {
      // k != K: a native node in the ball is a k mismatch.
      route = (s.near[c] & kNearGood) != 0 ? SweepRoute::kReject
                                           : SweepRoute::kBall;
      continue;
    }
    const std::uint64_t maj = s.near_maj[c];
    const std::uint64_t anom = s.near_anom[c];
    if ((s.near[c] & kNearBad) != 0 ||           // malformed / k mismatch
        (maj & anom) != 0 ||                     // two classes in a residue
        (maj | anom) != all_residues) continue;  // a residue not covered
    if (s.edge_dist[c] < t) continue;  // a bad edge in the ball
    // Only anomalous classes of a residue in the ball: verify_ball decides
    // whether they agree.
    route = (anom & ~maj) != 0 ? SweepRoute::kBall : SweepRoute::kBase;
    if (s.edge_dist[c] == t) s.pending.push_back(c);
  }

  // Exact bad-edge test for centers at distance exactly t from an endpoint:
  // a center sees edge (u, v) iff it lies in B(u,t) and B(v,t).  Up to 64
  // edges at a time, edge i seeds bit i at u in one field and at v in
  // another, so a pending center sees one of them iff the two fields share
  // a bit there.
  const std::size_t bad = s.pending.empty() ? 0 : s.bad_edges.size();
  for (std::size_t first = 0; first < bad; first += 64) {
    const std::size_t count = std::min<std::size_t>(64, bad - first);
    for (std::vector<std::uint64_t>* near : {&s.near_u, &s.near_v}) {
      near->assign(n, 0);
      s.frontier.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const auto [u, v] = s.bad_edges[first + i];
        const graph::NodeIndex end = near == &s.near_u ? u : v;
        if (s.gain[end] == 0) s.frontier.push_back(end);
        (*near)[end] = s.gain[end] |= std::uint64_t{1} << i;
      }
      flood_bits(g, t, *near, s.gain, s.gain_next, s.frontier, s.next);
    }
    for (const graph::NodeIndex c : s.pending)
      if ((s.near_u[c] & s.near_v[c]) != 0)
        out.route[c] = SweepRoute::kReject;
  }

  // The base route's certificates: the majority prefix, reassembled once,
  // before the suffix of every base-route center and its neighbors.  A
  // prefix that does not reassemble rejects at every base-route center,
  // exactly as in verify_ball.
  bool any_base = false;
  for (graph::NodeIndex c = 0; c < n; ++c) {
    if (out.route[c] != SweepRoute::kBase) continue;
    any_base = true;
    s.near[c] |= kNeeded;
    for (const graph::AdjEntry& a : g.adjacency(c)) s.near[a.to] |= kNeeded;
  }
  if (!any_base) return true;
  s.chunk_of.assign(K, nullptr);
  for (std::size_t j = 0; j < K; ++j)
    for (const std::uint32_t v : bucket(j))
      if (wire_of(v)->chunk_class == s.majority[j]) {
        s.chunk_of[j] = &wire_of(v)->wire.chunk;
        break;
      }
  const auto prefix = detail::reassemble_chunks(s.chunk_of);
  if (!prefix) {
    std::replace(out.route.begin(), out.route.end(), SweepRoute::kBase,
                 SweepRoute::kReject);
    return true;
  }
  // Each certificate starts on a byte of one shared buffer.
  util::BitWriter w;
  for (graph::NodeIndex v = 0; v < n; ++v) {
    if ((s.near[v] & kNeeded) == 0) continue;
    const util::BitString& suffix = wire_of(v)->wire.suffix;
    w.write_bits(prefix->data(), prefix->bit_size());
    w.write_bits(suffix.data(), suffix.bit_size());
    w.write_uint(0, static_cast<unsigned>(-w.bit_size() % 8));
  }
  out.base_bytes = w.take_bytes();
  out.base = &base_;
  out.base_certs.certs.assign(n, local::Certificate{});
  std::size_t at = 0;
  for (graph::NodeIndex v = 0; v < n; ++v) {
    if ((s.near[v] & kNeeded) == 0) continue;
    const std::size_t bits =
        prefix->bit_size() + wire_of(v)->wire.suffix.bit_size();
    out.base_certs.certs[v] =
        util::BitString::aliasing(out.base_bytes.data() + at, bits);
    at += (bits + 7) / 8;
  }
  return true;
}

std::vector<SchemeAttack> SpreadScheme::adversarial_labelings(
    const local::Configuration& cfg, util::Rng& rng) const {
  std::vector<SchemeAttack> attacks = splice_attacks(*this, cfg, rng);
  for (SchemeAttack& attack : attacks) attack.name = "splice:" + attack.name;
  return attacks;
}

core::Labeling SpreadScheme::mark(const local::Configuration& cfg) const {
  const core::Labeling base_lab = base_.mark(cfg);
  const graph::Graph& g = cfg.graph();
  const std::size_t n = g.n();
  PLS_ASSERT(base_lab.size() == n);
  if (n == 0) return {};

  // Longest common prefix X of all base certificates.
  std::size_t prefix_len = base_lab.certs.front().bit_size();
  for (const local::Certificate& c : base_lab.certs)
    prefix_len = std::min(prefix_len,
                          detail::lcp_bits(base_lab.certs.front(), c));

  // Per-component landmark (minimum-id node) and BFS distances from it.
  const graph::Components comps = graph::connected_components(g);
  std::vector<graph::NodeIndex> root(comps.count, graph::kInvalidNode);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    graph::NodeIndex& r = root[comps.comp[v]];
    if (r == graph::kInvalidNode || g.id(v) < g.id(r)) r = v;
  }
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<std::uint32_t> ecc(comps.count, 0);
  for (std::size_t c = 0; c < comps.count; ++c) {
    const graph::BfsResult bfs = graph::bfs(g, root[c]);
    for (graph::NodeIndex v = 0; v < n; ++v) {
      if (comps.comp[v] != c) continue;
      PLS_ASSERT(bfs.dist[v] != graph::BfsResult::kUnreachable);
      dist[v] = bfs.dist[v];
      ecc[c] = std::max(ecc[c], bfs.dist[v]);
    }
  }

  // Chunk count per component, capped so every residue class is inhabited,
  // and the k interleaved chunks of X.
  const util::BitString prefix =
      detail::slice_bits(base_lab.certs.front(), 0, prefix_len);
  std::vector<std::size_t> k_of(comps.count);
  // Chunks depend only on k, not on the component; memoize per distinct k.
  std::unordered_map<std::size_t, std::vector<util::BitString>> chunks_by_k;
  for (std::size_t c = 0; c < comps.count; ++c) {
    const std::size_t k =
        std::min<std::size_t>(t_ / 2 + 1, std::size_t{ecc[c]} + 1);
    k_of[c] = k;
    if (chunks_by_k.count(k) != 0) continue;
    chunks_by_k.emplace(k, detail::shard_chunks(prefix, k));
  }

  core::Labeling lab;
  lab.certs.reserve(n);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    const std::size_t c = comps.comp[v];
    const std::size_t k = k_of[c];
    const std::size_t j = dist[v] % k;
    SpreadWire wire;
    wire.k = k;
    wire.residue = j;
    wire.suffix = detail::slice_bits(
        base_lab.certs[v], prefix_len,
        base_lab.certs[v].bit_size() - prefix_len);
    wire.chunk = chunks_by_k.at(k)[j];
    lab.certs.push_back(detail::encode_wire(wire));
  }
  return lab;
}

bool SpreadScheme::verify_ball(const RadiusContext& ctx) const {
  const BallView& ball = ctx.ball();
  const std::span<const BallMember> members = ball.members();

  static thread_local VerifyScratch scratch;

  // Certificates of the ball, parsed at most once per node: through the
  // verifier's shared cache when present, locally otherwise.  The cache path
  // also carries the interned chunk-class ids assigned by link_parses.
  std::vector<const SpreadWire*>& parsed = scratch.parsed;
  std::vector<std::uint32_t>& chunk_class = scratch.chunk_class;
  parsed.assign(members.size(), nullptr);
  chunk_class.assign(members.size(), SpreadParsed::kUnlinked);
  if (ctx.has_parse_cache()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto* p = static_cast<const SpreadParsed*>(ctx.parsed(members[i].node));
      if (p == nullptr) return false;  // malformed certificate in the ball
      parsed[i] = &p->wire;
      chunk_class[i] = p->chunk_class;
    }
  } else {
    std::vector<SpreadWire>& local_parses = scratch.local_parses;
    local_parses.clear();
    local_parses.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto p = detail::parse_wire(*members[i].cert);
      if (!p) return false;
      local_parses.push_back(std::move(*p));
    }
    for (std::size_t i = 0; i < members.size(); ++i)
      parsed[i] = &local_parses[i];
  }

  // Agree on the chunk count.
  const std::uint64_t k = parsed.front()->k;
  for (const SpreadWire* p : parsed)
    if (p->k != k) return false;

  // Adjacent residues must be cyclically consecutive (distances from the
  // landmark differ by at most 1 across an edge).
  for (std::uint32_t i = 0; i < members.size(); ++i)
    for (const std::uint32_t nb : ball.neighbors_of(i)) {
      if (nb <= i) continue;
      const std::uint64_t diff =
          (parsed[i]->residue + k - parsed[nb]->residue) % k;
      if (diff != 0 && diff != 1 && diff != k - 1) return false;
    }

  // Chunk-class agreement and coverage.  Same-residue chunks must be
  // bit-identical; with a linked cache that is one id comparison per member.
  std::vector<std::uint32_t>& rep_of = scratch.rep_of;
  rep_of.assign(k, kNoMember);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint32_t& rep = rep_of[parsed[i]->residue];
    if (rep == kNoMember) {
      rep = static_cast<std::uint32_t>(i);
      continue;
    }
    // Within one call either every member is linked (cache path) or none is.
    const bool equal = chunk_class[i] != SpreadParsed::kUnlinked
                           ? chunk_class[i] == chunk_class[rep]
                           : parsed[i]->chunk == parsed[rep]->chunk;
    if (!equal) return false;
  }
  for (const std::uint32_t rep : rep_of)
    if (rep == kNoMember) return false;

  // Reassemble the shared prefix X (interleave-length check included).
  std::vector<const util::BitString*>& chunk_of = scratch.chunk_of;
  chunk_of.assign(k, nullptr);
  for (std::size_t j = 0; j < k; ++j) chunk_of[j] = &parsed[rep_of[j]]->chunk;
  const auto prefix = detail::reassemble_chunks(chunk_of);
  if (!prefix) return false;

  // Reconstruct the base certificates of the 1-hop neighborhood and run the
  // base decoder on them.
  const local::Certificate own =
      detail::concat_bits(*prefix, parsed.front()->suffix);
  const std::span<const BallMember> layer1 = ball.layer(1);
  std::vector<local::Certificate>& neighbor_certs = scratch.neighbor_certs;
  neighbor_certs.clear();
  neighbor_certs.reserve(layer1.size());
  // Members are in BFS order: layer 1 starts at member index 1.
  for (std::size_t i = 0; i < layer1.size(); ++i)
    neighbor_certs.push_back(
        detail::concat_bits(*prefix, parsed[1 + i]->suffix));

  std::vector<local::NeighborView>& views = scratch.views;
  views.clear();
  views.reserve(layer1.size());
  for (std::size_t i = 0; i < layer1.size(); ++i) {
    local::NeighborView nv;
    nv.cert = &neighbor_certs[i];
    nv.edge_weight = layer1[i].edge_weight;
    if (ctx.mode() == local::Visibility::kExtended) {
      nv.state = layer1[i].state;
      nv.id = layer1[i].id;
      nv.id_visible = true;
    }
    views.push_back(nv);
  }
  const local::VerifierContext base_ctx(ctx.id(), ctx.state(), own, views,
                                        ctx.mode(), ctx.network_size());
  return base_.verify(base_ctx);
}

std::size_t SpreadScheme::proof_size_bound(std::size_t n,
                                           std::size_t state_bits) const {
  // suffix + chunk never exceed a full base certificate (the chunk is at
  // most the factored prefix, the suffix is the rest), so the spread adds
  // only the header: k, residue, suffix length.  The residue field is
  // bit_width(k-1) wide with k <= t/2 + 1, so its bound is bit_width(t/2) —
  // not the 6-bit worst case of the k field itself.
  const std::size_t base = base_.proof_size_bound(n, state_bits);
  return kChunkCountField + util::bit_width_for(t_ / 2) +
         detail::varint_bits(base) + base;
}

}  // namespace pls::radius
