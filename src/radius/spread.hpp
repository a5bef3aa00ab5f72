// Certificate spreading: a mechanical 1-round scheme -> t-PLS transform.
//
// The classic 1-round schemes are redundant: large certificate fields (the
// root id of the spanning-tree schemes, for instance) are *identical* at
// every node, yet each node stores a full copy.  Spreading shards that
// shared part across space and lets the radius-t verifier reassemble it:
//
//   * The marker computes the base scheme's certificates, factors out the
//     longest common bit-prefix X of all of them, and cuts X into k
//     interleaved chunks (bit i of X goes to chunk i mod k).
//   * Each node stores one chunk — the one indexed by its BFS distance from
//     a per-component landmark (the minimum-id node), mod k — plus its own
//     residual suffix.  With k = min(floor(t/2)+1, eccentricity+1), every
//     radius-t ball provably contains all k chunk classes: either the ball
//     holds k consecutive BFS layers along the path towards the landmark, or
//     it reaches the landmark's neighborhood, which realizes layers 0..k-1.
//   * The verifier checks chunk-class agreement inside its ball, that
//     adjacent residues are cyclically consecutive, reassembles X, prepends
//     it to the suffixes of its 1-hop neighborhood, and runs the base
//     decoder on the reconstructed certificates.
//
// Certificates shrink from |X| + |suffix| to |X|/k + |suffix| + O(1): the
// size/t tradeoff of the t-PLS literature, measured in
// bench_radius_tradeoff.
//
// Wire format of a spread certificate (parse order):
//   [6 bits: k] [bit_width(k-1) bits: residue j] [varint: suffix bit-length]
//   [suffix bits] [remaining bits: chunk j of X]
#pragma once

#include <string>

#include "radius/engine_t.hpp"

namespace pls::radius {

class SpreadScheme final : public BallScheme {
 public:
  /// Wraps `base` (which must outlive this scheme) as a radius-t scheme.
  /// Requires 1 <= t <= 63 (k must fit the 6-bit chunk-count field).
  SpreadScheme(const core::Scheme& base, unsigned t);

  std::string_view name() const noexcept override { return name_; }
  const core::Language& language() const noexcept override {
    return base_.language();
  }
  local::Visibility visibility() const noexcept override {
    return base_.visibility();
  }
  unsigned radius() const noexcept override { return t_; }

  core::Labeling mark(const local::Configuration& cfg) const override;
  bool verify_ball(const RadiusContext& ctx) const override;
  std::size_t proof_size_bound(std::size_t n,
                               std::size_t state_bits) const override;

  /// Parse-once support (batch.hpp): the wire format is parsed per node
  /// exactly once per labeling; verify_ball reads the shared cache and only
  /// falls back to parsing locally when run without a verifier's cache.
  bool has_cert_parser() const noexcept override { return true; }
  std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const override;

  /// Interns the parsed chunk payloads into dense class ids (equal id <=>
  /// bit-identical chunk), so verify_ball's chunk-agreement check compares
  /// ids instead of BitStrings on the sweep hot path.
  void link_parses(
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;

  /// Sweep plan (stage 2): routes each center from distance fields — a
  /// bounded multi-source BFS per ball-wide check — instead of its ball:
  /// reject, the base decoder on the majority prefix, or verify_ball.
  bool plan_sweep(const local::Configuration& cfg,
                  std::span<const ParsedCert* const> parsed,
                  SweepPlan& out) const override;

  /// Incremental link (the delta path): the interning table persists in the
  /// verifier's LinkState, so relinking a mutated node hands out ids stable
  /// against every carried-forward parse.
  std::unique_ptr<LinkState> make_link_state() const override;
  void link_parses_stateful(
      LinkState& state,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;
  void relink_parses(
      LinkState& state, std::span<const std::unique_ptr<ParsedCert>> parsed,
      std::span<const graph::NodeIndex> touched) const override;

  /// The splice attack suite (splice.hpp): region-spliced prefixes, rotated
  /// residues, crossed chunks — the reassembly-specific failure modes.
  std::vector<SchemeAttack> adversarial_labelings(
      const local::Configuration& cfg, util::Rng& rng) const override;

  const core::Scheme& base() const noexcept { return base_; }

 private:
  const core::Scheme& base_;
  unsigned t_;
  std::string name_;
};

}  // namespace pls::radius
