// SpreadScheme: completeness and soundness of the mechanical 1-round ->
// t-PLS transform, plus the proof-size/t tradeoff it exists to demonstrate.
#include "radius/spread.hpp"

#include <gtest/gtest.h>

#include "radius/spread_wire.hpp"
#include "schemes/agree.hpp"
#include "schemes/common.hpp"
#include "schemes/mst.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"
#include "util/rng.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

void expect_complete_t(const SpreadScheme& scheme,
                       const local::Configuration& cfg) {
  ASSERT_TRUE(scheme.language().contains(cfg));
  const core::Labeling lab = scheme.mark(cfg);
  const core::Verdict verdict =
      run_verifier_t(scheme, cfg, lab, scheme.radius());
  EXPECT_TRUE(verdict.all_accept())
      << scheme.name() << " rejected a legal configuration at "
      << verdict.rejections() << " nodes on " << cfg.graph().describe();
  EXPECT_LE(lab.max_bits(),
            scheme.proof_size_bound(cfg.n(), cfg.max_state_bits()))
      << scheme.name() << " exceeded its proof-size bound on "
      << cfg.graph().describe();
}

TEST(Spread, StpCompletenessSweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(131)) {
      util::Rng rng(137);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(Spread, StlCompletenessSweep) {
  const schemes::StlLanguage language;
  const schemes::StlScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(139)) {
      util::Rng rng(149);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(Spread, MstCompletenessSweep) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {2u, 4u}) {
    const SpreadScheme spread(base, t);
    for (auto& g : pls::testing::weighted_family(151)) {
      util::Rng rng(157);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

// The full adversary suite drives the t-round engine against the spread
// spanning-tree scheme on the classic illegal configurations.
TEST(Spread, StpSoundOnMeetInTheMiddle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const std::size_t n = 8;
  auto g = share(graph::path(n));
  std::vector<local::State> states;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == 0 || v == n - 1) {
      states.push_back(schemes::encode_pointer(std::nullopt));
    } else if (v < n / 2) {
      states.push_back(
          schemes::encode_pointer(g->id(static_cast<graph::NodeIndex>(v - 1))));
    } else {
      states.push_back(
          schemes::encode_pointer(g->id(static_cast<graph::NodeIndex>(v + 1))));
    }
  }
  const local::Configuration cfg(g, states);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 163);
  }
}

TEST(Spread, StpSoundOnCycle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::cycle(6));
  std::vector<local::State> states;
  for (std::size_t v = 0; v < 6; ++v)
    states.push_back(schemes::encode_pointer(
        g->id(static_cast<graph::NodeIndex>((v + 1) % 6))));
  const local::Configuration cfg(g, states);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 167);
  }
}

TEST(Spread, StpSoundOnTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::path(6));
  auto cfg = language.make_tree(g, 0).with_state(
      3, schemes::encode_pointer(std::nullopt));
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 173);
  }
}

TEST(Spread, TamperedCertificateRejected) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 4);
  util::Rng rng(179);
  auto g = share(graph::grid(4, 4));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  // Flip the chunk bits of one node by replacing its certificate wholesale.
  lab.certs[5] = local::random_state(lab.certs[5].bit_size(), rng);
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

TEST(Spread, RadiusBeyondDiameterStillComplete) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 32);
  auto g = share(graph::path(6));  // diameter 5 << 32
  expect_complete_t(spread, language.make_tree(g, 2));
}

// Spreading works per component: certificates-only visibility, two
// components, landmark BFS and chunk classes confined to each.
TEST(Spread, DisconnectedAgreeComponents) {
  const schemes::AgreeLanguage language(48);
  const schemes::AgreeScheme base(language);
  const SpreadScheme spread(base, 4);
  graph::Graph::Builder b;
  for (graph::RawId id = 1; id <= 7; ++id) b.add_node(id);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);  // path 0-1-2-3
  b.add_edge(4, 5);
  b.add_edge(5, 6);  // path 4-5-6
  auto g = share(std::move(b).build());
  ASSERT_FALSE(g->is_connected());
  std::vector<local::State> states(
      g->n(), language.encode_value(0xBEEF'CAFE'1234ull));
  const local::Configuration cfg(g, states);
  ASSERT_TRUE(language.contains(cfg));
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_TRUE(run_verifier_t(spread, cfg, lab, 4).all_accept());
}

TEST(Spread, InvalidRadiiRejected) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  EXPECT_THROW(SpreadScheme(base, 0), std::logic_error);
  EXPECT_THROW(SpreadScheme(base, 64), std::logic_error);
  // Running a radius-4 scheme in a radius-2 engine is invalid input too.
  const SpreadScheme spread(base, 4);
  auto g = share(graph::path(5));
  const auto cfg = language.make_tree(g, 0);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(run_verifier_t(spread, cfg, lab, 2), std::logic_error);
}

TEST(Spread, BallSchemeRejectsOneRoundEngine) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 2);
  auto g = share(graph::path(4));
  const auto cfg = language.make_tree(g, 0);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(core::run_verifier(spread, cfg, lab), std::logic_error);
}

// The point of the subsystem: with a large id space the shared prefix (the
// root id) dominates the spanning-tree certificate, and spreading it over
// radius-t balls shrinks the maximum certificate as t grows.
TEST(Spread, MaxBitsDecreaseWithRadius) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(191);
  auto g = share(graph::relabel_random(graph::random_connected(256, 128, rng),
                                       rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);

  std::size_t prev = base.mark(cfg).max_bits();
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    const std::size_t bits = spread.mark(cfg).max_bits();
    EXPECT_LT(bits, prev) << "t=" << t;
    prev = bits;
  }
}

// The spread header's residue field is sized by the actual chunk-count cap
// k <= t/2 + 1, not by the 6-bit worst case of the k field: the bound must
// still dominate every marker output across the registry, and shrink as the
// old hardcoded bit_width(62) residue bound is replaced.
TEST(Spread, ProofSizeBoundCoversRegistryAtAllRadii) {
  util::Rng rng(941);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(14, 10, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(2, 7));
    } else {
      g = share(graph::random_connected(14, 10, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      const SpreadScheme spread(*entry.scheme, t);
      const core::Labeling lab = spread.mark(cfg);
      const std::size_t bound =
          spread.proof_size_bound(cfg.n(), cfg.max_state_bits());
      EXPECT_GE(bound, lab.max_bits())
          << spread.name() << " bound below an actual certificate on "
          << cfg.graph().describe();

      // Independent header check: measure the real header of every marked
      // certificate by parsing it (header = total - suffix - chunk) and
      // assert the bound's header budget covers it.  This catches a residue
      // field undercount without restating the production formula.
      const std::size_t base_bound =
          entry.scheme->proof_size_bound(cfg.n(), cfg.max_state_bits());
      ASSERT_GE(bound, base_bound);
      const std::size_t header_budget = bound - base_bound;
      for (const local::Certificate& cert : lab.certs) {
        const auto wire = detail::parse_wire(cert);
        ASSERT_TRUE(wire.has_value()) << spread.name();
        const std::size_t measured_header = cert.bit_size() -
                                            wire->suffix.bit_size() -
                                            wire->chunk.bit_size();
        EXPECT_LE(measured_header, header_budget) << spread.name();
      }

      // Tightness regression: the residue field is sized by k <= t/2 + 1,
      // so for t <= 8 the bound must be strictly below the old formula that
      // budgeted the residue at the k field's 6-bit ceiling.
      EXPECT_LT(bound, base_bound + detail::kChunkCountField +
                           util::bit_width_for(62) +
                           detail::varint_bits(base_bound))
          << spread.name();
    }
  }
}

// --- spread_wire.hpp bulk helpers against per-bit references -------------
//
// The references spell each helper's contract one bit at a time, over
// std::vector<bool>, so they share no code with the byte-at-a-time helpers.

std::vector<bool> to_bits(const util::BitString& s) {
  std::vector<bool> bits(s.bit_size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = detail::bit_at(s, i);
  return bits;
}

// Owned, zero-padded storage for `bits`: the exact bytes a helper must emit.
std::vector<std::uint8_t> bytes_of(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return bytes;
}

// `nbits` random bits aliasing a buffer whose pad bits are random too, the
// shape of a certificate read straight out of a wire frame.
util::BitString random_aliased(util::Rng& rng, std::vector<std::uint8_t>& buf,
                               std::size_t nbits) {
  buf.resize((nbits + 7) / 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bits());
  return util::BitString::aliasing(buf.data(), nbits);
}

void expect_bits(const util::BitString& got, const std::vector<bool>& want) {
  ASSERT_EQ(got.bit_size(), want.size());
  EXPECT_EQ(got.bytes(), bytes_of(want));  // pad bits zero, too
}

TEST(SpreadWire, ShardReassembleRoundTripMatchesPerBitReference) {
  util::Rng rng(2005);
  std::vector<std::uint8_t> buf;
  for (std::size_t k = 1; k <= 8; ++k)
    for (std::size_t len = 0; len <= 300; ++len) {
      const util::BitString x = random_aliased(rng, buf, len);
      const std::vector<bool> xbits = to_bits(x);
      const std::vector<util::BitString> chunks = detail::shard_chunks(x, k);
      ASSERT_EQ(chunks.size(), k);
      std::vector<const util::BitString*> ptrs;
      for (std::size_t j = 0; j < k; ++j) {
        std::vector<bool> want;
        for (std::size_t i = j; i < len; i += k) want.push_back(xbits[i]);
        expect_bits(chunks[j], want);
        ptrs.push_back(&chunks[j]);
      }
      const auto back = detail::reassemble_chunks(ptrs);
      ASSERT_TRUE(back.has_value()) << "k " << k << " len " << len;
      expect_bits(*back, xbits);

      // The same from aliased chunks whose pad bits are all set.
      std::vector<std::vector<std::uint8_t>> padded(k);
      std::vector<util::BitString> aliased;
      aliased.reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        padded[j] = chunks[j].bytes();
        if (chunks[j].bit_size() % 8 != 0)
          padded[j].back() |= static_cast<std::uint8_t>(
              0xFFu << (chunks[j].bit_size() % 8));
        aliased.push_back(util::BitString::aliasing(padded[j].data(),
                                                    chunks[j].bit_size()));
        ptrs[j] = &aliased[j];
      }
      const auto from_aliased = detail::reassemble_chunks(ptrs);
      ASSERT_TRUE(from_aliased.has_value());
      expect_bits(*from_aliased, xbits);
    }
}

TEST(SpreadWire, ReassembleRejectsInconsistentInterleaveLengths) {
  // Dropping the last bit of chunk j leaves a consistent interleave only
  // when chunk j held X's last bit; every other cut must be rejected.
  util::Rng rng(17);
  std::vector<std::uint8_t> buf;
  for (std::size_t k = 2; k <= 8; ++k)
    for (std::size_t len = 1; len <= 60; ++len) {
      const util::BitString x = random_aliased(rng, buf, len);
      const std::vector<util::BitString> chunks = detail::shard_chunks(x, k);
      for (std::size_t j = 0; j < k; ++j) {
        if (chunks[j].empty()) continue;
        const util::BitString cut =
            detail::slice_bits(chunks[j], 0, chunks[j].bit_size() - 1);
        std::vector<const util::BitString*> ptrs;
        for (std::size_t i = 0; i < k; ++i)
          ptrs.push_back(i == j ? &cut : &chunks[i]);
        const auto back = detail::reassemble_chunks(ptrs);
        if (j == (len - 1) % k) {
          ASSERT_TRUE(back.has_value());
          EXPECT_EQ(*back, x.prefix(len - 1));
        } else {
          EXPECT_EQ(back, std::nullopt) << "k " << k << " len " << len;
        }
      }
    }
}

TEST(SpreadWire, SliceBitsMatchesPerBitReference) {
  util::Rng rng(3);
  std::vector<std::uint8_t> buf;
  for (std::size_t len = 0; len <= 100; ++len) {
    const util::BitString s = random_aliased(rng, buf, len);
    const std::vector<bool> bits = to_bits(s);
    for (std::size_t from = 0; from <= len; ++from) {
      const std::size_t n = rng.below(len - from + 1);
      expect_bits(detail::slice_bits(s, from, n),
                  std::vector<bool>(bits.begin() + from,
                                    bits.begin() + from + n));
    }
  }
}

TEST(SpreadWire, ReadBitsAtUnalignedOffsetsMatchesPerBitReference) {
  util::Rng rng(5);
  std::vector<std::uint8_t> buf;
  for (std::size_t lead = 0; lead < 16; ++lead)
    for (std::size_t n = 0; n <= 70; ++n) {
      const util::BitString s = random_aliased(rng, buf, lead + n);
      const std::vector<bool> bits = to_bits(s);
      util::BitReader r = s.reader();
      ASSERT_TRUE(r.read_uint(static_cast<unsigned>(lead)).has_value());
      const auto got = detail::read_bits(r, n);
      ASSERT_TRUE(got.has_value());
      expect_bits(*got, std::vector<bool>(bits.begin() + lead, bits.end()));
      EXPECT_TRUE(r.exhausted());
      EXPECT_EQ(detail::read_bits(r, 1), std::nullopt);  // runs dry
    }
}

}  // namespace
}  // namespace pls::radius
