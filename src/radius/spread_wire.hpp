// Wire formats of spread certificates, shared between the spread schemes
// (the honest markers/decoders) and the splice attack suite (splice.hpp),
// which must be able to parse, tamper with, and re-encode certificates
// bit-exactly.
//
// Global spread (SpreadScheme) layout (parse order):
//   [6 bits: k] [bit_width(k-1) bits: residue j] [varint: suffix bit-length]
//   [suffix bits] [remaining bits: chunk j of X]
//
// Fragment spread (FragmentSpreadScheme) layout adds the region id — the raw
// id of the region's landmark node — between the residue and the suffix
// length, so the parse-once cache carries each node's region:
//   [6 bits: k_r] [bit_width(k_r-1) bits: residue j] [varint: region id]
//   [varint: suffix bit-length] [suffix bits] [remaining: chunk j of X_r]
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "pls/certificate.hpp"
#include "util/bitstring.hpp"

namespace pls::radius::detail {

inline constexpr unsigned kChunkCountField = 6;  // k fits in 6 bits: [1, 63]

/// Bit i of a BitString (stream order: bit i lives in byte i/8, position i%8).
inline bool bit_at(const util::BitString& s, std::size_t i) {
  return (s.data()[i / 8] >> (i % 8)) & 1;
}

/// Length of the longest common prefix of two bit strings.
inline std::size_t lcp_bits(const util::BitString& a, const util::BitString& b) {
  const std::size_t limit = std::min(a.bit_size(), b.bit_size());
  std::size_t i = 0;
  // Whole equal bytes first, then the mismatching byte bit by bit.
  while (i + 8 <= limit && a.data()[i / 8] == b.data()[i / 8]) i += 8;
  while (i < limit && bit_at(a, i) == bit_at(b, i)) ++i;
  return i;
}

/// Encoded size of a varint (8 bits per 7-bit payload group).
inline std::size_t varint_bits(std::uint64_t value) {
  return 8 * ((util::bit_width_for(value) + 6) / 7);
}

/// Reads exactly `nbits` bits; nullopt when the reader runs dry.
inline std::optional<util::BitString> read_bits(util::BitReader& r,
                                                std::size_t nbits) {
  util::BitWriter w;
  if (!r.read_bits(w, nbits)) return std::nullopt;
  return util::BitString::from_writer(std::move(w));
}

/// Bits [from, from+len) of `s` as a fresh bit string.
inline util::BitString slice_bits(const util::BitString& s, std::size_t from,
                                  std::size_t len) {
  PLS_ASSERT(from + len <= s.bit_size());
  util::BitWriter w;
  w.write_bits(s.data(), from, len);
  return util::BitString::from_writer(std::move(w));
}

/// `a` followed by `b`, written into a buffer sized once for both.
inline util::BitString concat_bits(const util::BitString& a,
                                   const util::BitString& b) {
  util::BitWriter w;
  w.reserve(a.bit_size() + b.bit_size());
  w.write_bits(a.data(), a.bit_size());
  w.write_bits(b.data(), b.bit_size());
  return util::BitString::from_writer(std::move(w));
}

/// Number of indices i < total with i % k == j.
inline std::size_t chunk_size(std::size_t total, std::size_t k, std::size_t j) {
  return total > j ? (total - 1 - j) / k + 1 : 0;
}

/// The marker's sharding step, shared by both spread markers and the splice
/// suite: cuts X into k interleaved chunks, bit i of X going to chunk i%k.
/// The exact inverse of reassemble_chunks below.  Each chunk is a pre-sized
/// buffer filled one output byte at a time.
inline std::vector<util::BitString> shard_chunks(const util::BitString& x,
                                                 std::size_t k) {
  std::vector<util::BitString> chunks;
  chunks.reserve(k);
  if (k == 1) {
    chunks.push_back(slice_bits(x, 0, x.bit_size()));
    return chunks;
  }
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t len = chunk_size(x.bit_size(), k, j);
    std::vector<std::uint8_t> bytes((len + 7) / 8);
    std::size_t src = j;  // bit q of chunk j is bit q*k + j of X
    for (std::size_t b = 0; b < bytes.size(); ++b) {
      const auto width =
          static_cast<unsigned>(std::min<std::size_t>(8, len - 8 * b));
      unsigned out = 0;
      for (unsigned t = 0; t < width; ++t, src += k)
        out |= static_cast<unsigned>(bit_at(x, src)) << t;
      bytes[b] = static_cast<std::uint8_t>(out);
    }
    chunks.emplace_back(std::move(bytes), len);
  }
  return chunks;
}

/// The verifier's reassembly step, shared by both spread decoders: checks
/// that the k chunk lengths interleave to a consistent total (nullopt
/// otherwise — a splice of chunks from prefixes of different lengths) and
/// stitches the prefix back together, bit i of X being bit i/k of chunk
/// i%k.  The prefix is a pre-sized buffer filled one output byte at a time.
inline std::optional<util::BitString> reassemble_chunks(
    std::span<const util::BitString* const> chunks) {
  const std::size_t k = chunks.size();
  std::size_t total = 0;
  for (const util::BitString* c : chunks) total += c->bit_size();
  for (std::size_t j = 0; j < k; ++j)
    if (chunks[j]->bit_size() != chunk_size(total, k, j)) return std::nullopt;
  if (k == 1) return slice_bits(*chunks[0], 0, total);
  std::vector<std::uint8_t> bytes((total + 7) / 8);
  std::size_t j = 0;  // bit i of X is bit q of chunk j = i % k, q = i / k
  std::size_t q = 0;
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    const auto width =
        static_cast<unsigned>(std::min<std::size_t>(8, total - 8 * b));
    unsigned out = 0;
    for (unsigned t = 0; t < width; ++t) {
      out |= static_cast<unsigned>(bit_at(*chunks[j], q)) << t;
      if (++j == k) {
        j = 0;
        ++q;
      }
    }
    bytes[b] = static_cast<std::uint8_t>(out);
  }
  return util::BitString(std::move(bytes), total);
}

/// One parsed spread certificate.
struct SpreadWire {
  std::uint64_t k = 0;
  std::uint64_t residue = 0;
  util::BitString suffix;
  util::BitString chunk;
};

inline std::optional<SpreadWire> parse_wire(const local::Certificate& c) {
  util::BitReader r = c.reader();
  SpreadWire p;
  const auto k = r.read_uint(kChunkCountField);
  if (!k || *k == 0) return std::nullopt;
  p.k = *k;
  const auto residue = r.read_uint(util::bit_width_for(p.k - 1));
  if (!residue || *residue >= p.k) return std::nullopt;
  p.residue = *residue;
  const auto suffix_len = r.read_varint();
  if (!suffix_len) return std::nullopt;
  auto suffix = read_bits(r, *suffix_len);
  if (!suffix) return std::nullopt;
  p.suffix = std::move(*suffix);
  auto chunk = read_bits(r, r.remaining());
  PLS_ASSERT(chunk.has_value());
  p.chunk = std::move(*chunk);
  return p;
}

/// Re-encodes a (possibly tampered) parsed certificate in the wire format.
inline local::Certificate encode_wire(const SpreadWire& p) {
  util::BitWriter w;
  w.write_uint(p.k, kChunkCountField);
  w.write_uint(p.residue, util::bit_width_for(p.k - 1));
  w.write_varint(p.suffix.bit_size());
  w.write_bits(p.suffix.bytes(), p.suffix.bit_size());
  w.write_bits(p.chunk.bytes(), p.chunk.bit_size());
  return local::Certificate::from_writer(std::move(w));
}

/// One parsed fragment-spread certificate: the global wire plus the region
/// id naming which region's prefix the chunk belongs to.
struct FragmentWire {
  std::uint64_t k = 0;
  std::uint64_t residue = 0;
  std::uint64_t region = 0;  ///< raw id of the region's landmark node
  util::BitString suffix;
  util::BitString chunk;
};

inline std::optional<FragmentWire> parse_fragment_wire(
    const local::Certificate& c) {
  util::BitReader r = c.reader();
  FragmentWire p;
  const auto k = r.read_uint(kChunkCountField);
  if (!k || *k == 0) return std::nullopt;
  p.k = *k;
  const auto residue = r.read_uint(util::bit_width_for(p.k - 1));
  if (!residue || *residue >= p.k) return std::nullopt;
  p.residue = *residue;
  const auto region = r.read_varint();
  if (!region) return std::nullopt;
  p.region = *region;
  const auto suffix_len = r.read_varint();
  if (!suffix_len) return std::nullopt;
  auto suffix = read_bits(r, *suffix_len);
  if (!suffix) return std::nullopt;
  p.suffix = std::move(*suffix);
  auto chunk = read_bits(r, r.remaining());
  PLS_ASSERT(chunk.has_value());
  p.chunk = std::move(*chunk);
  return p;
}

/// Re-encodes a (possibly tampered) parsed fragment certificate.
inline local::Certificate encode_fragment_wire(const FragmentWire& p) {
  util::BitWriter w;
  w.write_uint(p.k, kChunkCountField);
  w.write_uint(p.residue, util::bit_width_for(p.k - 1));
  w.write_varint(p.region);
  w.write_varint(p.suffix.bit_size());
  w.write_bits(p.suffix.bytes(), p.suffix.bit_size());
  w.write_bits(p.chunk.bytes(), p.chunk.bit_size());
  return local::Certificate::from_writer(std::move(w));
}

}  // namespace pls::radius::detail
