#include "util/bitio.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace pls::util {
namespace {

TEST(BitIo, EmptyWriterHasNoBits) {
  BitWriter w;
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitIo, SingleBitRoundTrip) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_EQ(r.read_bit(), std::optional<bool>(false));
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, FixedWidthRoundTrip) {
  BitWriter w;
  w.write_uint(0b1011, 4);
  w.write_uint(0xFFFF, 16);
  w.write_uint(0, 1);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(4), std::optional<std::uint64_t>(0b1011));
  EXPECT_EQ(r.read_uint(16), std::optional<std::uint64_t>(0xFFFF));
  EXPECT_EQ(r.read_uint(1), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, WidthZeroWritesNothing) {
  BitWriter w;
  w.write_uint(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitIo, SixtyFourBitValue) {
  const std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
  BitWriter w;
  w.write_uint(v, 64);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(64), std::optional<std::uint64_t>(v));
}

TEST(BitIo, ReadPastEndFailsSoftly) {
  BitWriter w;
  w.write_uint(3, 2);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(3), std::nullopt);  // only 2 bits available
  // A failed wide read does not consume anything usable; the reader is safe.
  BitReader r2(w.bytes(), w.bit_size());
  EXPECT_TRUE(r2.read_uint(2).has_value());
  EXPECT_EQ(r2.read_bit(), std::nullopt);
}

TEST(BitIo, ReaderTracksRemaining) {
  BitWriter w;
  w.write_uint(0, 10);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.remaining(), 10u);
  ASSERT_TRUE(r.read_uint(4).has_value());
  EXPECT_EQ(r.remaining(), 6u);
  EXPECT_EQ(r.position(), 4u);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Value) {
  BitWriter w;
  w.write_varint(GetParam());
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(GetParam()));
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 2ull, 100ull, 127ull, 128ull, 129ull,
                      16383ull, 16384ull, 1u << 20, (1ull << 40) + 17,
                      std::uint64_t(-1)));

TEST(BitIo, VarintSizeIsEightBitsPerGroup) {
  BitWriter w;
  w.write_varint(127);
  EXPECT_EQ(w.bit_size(), 8u);
  BitWriter w2;
  w2.write_varint(128);
  EXPECT_EQ(w2.bit_size(), 16u);
}

TEST(BitIo, TruncatedVarintFails) {
  BitWriter w;
  w.write_varint(300);  // two groups
  BitReader r(w.bytes(), 8);  // cut off the second group
  EXPECT_EQ(r.read_varint(), std::nullopt);
}

TEST(BitIo, InterleavedValuesKeepAlignment) {
  BitWriter w;
  w.write_bit(true);
  w.write_varint(12345);
  w.write_uint(0b101, 3);
  w.write_varint(7);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(12345));
  EXPECT_EQ(r.read_uint(3), std::optional<std::uint64_t>(0b101));
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(7));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, WriteBitsAppendsVerbatim) {
  BitWriter inner;
  inner.write_uint(0b110101, 6);
  BitWriter outer;
  outer.write_bit(false);
  outer.write_bits(inner.bytes(), inner.bit_size());
  BitReader r(outer.bytes(), outer.bit_size());
  ASSERT_TRUE(r.read_bit().has_value());
  EXPECT_EQ(r.read_uint(6), std::optional<std::uint64_t>(0b110101));
}

TEST(BitIo, TakeBytesResetsWriter) {
  BitWriter w;
  w.write_uint(0xAB, 8);
  const auto bytes = w.take_bytes();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(w.bit_size(), 0u);
  w.write_bit(true);
  EXPECT_EQ(w.bit_size(), 1u);
}

TEST(BitIo, BitWidthFor) {
  EXPECT_EQ(bit_width_for(0), 1u);
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 2u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(4), 3u);
  EXPECT_EQ(bit_width_for(255), 8u);
  EXPECT_EQ(bit_width_for(256), 9u);
  EXPECT_EQ(bit_width_for(std::uint64_t(-1)), 64u);
}

TEST(BitIo, WidthOver64Throws) {
  BitWriter w;
  EXPECT_THROW(w.write_uint(0, 65), std::logic_error);
}

// Appends one raw varint group: 7 value bits + a continuation bit.  The
// writer below is how an ADVERSARY spells varints — write_varint itself
// can't produce the overlong shapes these tests must reject.
void raw_group(BitWriter& w, std::uint64_t bits7, bool cont) {
  w.write_uint(bits7, 7);
  w.write_bit(cont);
}

TEST(BitIo, TenGroupVarintCarriesExactlyOneTopBit) {
  // Nine full groups cover bits 0..62; the tenth sits at shift 63, where
  // only its lowest bit is representable.  Group value 1 is the canonical
  // encoding of UINT64_MAX's top bit and must decode.
  BitWriter w;
  for (int g = 0; g < 9; ++g) raw_group(w, 0x7F, true);
  raw_group(w, 0x01, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(),
            std::optional<std::uint64_t>(std::uint64_t(-1)));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, OverlongVarintIsRejectedNotAliased) {
  // Same ten groups, but the final group holds a bit that would shift past
  // bit 63.  The pre-hardening reader silently dropped it — aliasing this
  // encoding onto a smaller value; it must fail closed instead.
  BitWriter w;
  for (int g = 0; g < 9; ++g) raw_group(w, 0x7F, true);
  raw_group(w, 0x02, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 0u);  // the failed read consumed nothing
}

TEST(BitIo, NonMinimalVarintIsRejectedNotAliased) {
  // [group=5,cont=1][group=0,cont=0] decodes to the same 5 as the single-
  // group encoding — two distinct byte strings, one value.  Wire varints
  // are canonical, so the redundant form must fail closed.
  BitWriter w;
  raw_group(w, 0x05, true);
  raw_group(w, 0x00, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 0u);

  // Redundantly-encoded zero ([0,cont=1][0,cont=0]) is rejected the same
  // way...
  BitWriter wz;
  raw_group(wz, 0x00, true);
  raw_group(wz, 0x00, false);
  BitReader rz(wz.bytes(), wz.bit_size());
  EXPECT_EQ(rz.read_varint(), std::nullopt);
  EXPECT_TRUE(rz.failed());

  // ...while zero's one canonical encoding — the single zero group — still
  // decodes.
  BitWriter z;
  z.write_varint(0);
  BitReader rc(z.bytes(), z.bit_size());
  EXPECT_EQ(rc.read_varint(), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(rc.exhausted());
}

TEST(BitIo, ElevenGroupVarintIsRejected) {
  BitWriter w;
  for (int g = 0; g < 10; ++g) raw_group(w, 0x01, true);
  raw_group(w, 0x00, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
}

TEST(BitIo, FailureIsStickyAndConsumesNothing) {
  BitWriter w;
  w.write_uint(0b1011, 4);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.read_uint(8), std::nullopt);  // only 4 bits available
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.position(), 0u);
  // Sticky: the 4-bit read WOULD fit, but a reader that has failed once
  // answers nothing — a decoder can't resynchronize on attacker-controlled
  // input by accident.
  EXPECT_EQ(r.read_uint(4), std::nullopt);
  EXPECT_EQ(r.read_bit(), std::nullopt);
  EXPECT_EQ(r.read_varint(), std::nullopt);

  BitReader fresh(w.bytes(), w.bit_size());
  EXPECT_EQ(fresh.read_uint(4), std::optional<std::uint64_t>(0b1011));
  EXPECT_TRUE(fresh.ok());
}

TEST(BitIo, TruncatedVarintRestoresThePosition) {
  BitWriter w;
  w.write_uint(0xAB, 8);
  raw_group(w, 0x7F, true);  // promises a second group that never comes
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(8), std::optional<std::uint64_t>(0xAB));
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 8u);  // rewound to where the varint began
}

// --- Differential checks against a bit-at-a-time reference codec ---------
//
// RefWriter/RefReader move one bit per step, exactly as the codec did before
// its byte-at-a-time kernels; they are the oracle the kernels must match
// byte for byte, offset for offset, failure for failure.

struct RefWriter {
  std::vector<std::uint8_t> bytes;
  std::size_t nbits = 0;

  void put(bool bit) {
    if (nbits / 8 == bytes.size()) bytes.push_back(0);
    if (bit) bytes[nbits / 8] |= static_cast<std::uint8_t>(1u << (nbits % 8));
    ++nbits;
  }
  void write_uint(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) put((value >> i) & 1u);
  }
  void write_varint(std::uint64_t value) {
    do {
      const std::uint64_t group = value & 0x7Fu;
      value >>= 7;
      write_uint(group, 7);
      put(value != 0);
    } while (value != 0);
  }
  void write_bits(const std::uint8_t* src, std::size_t from, std::size_t n) {
    for (std::size_t i = from; i < from + n; ++i)
      put((src[i / 8] >> (i % 8)) & 1u);
  }
};

struct RefReader {
  const std::uint8_t* data;
  std::size_t nbits;
  std::size_t pos = 0;
  bool failed = false;

  std::optional<std::uint64_t> read_uint(unsigned width) {
    if (failed || width > 64 || nbits - pos < width) {
      failed = true;
      return std::nullopt;
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < width; ++i, ++pos)
      if ((data[pos / 8] >> (pos % 8)) & 1u) value |= std::uint64_t{1} << i;
    return value;
  }
  std::optional<std::uint64_t> read_varint() {
    const std::size_t start = pos;
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
      const auto group = read_uint(7);
      const auto cont = read_uint(1);
      if (!group || !cont || shift >= 64 ||
          (shift > 57 && (*group >> (64 - shift)) != 0) ||
          (*cont == 0 && shift > 0 && *group == 0)) {
        pos = start;
        failed = true;
        return std::nullopt;
      }
      value |= *group << shift;
      if (*cont == 0) return value;
    }
  }
};

// A source buffer of exactly the bytes that hold bits [0, from + nbits),
// random throughout — so every bit past the range is as likely set as not,
// and any read past the last byte is a heap over-read under ASan.
std::vector<std::uint8_t> random_source(Rng& rng, std::size_t nbits) {
  std::vector<std::uint8_t> src((nbits + 7) / 8);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.bits());
  return src;
}

std::uint64_t random_value(Rng& rng) {
  // Spread over magnitudes: uniform bits, then a random-width mask.
  const unsigned width = static_cast<unsigned>(rng.below(65));
  const std::uint64_t v = rng.bits();
  return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

void expect_same(const BitWriter& w, const RefWriter& ref) {
  ASSERT_EQ(w.bit_size(), ref.nbits);
  ASSERT_EQ(w.bytes(), ref.bytes);
}

TEST(BitIoDifferential, RandomWriteSequencesMatchReference) {
  Rng rng(20050717);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    RefWriter ref;
    const int ops = 1 + static_cast<int>(rng.below(40));
    for (int op = 0; op < ops; ++op) {
      switch (rng.below(4)) {
        case 0: {
          const unsigned width = static_cast<unsigned>(rng.below(65));
          const std::uint64_t value = rng.bits();  // bits above width set too
          w.write_uint(value, width);
          ref.write_uint(value, width);
          break;
        }
        case 1: {
          const std::uint64_t value = random_value(rng);
          w.write_varint(value);
          ref.write_varint(value);
          break;
        }
        case 2: {
          const std::size_t n = rng.below(200);
          const auto src = random_source(rng, n);
          w.write_bits(src.data(), n);
          ref.write_bits(src.data(), 0, n);
          break;
        }
        default: {
          const std::size_t from = rng.below(24);
          const std::size_t n = rng.below(200);
          const auto src = random_source(rng, from + n);
          w.write_bits(src.data(), from, n);
          ref.write_bits(src.data(), from, n);
          break;
        }
      }
      expect_same(w, ref);
    }
  }
}

TEST(BitIoDifferential, WriteBitsAtEveryOffsetIgnoresBitsPastTheEnd) {
  for (unsigned lead = 0; lead < 8; ++lead)
    for (std::size_t from = 0; from < 8; ++from)
      for (std::size_t n = 0; n <= 80; ++n) {
        // All-ones source: any source bit past from + n that leaks into the
        // output (or into a pad bit) shows up as a byte mismatch.
        const std::vector<std::uint8_t> src((from + n + 7) / 8, 0xFF);
        BitWriter w;
        RefWriter ref;
        w.write_uint(0b1010101, lead);
        ref.write_uint(0b1010101, lead);
        w.write_bits(src.data(), from, n);
        ref.write_bits(src.data(), from, n);
        w.write_uint(0, 3);
        ref.write_uint(0, 3);
        expect_same(w, ref);
      }
}

TEST(BitIoDifferential, ReadUintAtEveryOffsetAndWidth) {
  Rng rng(42);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (unsigned width = 0; width <= 64; ++width) {
      // The buffer ends with the last byte the read needs; its bits past
      // offset + width are random and must not reach the value.
      const auto buf = random_source(rng, offset + width);
      const std::size_t nbits = offset + width;
      BitReader r(buf.data(), nbits);
      RefReader ref{buf.data(), nbits};
      ASSERT_EQ(r.read_uint(static_cast<unsigned>(offset)),
                ref.read_uint(static_cast<unsigned>(offset)));
      ASSERT_EQ(r.read_uint(width), ref.read_uint(width))
          << "offset " << offset << " width " << width;
      EXPECT_TRUE(r.exhausted());
      // One bit too many fails closed at the end of the buffer.
      EXPECT_EQ(r.read_uint(1), std::nullopt);
      EXPECT_TRUE(r.failed());
      EXPECT_EQ(r.position(), nbits);
    }
}

TEST(BitIoDifferential, ReadBitsAtEveryOffsetMatchesReference) {
  Rng rng(7);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 80; ++n) {
      const auto buf = random_source(rng, offset + n);
      BitReader r(buf.data(), offset + n);
      ASSERT_TRUE(r.read_uint(static_cast<unsigned>(offset)).has_value());
      BitWriter out;
      ASSERT_TRUE(r.read_bits(out, n));
      EXPECT_TRUE(r.exhausted());
      RefWriter ref;
      ref.write_bits(buf.data(), offset, n);
      expect_same(out, ref);
      // Asking for more than remains fails closed and consumes nothing.
      EXPECT_FALSE(r.read_bits(out, 1));
      EXPECT_TRUE(r.failed());
      EXPECT_EQ(r.position(), offset + n);
      EXPECT_EQ(out.bit_size(), n);
    }
}

TEST(BitIoDifferential, RandomVarintDecodesMatchReference) {
  // Arbitrary bytes after an arbitrary lead: accepts, rejections, restored
  // positions and the sticky flag all agree with the reference.
  Rng rng(99);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t lead = rng.below(8);
    const std::size_t nbits = lead + rng.below(90);
    auto buf = random_source(rng, nbits);
    // Bias toward long and canonical-looking runs: set continuation bits.
    if (rng.below(2) == 0)
      for (auto& b : buf) b |= 0x80;
    BitReader r(buf.data(), nbits);
    RefReader ref{buf.data(), nbits};
    ASSERT_EQ(r.read_uint(static_cast<unsigned>(lead)),
              ref.read_uint(static_cast<unsigned>(lead)));
    for (int v = 0; v < 3; ++v) {
      ASSERT_EQ(r.read_varint(), ref.read_varint());
      ASSERT_EQ(r.position(), ref.pos);
      ASSERT_EQ(r.failed(), ref.failed);
    }
  }
}

// A varint rejection consumes nothing and latches failed(), at every lead
// offset.
void expect_rejected_at_every_lead(const RefWriter& encoding,
                                   std::size_t nbits_of_encoding) {
  for (unsigned lead = 0; lead < 8; ++lead) {
    RefWriter ref;
    ref.write_uint(0x5A, lead);
    ref.write_bits(encoding.bytes.data(), 0, nbits_of_encoding);
    BitReader r(ref.bytes.data(), ref.nbits);
    ASSERT_TRUE(r.read_uint(lead).has_value());
    EXPECT_EQ(r.read_varint(), std::nullopt) << "lead " << lead;
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.position(), lead);
    EXPECT_EQ(r.read_uint(0), std::nullopt);  // sticky
  }
}

TEST(BitIoDifferential, CanonicalVarintRejectionsRestoreThePosition) {
  // Overlong: a tenth group holding a bit above bit 63, and an eleventh
  // group.
  RefWriter overlong;
  for (int g = 0; g < 9; ++g) overlong.write_uint(0xFF, 8);
  overlong.write_uint(0x02, 8);
  expect_rejected_at_every_lead(overlong, overlong.nbits);
  RefWriter eleven;
  for (int g = 0; g < 10; ++g) eleven.write_uint(0x81, 8);
  eleven.write_uint(0x01, 8);
  expect_rejected_at_every_lead(eleven, eleven.nbits);

  // Non-minimal: a zero final group after 1..9 groups.
  for (int groups = 1; groups <= 9; ++groups) {
    RefWriter w;
    for (int g = 0; g < groups; ++g) w.write_uint(0x80 | (g == 0 ? 5 : 0), 8);
    w.write_uint(0x00, 8);
    expect_rejected_at_every_lead(w, w.nbits);
  }

  // Truncated at each bit of the last group, for encodings of 1..10 groups.
  for (unsigned width : {1u, 7u, 8u, 14u, 15u, 30u, 50u, 63u, 64u}) {
    const std::uint64_t value =
        width == 64 ? std::uint64_t(-1) : (std::uint64_t{1} << width) - 1;
    RefWriter w;
    w.write_varint(value);
    for (std::size_t cut = w.nbits - 8; cut < w.nbits; ++cut)
      expect_rejected_at_every_lead(w, cut);
  }
}

}  // namespace
}  // namespace pls::util
