#include "util/bitio.hpp"

#include <cstring>

namespace pls::util {
namespace {

constexpr std::uint8_t low_mask(unsigned count) {
  return static_cast<std::uint8_t>((1u << count) - 1);
}

// `count` (1..8) bits of `src` starting at bit `bit`, reading only the one or
// two bytes that hold them.
std::uint8_t load_bits(const std::uint8_t* src, std::size_t bit,
                       unsigned count) {
  const std::size_t byte = bit / 8;
  const unsigned offset = static_cast<unsigned>(bit % 8);
  unsigned v = src[byte] >> offset;
  if (offset + count > 8)
    v |= static_cast<unsigned>(src[byte + 1]) << (8 - offset);
  return static_cast<std::uint8_t>(v & low_mask(count));
}

}  // namespace

void BitWriter::write_uint(std::uint64_t value, unsigned width) {
  PLS_REQUIRE(width <= 64);
  if (width == 0) return;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  std::size_t byte = nbits_ / 8;
  const unsigned offset = static_cast<unsigned>(nbits_ % 8);
  nbits_ += width;
  bytes_.resize((nbits_ + 7) / 8);
  // The first byte takes the low 8 - offset bits; every later byte is fresh
  // (zero) and takes the next 8.  `value` is masked, so pad bits stay zero.
  bytes_[byte] |= static_cast<std::uint8_t>(value << offset);
  for (unsigned done = 8 - offset; done < width; done += 8)
    bytes_[++byte] = static_cast<std::uint8_t>(value >> done);
}

void BitWriter::write_varint(std::uint64_t value) {
  // Each group is 7 payload bits with the continuation flag as bit 7.
  while (value > 0x7F) {
    write_uint((value & 0x7F) | 0x80, 8);
    value >>= 7;
  }
  write_uint(value, 8);
}

void BitWriter::write_bits(const std::vector<std::uint8_t>& bytes,
                           std::size_t nbits) {
  PLS_REQUIRE(nbits <= bytes.size() * 8);
  write_bits(bytes.data(), nbits);
}

void BitWriter::write_bits(const std::uint8_t* bytes, std::size_t from,
                           std::size_t nbits) {
  PLS_REQUIRE(nbits == 0 || bytes != nullptr);
  if (nbits == 0) return;
  const std::size_t byte = nbits_ / 8;
  const unsigned offset = static_cast<unsigned>(nbits_ % 8);
  nbits_ += nbits;
  bytes_.resize((nbits_ + 7) / 8);
  std::uint8_t* dst = bytes_.data() + byte;
  const std::size_t full = nbits / 8;
  const unsigned rest = static_cast<unsigned>(nbits % 8);
  if (offset == 0 && from % 8 == 0) {
    const std::uint8_t* src = bytes + from / 8;
    std::memcpy(dst, src, full);
    if (rest != 0) dst[full] = src[full] & low_mask(rest);
    return;
  }
  // Shifted copy: each source byte's worth lands across dst[i] (whose low
  // `offset` bits are already written) and the fresh dst[i + 1].
  auto put = [&](std::size_t i, std::uint8_t v, unsigned count) {
    dst[i] |= static_cast<std::uint8_t>(v << offset);
    if (offset + count > 8)
      dst[i + 1] = static_cast<std::uint8_t>(v >> (8 - offset));
  };
  for (std::size_t i = 0; i < full; ++i)
    put(i, load_bits(bytes, from + 8 * i, 8), 8);
  if (rest != 0) put(full, load_bits(bytes, from + 8 * full, rest), rest);
}

std::vector<std::uint8_t> BitWriter::take_bytes() noexcept {
  nbits_ = 0;
  return std::move(bytes_);
}

std::optional<std::uint64_t> BitReader::read_uint(unsigned width) noexcept {
  if (failed_ || width > 64 || remaining() < width) {
    failed_ = true;
    return std::nullopt;
  }
  if (width == 0) return 0;  // touches no byte: pos_ may sit at the end
  std::size_t byte = pos_ / 8;
  const unsigned offset = static_cast<unsigned>(pos_ % 8);
  pos_ += width;
  // Byte steps over exactly the bytes that hold bits [pos, pos + width).
  std::uint64_t value = data_[byte] >> offset;
  for (unsigned done = 8 - offset; done < width; done += 8)
    value |= static_cast<std::uint64_t>(data_[++byte]) << done;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

std::optional<bool> BitReader::read_bit() noexcept {
  auto v = read_uint(1);
  if (!v) return std::nullopt;
  return *v != 0;
}

bool BitReader::read_bits(BitWriter& out, std::size_t nbits) {
  if (failed_ || remaining() < nbits) {
    failed_ = true;
    return false;
  }
  out.write_bits(data_, pos_, nbits);
  pos_ += nbits;
  return true;
}

std::optional<std::uint64_t> BitReader::read_varint() noexcept {
  const std::size_t start = pos_;
  const unsigned offset = static_cast<unsigned>(pos_ % 8);
  std::uint64_t value = 0;
  for (unsigned shift = 0; !failed_ && remaining() >= 8; shift += 7) {
    // One 8-bit read per group: 7 payload bits, continuation flag on top.
    // The group's bits sit in at most two bytes, both before the end.
    const std::uint8_t* p = data_ + pos_ / 8;
    const unsigned byte =
        offset == 0 ? p[0]
                    : ((p[0] >> offset) | (p[1] << (8 - offset))) & 0xFFu;
    pos_ += 8;
    const std::uint64_t group = byte & 0x7Fu;
    const bool cont = (byte >> 7) != 0;
    // Overlong: a group past bit 63, or group bits that would shift out
    // above bit 63 (shift 63 keeps only bit 0).  Non-minimal: a zero FINAL
    // group after the first contributes nothing and would alias the shorter
    // encoding of the same value.
    if (shift >= 64 || (shift > 57 && (group >> (64 - shift)) != 0) ||
        (!cont && shift > 0 && group == 0))
      break;
    value |= group << shift;
    if (!cont) return value;
  }
  pos_ = start;
  failed_ = true;
  return std::nullopt;
}

}  // namespace pls::util
