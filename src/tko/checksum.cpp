#include "tko/checksum.hpp"

#include "tko/message.hpp"  // legacy_copy_path()

#include <array>
#include <bit>
#include <cstring>

namespace adaptive::tko {

namespace detail {

/// Pre-refactor inner loop: one 16-bit word per iteration. Kept so the
/// legacy mode bench_hotpath restores measures the genuine pre-PR
/// per-byte cost, not today's word-at-a-time core.
std::uint64_t ones_sum_be_bytewise(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint16_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint16_t>(data[i] << 8);
  return sum;
}

namespace {

/// One's-complement (end-around carry) 64-bit add.
inline std::uint64_t add_ones(std::uint64_t sum, std::uint64_t w) {
  sum += w;
  return sum + (sum < w ? 1 : 0);
}

}  // namespace

/// The inner loop consumes sixteen bytes per iteration into two
/// independent accumulators, so the two end-around-carry chains overlap
/// in the pipeline instead of serializing on one. Plain 64-bit adds with
/// an explicit end-around carry are one's-complement addition over four
/// 16-bit lanes at once, and because that addition commutes with byte
/// swapping (RFC 1071 section 2), the lanes can be summed in native
/// little-endian order and the folded result swapped once at the end.
/// One's-complement addition is associative and commutative, and a sum is
/// zero only when every addend is, so the split changes no result bit.
std::uint16_t ones_sum_be(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t s0 = 0;
  std::uint64_t s1 = 0;
  while (n >= 16) {
    std::uint64_t w0;
    std::uint64_t w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    s0 = add_ones(s0, w0);
    s1 = add_ones(s1, w1);
    p += 16;
    n -= 16;
  }
  std::uint64_t sum = add_ones(s0, s1);
  if (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    sum = add_ones(sum, w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, p, n);  // zero padding is the identity for the sum
    std::uint64_t w;
    std::memcpy(&w, tail, 8);
    sum = add_ones(sum, w);
  }
  sum = (sum & 0xFFFF'FFFFu) + (sum >> 32);
  sum = (sum & 0xFFFF'FFFFu) + (sum >> 32);
  sum = (sum & 0xFFFFu) + (sum >> 16);
  sum = (sum & 0xFFFFu) + (sum >> 16);
  std::uint16_t folded = static_cast<std::uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  return folded;
}

}  // namespace detail

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  if (legacy_copy_path()) {
    std::uint64_t sum = detail::ones_sum_be_bytewise(data);
    while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xFFFF);
  }
  return static_cast<std::uint16_t>(~detail::ones_sum_be(data) & 0xFFFF);
}

namespace {

/// Slice-by-8 CRC tables: table[k][b] advances the register by 8 bytes of
/// which byte b sits k positions from the end, letting the inner loop fold
/// eight bytes per iteration with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[k][n] = t[0][t[k - 1][n] & 0xFFu] ^ (t[k - 1][n] >> 8);
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (std::endian::native == std::endian::little && !legacy_copy_path()) {
    const auto& t = kCrcTables;
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    c = kCrcTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

void InternetChecksum::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  if (legacy_copy_path()) {
    // Pre-refactor behavior: byte-pair loop with the parity carried via
    // the odd-offset identity below (cost model only — same result).
    std::uint64_t sum = detail::ones_sum_be_bytewise(data);
    while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
    std::uint16_t part16 = static_cast<std::uint16_t>(sum);
    if (odd_) part16 = static_cast<std::uint16_t>((part16 << 8) | (part16 >> 8));
    sum_ += part16;
    if (data.size() & 1) odd_ = !odd_;
    return;
  }
  std::uint16_t part = detail::ones_sum_be(data);
  if (odd_) {
    // A segment starting at an odd byte offset contributes the byte-swap
    // of its even-offset sum (the same RFC 1071 section 2 identity the
    // word-at-a-time core relies on), so the parity carry costs one swap
    // per segment instead of forcing a byte-at-a-time loop.
    part = static_cast<std::uint16_t>((part << 8) | (part >> 8));
  }
  sum_ += part;
  if (data.size() & 1) odd_ = !odd_;
}

std::uint16_t InternetChecksum::value() const {
  std::uint64_t sum = sum_;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

}  // namespace adaptive::tko
