// Error-detection codes for PDUs.
//
// Both the RFC 1071 Internet checksum (what TCP/TP4 use) and CRC-32 are
// provided; the PDU format can place the code in the header (TCP-style) or
// in a trailer — the paper's footnote 2 notes that header placement
// precludes computing the checksum while the packet is being transmitted,
// which bench_fig4_message quantifies.
#pragma once

#include <cstdint>
#include <span>

namespace adaptive::tko {

namespace detail {
/// One's-complement sum of `data` folded to 16 bits, in big-endian word
/// order, as if the span started on an even byte offset (odd-length spans
/// pad with a zero low byte, per RFC 1071). The datapath core.
[[nodiscard]] std::uint16_t ones_sum_be(std::span<const std::uint8_t> data);
/// The same sum, unfolded, one 16-bit word at a time: the legacy-mode
/// core and the reference ones_sum_be is tested against.
[[nodiscard]] std::uint64_t ones_sum_be_bytewise(std::span<const std::uint8_t> data);
}  // namespace detail

/// RFC 1071 16-bit one's-complement checksum.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// CRC-32 (IEEE 802.3 polynomial, reflected).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC-32 for streaming over message segments.
class Crc32 {
public:
  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] std::uint32_t value() const { return ~state_; }

private:
  std::uint32_t state_ = 0xFFFF'FFFFu;
};

/// Incremental RFC 1071 Internet checksum for streaming over message
/// segments. The 16-bit one's-complement sum is not segment-composable at
/// odd boundaries without carrying the byte parity across updates; this
/// class folds the odd tail byte into the next segment's first byte, so
/// feeding segments of any length yields exactly the checksum of their
/// concatenation — the trailer-placement encode path can checksum a
/// scatter/gather chain without linearizing it (paper footnote 2).
class InternetChecksum {
public:
  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] std::uint16_t value() const;

private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  ///< total bytes consumed so far is odd
};

}  // namespace adaptive::tko
