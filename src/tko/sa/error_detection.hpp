// Concrete error-detection mechanisms.
//
// Detection scheme and checksum placement are orthogonal in the wire
// format; these classes pick the pairings MANTTS can select among. The
// header-placed Internet checksum exists to model TCP/TP4 (footnote 2 of
// the paper); ADAPTIVE-native configurations use trailer placement.
#pragma once

#include "tko/sa/mechanism.hpp"

#include <memory>

namespace adaptive::tko::sa {

class NoDetection final : public ErrorDetection {
public:
  [[nodiscard]] std::string_view name() const override { return "no-detection"; }
  [[nodiscard]] ChecksumKind kind() const override { return ChecksumKind::kNone; }
  [[nodiscard]] ChecksumPlacement placement() const override {
    return ChecksumPlacement::kTrailer;
  }
};

class Internet16Header final : public ErrorDetection {
public:
  [[nodiscard]] std::string_view name() const override { return "cksum16-header"; }
  [[nodiscard]] ChecksumKind kind() const override { return ChecksumKind::kInternet16; }
  [[nodiscard]] ChecksumPlacement placement() const override {
    return ChecksumPlacement::kHeader;
  }
};

class Internet16Trailer final : public ErrorDetection {
public:
  [[nodiscard]] std::string_view name() const override { return "cksum16-trailer"; }
  [[nodiscard]] ChecksumKind kind() const override { return ChecksumKind::kInternet16; }
  [[nodiscard]] ChecksumPlacement placement() const override {
    return ChecksumPlacement::kTrailer;
  }
};

class Crc32Trailer final : public ErrorDetection {
public:
  [[nodiscard]] std::string_view name() const override { return "crc32-trailer"; }
  [[nodiscard]] ChecksumKind kind() const override { return ChecksumKind::kCrc32; }
  [[nodiscard]] ChecksumPlacement placement() const override {
    return ChecksumPlacement::kTrailer;
  }
};

/// Factory from the SCS enumeration.
[[nodiscard]] std::unique_ptr<ErrorDetection> make_error_detection(DetectionScheme s);

}  // namespace adaptive::tko::sa
