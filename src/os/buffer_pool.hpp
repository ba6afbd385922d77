// Buffer allocation facade with copy and lifetime accounting.
//
// The pool supports the two buffer-management "representations" MANTTS
// negotiates (Section 4.1.1): fixed-size (allocations rounded up to a
// block size, enabling cheap reuse) and variable-size (exact allocation).
//
// Every allocation is also tracked through to its free: the pool's stats
// carry live bytes (a gauge) and the high-water mark alongside the
// cumulative copy counters, because Section 2 argues memory — copies and
// per-connection buffer state — is the transport bottleneck, and the
// UNITES resource telemetry plane (DESIGN §12) needs those numbers to
// gate the zero-copy work. Free tracking rides on each buffer's pointer to
// its pool's ledger, so a buffer outliving its pool is safe (the free
// still lands in the ledger, which lives until the pool and all of its
// buffers are gone).
#pragma once

#include "os/buffer.hpp"

#include <array>
#include <cstdint>
#include <unordered_map>

namespace adaptive::os {

/// Process-wide switch mirroring tko's set_legacy_copy_path for the os
/// layer: when on, every allocation hits the allocator and every free
/// returns to it (the pre-PR pool behavior). When off (the default), the
/// pool recycles freed buffers by exact capacity — the datapath allocates
/// a handful of hot sizes (PDU payload, header, trailer), so reuse hits
/// nearly always. The stats ledger sees identical alloc/free traffic in
/// both modes; only the allocator traffic differs.
[[nodiscard]] bool legacy_alloc_path();
void set_legacy_alloc_path(bool on);

enum class BufferScheme { kFixedSize, kVariableSize };

/// Free-side state shared by a pool and its outstanding buffers. Released
/// buffers land here: the counters feed the pool's stats, and the recycle
/// cache keeps freed blocks for reuse. It outlives the pool while any of
/// the pool's buffers is still referenced.
struct BufferLedger {
  /// Recycle-cache depth per size class: deep enough to absorb a send
  /// window of PDU buffers, small enough that idle sessions don't pin
  /// memory.
  static constexpr std::uint32_t kMaxCachedPerSize = 64;
  /// Capacities below this index a flat array; larger ones a hash map.
  static constexpr std::size_t kSmallSizes = 256;

  struct Bin {
    Buffer* head = nullptr;
    std::uint32_t count = 0;
  };

  BufferLedger() = default;
  BufferLedger(const BufferLedger&) = delete;
  BufferLedger& operator=(const BufferLedger&) = delete;
  ~BufferLedger();

  /// A cached block of exactly `capacity` bytes, or null.
  [[nodiscard]] Buffer* take(std::size_t capacity);
  /// The last reference to `b` dropped.
  void on_release(Buffer* b) noexcept;

  [[nodiscard]] Bin& bin(std::size_t capacity) {
    return capacity < kSmallSizes ? small[capacity] : large[capacity];
  }

  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::uint64_t outstanding = 0;  ///< handed-out buffers not yet released
  bool pool_alive = true;
  std::array<Bin, kSmallSizes> small{};
  std::unordered_map<std::size_t, Bin> large;
};

struct BufferPoolStats {
  std::uint64_t allocations = 0;
  std::uint64_t allocated_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::uint64_t live_bytes = 0;        ///< gauge: allocated_bytes - freed_bytes
  std::uint64_t high_water_bytes = 0;  ///< peak of live_bytes over the pool's life
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t wasted_bytes = 0;  ///< fixed-size rounding slack
};

class BufferPool {
public:
  explicit BufferPool(BufferScheme scheme = BufferScheme::kVariableSize,
                      std::size_t block_size = 2048)
      : scheme_(scheme), block_size_(block_size), ledger_(new BufferLedger) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  [[nodiscard]] BufferRef allocate(std::size_t size);

  /// Record a physical memory-to-memory copy (called by TKO_Message).
  void record_copy(std::size_t bytes) {
    ++stats_.copies;
    stats_.copied_bytes += bytes;
  }

  [[nodiscard]] const BufferPoolStats& stats() const {
    // Fold the free-side ledger (written by BufferRef deleters) into the
    // snapshot callers read; the bases subtract frees that predate the
    // last reset_stats().
    stats_.frees = ledger_->frees - frees_base_;
    stats_.freed_bytes = ledger_->freed_bytes - freed_bytes_base_;
    stats_.live_bytes = live_bytes();
    return stats_;
  }
  [[nodiscard]] std::uint64_t live_bytes() const {
    return stats_.allocated_bytes + carried_bytes_ - ledger_->freed_bytes;
  }
  [[nodiscard]] BufferScheme scheme() const { return scheme_; }
  void set_scheme(BufferScheme s) { scheme_ = s; }

  /// Zero the cumulative counters. Live/high-water track actual buffer
  /// lifetimes and restart from the current live set.
  void reset_stats() {
    const std::uint64_t live = live_bytes();
    stats_ = {};
    carried_bytes_ = live + ledger_->freed_bytes;
    frees_base_ = ledger_->frees;
    freed_bytes_base_ = ledger_->freed_bytes;
    stats_.live_bytes = live;
    stats_.high_water_bytes = live;
  }

private:
  BufferScheme scheme_;
  std::size_t block_size_;
  mutable BufferPoolStats stats_;
  /// Bytes live at the last reset_stats(): keeps live_bytes() consistent
  /// after cumulative counters are zeroed.
  std::uint64_t carried_bytes_ = 0;
  /// Ledger readings at the last reset_stats(), so reported frees are
  /// "since reset" while the shared ledger itself stays monotonic for
  /// buffers still in flight.
  std::uint64_t frees_base_ = 0;
  std::uint64_t freed_bytes_base_ = 0;
  BufferLedger* ledger_;  ///< owned jointly with outstanding buffers
};

}  // namespace adaptive::os
