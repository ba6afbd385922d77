// Reference-counted message buffers.
//
// Memory-to-memory copying is the transport-system overhead the paper
// singles out (Section 4.2.1, TKO_Message); buffers are therefore shared,
// never implicitly copied, and every physical copy is recorded so UNITES
// whitebox metrics can report it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace adaptive::os {

class BufferRef;
struct BufferLedger;

/// One allocation per buffer: this header (intrusive refcount, owning
/// pool's ledger) followed directly by the bytes (DESIGN §13.5). A pooled
/// buffer returns to its pool's recycle cache when the last BufferRef
/// drops; a pool-less one is freed.
class Buffer {
public:
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  /// A buffer no pool accounts for. Contents start uninitialized: every
  /// producer path writes before any reader sees the bytes (`append`/`push`
  /// copy in; the `*_uninit` spans are handed out for writing), so
  /// zero-filling here would be a hidden memset of every datapath buffer.
  [[nodiscard]] static BufferRef make(std::size_t size);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
  [[nodiscard]] std::span<std::uint8_t> bytes() { return {data(), size_}; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {data(), size_}; }

private:
  friend class BufferRef;
  friend class BufferPool;
  friend struct BufferLedger;

  Buffer(std::size_t size, BufferLedger* ledger) : size_(size), ledger_(ledger) {}
  /// Allocate header and bytes as one block; the result holds one reference.
  static Buffer* create(std::size_t size, BufferLedger* ledger);
  /// Last reference dropped: recycle through the ledger, or free.
  static void release(Buffer* b) noexcept;
  static void destroy(Buffer* b) noexcept;

  std::uint32_t refs_ = 1;
  std::size_t size_;
  BufferLedger* ledger_;         ///< null for pool-less buffers
  Buffer* next_free_ = nullptr;  ///< recycle-cache link while unreferenced
};
static_assert(sizeof(Buffer) % 16 == 0, "bytes must start 16-aligned");

/// Shared, non-atomic owning reference to a Buffer — shared_ptr semantics
/// without the control block. Worlds are shard-local (one thread each), so
/// buffers never cross threads and the count needs no atomics.
class BufferRef {
public:
  BufferRef() noexcept = default;
  BufferRef(std::nullptr_t) noexcept {}  // NOLINT: mirrors shared_ptr
  BufferRef(const BufferRef& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  BufferRef(BufferRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  BufferRef& operator=(const BufferRef& o) noexcept {
    BufferRef(o).swap(*this);
    return *this;
  }
  BufferRef& operator=(BufferRef&& o) noexcept {
    BufferRef(std::move(o)).swap(*this);
    return *this;
  }
  ~BufferRef() { reset(); }

  void reset() noexcept {
    if (p_ != nullptr && --p_->refs_ == 0) Buffer::release(p_);
    p_ = nullptr;
  }
  void swap(BufferRef& o) noexcept { std::swap(p_, o.p_); }

  [[nodiscard]] Buffer* get() const noexcept { return p_; }
  Buffer* operator->() const noexcept { return p_; }
  Buffer& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  [[nodiscard]] long use_count() const noexcept { return p_ != nullptr ? p_->refs_ : 0; }

private:
  friend class Buffer;
  friend class BufferPool;
  /// Adopt the reference `b` was created (or recycled) with.
  explicit BufferRef(Buffer* b) noexcept : p_(b) {}
  Buffer* p_ = nullptr;
};

inline BufferRef Buffer::make(std::size_t size) { return BufferRef(create(size, nullptr)); }

}  // namespace adaptive::os
