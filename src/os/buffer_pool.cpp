#include "os/buffer_pool.hpp"

#include <algorithm>
#include <new>

namespace adaptive::os {

namespace {
bool g_legacy_alloc_path = false;
}  // namespace

bool legacy_alloc_path() { return g_legacy_alloc_path; }
void set_legacy_alloc_path(bool on) { g_legacy_alloc_path = on; }

Buffer* Buffer::create(std::size_t size, BufferLedger* ledger) {
  void* block = ::operator new(sizeof(Buffer) + size);
  return ::new (block) Buffer(size, ledger);
}

void Buffer::destroy(Buffer* b) noexcept {
  b->~Buffer();
  ::operator delete(b);
}

void Buffer::release(Buffer* b) noexcept {
  if (b->ledger_ != nullptr) {
    b->ledger_->on_release(b);
  } else {
    destroy(b);
  }
}

BufferLedger::~BufferLedger() {
  auto drain = [](Bin& bin) {
    while (bin.head != nullptr) Buffer::destroy(std::exchange(bin.head, bin.head->next_free_));
  };
  for (Bin& bin : small) drain(bin);
  for (auto& [_, bin] : large) drain(bin);
}

Buffer* BufferLedger::take(std::size_t capacity) {
  Bin& b = bin(capacity);
  Buffer* buf = b.head;
  if (buf == nullptr) return nullptr;
  b.head = buf->next_free_;
  --b.count;
  buf->next_free_ = nullptr;
  buf->refs_ = 1;
  return buf;
}

void BufferLedger::on_release(Buffer* b) noexcept {
  // Worlds are shard-local (one thread), so the counters need no
  // synchronization.
  ++frees;
  freed_bytes += b->size();
  --outstanding;
  if (pool_alive && !legacy_alloc_path()) {
    Bin& cached = bin(b->size());
    if (cached.count < kMaxCachedPerSize) {
      b->next_free_ = cached.head;
      cached.head = b;
      ++cached.count;
      return;
    }
  }
  Buffer::destroy(b);
  if (!pool_alive && outstanding == 0) delete this;
}

BufferPool::~BufferPool() {
  ledger_->pool_alive = false;
  if (ledger_->outstanding == 0) delete ledger_;
}

BufferRef BufferPool::allocate(std::size_t size) {
  std::size_t actual = size;
  if (scheme_ == BufferScheme::kFixedSize) {
    const std::size_t blocks = (size + block_size_ - 1) / block_size_;
    actual = (blocks == 0 ? 1 : blocks) * block_size_;
    stats_.wasted_bytes += actual - size;
  }
  ++stats_.allocations;
  stats_.allocated_bytes += actual;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, live_bytes());

  Buffer* b = legacy_alloc_path() ? nullptr : ledger_->take(actual);
  if (b == nullptr) b = Buffer::create(actual, ledger_);
  ++ledger_->outstanding;
  return BufferRef(b);
}

}  // namespace adaptive::os
