#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace adaptive::sim {

std::string SimTime::to_string() const {
  char buf[64];
  if (is_infinite()) return "+inf";
  if (ns_ >= 1'000'000'000 || ns_ <= -1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.6fs", sec());
  } else if (ns_ >= 1'000'000 || ns_ <= -1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fms", ms());
  } else {
    std::snprintf(buf, sizeof buf, "%ldns", static_cast<long>(ns_));
  }
  return buf;
}

void EventHandle::cancel() {
  if (pending()) node_->owner->cancel(node_);
}

namespace {
bool g_legacy_heap_mode = false;
}  // namespace

bool legacy_heap_mode() { return g_legacy_heap_mode; }
void set_legacy_heap_mode(bool on) { g_legacy_heap_mode = on; }

EventScheduler::~EventScheduler() {
  // Destroy pending callables while the store is intact: a callable's
  // destructor may cancel (or even post) other events of this scheduler.
  int level = 0;
  int idx = 0;
  std::uint64_t start = 0;
  while (min_slot(level, idx, start)) cancel(heads_[static_cast<std::size_t>(level * kSlots + idx)]);
  while (!heap_.empty()) {
    Node* n = heap_.top().node;
    heap_.pop();
    if (n->seq != detail::kDeadSeq) destroy_callable(n);  // not cancelled
  }
  for (void* slab : slabs_) ::operator delete(slab);
}

void EventScheduler::reject_past(SimTime when) const {
  throw std::invalid_argument("EventScheduler: time " + when.to_string() +
                              " is in the past (now=" + now_.to_string() + ")");
}

EventScheduler::Node* EventScheduler::alloc_node(std::size_t bytes) {
  std::size_t cls = 0;
  while (kClassBytes[cls] - sizeof(Node) < bytes) ++cls;
  NodeClass& c = classes_[cls];
  Node* n = c.free;
  if (n != nullptr) {
    c.free = n->next;
  } else {
    // Slabs live until the scheduler dies, so a handle's node pointer
    // stays dereferenceable for the scheduler's whole life.
    const std::size_t node_bytes = kClassBytes[cls];
    if (c.carve_left == 0) {
      c.slab_nodes = c.slab_nodes == 0 ? kFirstSlabNodes
                                       : std::min(c.slab_nodes * 2, kMaxSlabBytes / node_bytes);
      c.carve = static_cast<unsigned char*>(::operator new(c.slab_nodes * node_bytes));
      c.carve_left = c.slab_nodes;
      slabs_.push_back(c.carve);
    }
    n = reinterpret_cast<Node*>(c.carve);
    c.carve += node_bytes;
    --c.carve_left;
    n->cls = static_cast<std::uint8_t>(cls);
    n->owner = this;
  }
  n->ops = nullptr;
  return n;
}

void EventScheduler::free_node(Node* n) noexcept {
  n->seq = detail::kDeadSeq;
  n->next = classes_[n->cls].free;
  classes_[n->cls].free = n;
}

void EventScheduler::destroy_callable(Node* n) noexcept {
  if (n->ops != nullptr) static_cast<const Task::Ops*>(n->ops)->destroy(n->storage());
  n->ops = nullptr;
}

void EventScheduler::enqueue(Node* n, SimTime when) {
  n->when = when;
  n->seq = next_seq_++;
  if (use_heap_) {
    heap_.push(HeapEntry{when, n->seq, n});
  } else {
    insert(n);
  }
  ++pending_;
}

void EventScheduler::cancel(Node* n) noexcept {
  n->seq = detail::kDeadSeq;
  if (use_heap_) {
    // The legacy heap cannot remove from the middle: the entry stays
    // (and counts as pending) until popped, as it always did.
    destroy_callable(n);
    return;
  }
  unlink(n);
  --pending_;
  destroy_callable(n);
  free_node(n);
}

void EventScheduler::fire(Node* n) {
  now_ = n->when;
  n->seq = detail::kDeadSeq;  // handles stop reporting pending()
  ++executed_;
  // The node is recycled only after its callable is destroyed, so posts
  // made from inside the callback (or from its captures' destructors)
  // never receive this node while it is still in use.
  struct Recycle {
    EventScheduler* self;
    Node* node;
    ~Recycle() {
      self->destroy_callable(node);
      self->free_node(node);
    }
  } recycle{this, n};
  if (n->ops != nullptr) static_cast<const Task::Ops*>(n->ops)->invoke(n->storage());
}

bool EventScheduler::heap_fire_next(SimTime limit) {
  // The pre-wheel event queue, preserved for bench_hotpath's before/after
  // comparison: O(log n) push and pop per event. Limit handling matches
  // fire_next exactly so the two modes stay bit-identical in virtual time.
  while (!heap_.empty()) {
    Node* n = heap_.top().node;
    if (n->seq == detail::kDeadSeq) {  // cancelled
      heap_.pop();
      --pending_;
      free_node(n);
      continue;
    }
    if (heap_.top().when > limit) return false;
    heap_.pop();
    --pending_;
    fire(n);
    return true;
  }
  return false;
}

void EventScheduler::insert(Node* n) {
  const std::uint64_t tick = tick_of(n->when);
  // when >= now_ and cursor_tick_ <= tick_of(now_) (the cursor only ever
  // advances to slot starts at or below the minimum pending tick), so
  // tick >= cursor_tick_ and the digit rule below is well defined.
  const std::uint64_t differ = tick ^ cursor_tick_;
  const int level = differ == 0 ? 0 : (std::bit_width(differ) - 1) / kSlotBits;
  const int idx = static_cast<int>((tick >> (level * kSlotBits)) & (kSlots - 1));
  const auto slot = static_cast<std::size_t>(level * kSlots + idx);
  Node*& head = heads_[slot];
  n->slot = static_cast<std::uint16_t>(slot);
  n->prev = nullptr;
  n->next = head;
  if (head != nullptr) head->prev = n;
  head = n;
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
}

void EventScheduler::unlink(Node* n) noexcept {
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    heads_[n->slot] = n->next;
    if (n->next == nullptr) {
      occupied_[n->slot / kSlots] &= ~(std::uint64_t{1} << (n->slot % kSlots));
    }
  }
  if (n->next != nullptr) n->next->prev = n->prev;
}

bool EventScheduler::min_slot(int& level, int& idx, std::uint64_t& start) const {
  bool found = false;
  for (int l = 0; l < kLevels; ++l) {
    const std::uint64_t bits = occupied_[static_cast<std::size_t>(l)];
    if (bits == 0) continue;
    // Occupied slots never sit below the cursor's digit at their level
    // (such a slot would have become the minimum — and been serviced —
    // before the cursor's digit passed it), so the lowest set bit is the
    // earliest slot outright; no circular scan.
    const int j = std::countr_zero(bits);
    const int above = (l + 1) * kSlotBits;
    const std::uint64_t base = (cursor_tick_ >> above) << above;
    const std::uint64_t s = base + (static_cast<std::uint64_t>(j) << (l * kSlotBits));
    // `>=` on ties: the coarser slot cascades first, so same-tick entries
    // filed under an older cursor keep their insertion-sequence rank.
    if (!found || s < start || (s == start && l > level)) {
      found = true;
      level = l;
      idx = j;
      start = s;
    }
  }
  return found;
}

bool EventScheduler::fire_next(SimTime limit) {
  while (true) {
    int level = 0;
    int idx = 0;
    std::uint64_t start = 0;
    if (!min_slot(level, idx, start)) return false;
    // `start` lower-bounds every pending event's time. Stop — without
    // advancing the cursor — when even that bound lies past the limit;
    // advancing here would let a later schedule_at land behind the cursor.
    if (static_cast<std::int64_t>(start << kTickShift) > limit.ns()) return false;

    Node*& head = heads_[static_cast<std::size_t>(level * kSlots + idx)];
    if (level > 0) {
      // Cascade: adopt the slot's start as the new cursor and re-home its
      // nodes. Each now agrees with the cursor at this digit, so each
      // re-files at a strictly lower level — the loop terminates, and the
      // slot being emptied is never written while it is walked.
      Node* n = head;
      head = nullptr;
      occupied_[static_cast<std::size_t>(level)] &= ~(std::uint64_t{1} << idx);
      if (start > cursor_tick_) cursor_tick_ = start;
      while (n != nullptr) {
        Node* next = n->next;
        insert(n);
        n = next;
      }
      continue;
    }

    // A level-0 slot holds exactly one tick; select the earliest (when,
    // seq) within it. One-entry slots — the pumped common case — are O(1).
    // Cancelled events left at cancel(), so every node here is live.
    Node* best = head;
    for (Node* n = best->next; n != nullptr; n = n->next) {
      if (n->when < best->when || (n->when == best->when && n->seq < best->seq)) best = n;
    }
    if (best->when > limit) return false;  // sub-tick limit boundary
    unlink(best);
    if (start > cursor_tick_) cursor_tick_ = start;
    --pending_;
    fire(best);  // may re-enter schedule_at; no slot reference is held
    return true;
  }
}

bool EventScheduler::step() {
  return use_heap_ ? heap_fire_next(SimTime::infinity()) : fire_next(SimTime::infinity());
}

std::size_t EventScheduler::run_until(SimTime until) {
  std::size_t n = 0;
  if (use_heap_) {
    while (heap_fire_next(until)) ++n;
  } else {
    while (fire_next(until)) ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

std::size_t EventScheduler::run() {
  std::size_t n = 0;
  if (use_heap_) {
    while (heap_fire_next(SimTime::infinity())) ++n;
  } else {
    while (fire_next(SimTime::infinity())) ++n;
  }
  return n;
}

}  // namespace adaptive::sim
