// Deterministic discrete-event scheduler — the heart of the simulated
// substrate everything else (network, OS, protocol timers) runs on.
//
// Events fire in (time, insertion-sequence) order, which makes every run
// bit-reproducible for a given seed. Handles returned by `schedule` allow
// cancellation (used heavily by retransmission timers).
//
// Internally the scheduler is a hierarchical timer wheel (DESIGN §13), not
// a binary heap: time is divided into 1024 ns ticks, and each of nine
// levels covers successively coarser 64-slot digit positions of the tick
// value (64^9 ticks spans every representable SimTime). An event lands at
// the level of the highest 6-bit digit in which its tick differs from the
// wheel cursor, so insertion is O(1); servicing advances the cursor to the
// earliest occupied slot (found via per-level occupancy bitmaps) and
// cascades coarse slots downward, each entry falling to a strictly lower
// level until same-tick events coalesce in a level-0 slot. The pumped
// path — dense event tracks near the cursor, the common case for protocol
// timers and back-to-back packet events — is O(1) per event, where the
// heap paid O(log n) twice. Each event is a node from a scheduler-owned,
// recycling store, and each slot is an intrusive list of nodes, so the
// steady state allocates nothing (DESIGN §13.4).
//
// Invariants (the correctness spine of the wheel):
//   * cursor_tick_ is monotonic and never exceeds the minimum pending tick;
//   * every pending entry at level L agrees with the cursor in all digits
//     above L, so its slot alone determines its absolute tick range;
//   * a level-0 slot therefore holds exactly one tick value — same-tick
//     coalescing falls out of the level rule rather than being a special
//     case.
#pragma once

#include "sim/time.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaptive::sim {

class EventScheduler;

/// When set, newly constructed EventSchedulers use the pre-wheel binary
/// heap (std::priority_queue) event queue, mirroring tko's
/// set_legacy_copy_path: bench_hotpath flips both to reconstruct the
/// pre-refactor hot path inside one binary and measure the wheel against
/// it. The flag is sampled at scheduler construction, so flipping it never
/// affects a live scheduler. Event ordering — and therefore every
/// virtual-time result — is identical in both modes; only wall time
/// differs.
[[nodiscard]] bool legacy_heap_mode();
void set_legacy_heap_mode(bool on);

/// Move-only `void()` callable with inline storage — the event payload.
///
/// std::function heap-allocates any capture larger than two pointers, so
/// every per-packet event (`[this, p = std::move(packet)]`) cost an
/// allocation. A Task holds captures of up to kInlineBytes in place — an
/// owner pointer plus a whole net::Packet — and boxes larger ones on the
/// heap. The scheduler never keeps Tasks themselves: it relocates the
/// callable into a node of the smallest fitting size class (DESIGN §13.4),
/// so a Task is only a carrier for non-template APIs that take a callable
/// (`os::CpuModel::run`, `os::TimerFacility::schedule`).
class Task {
public:
  /// An owner pointer plus a 192-byte net::Packet.
  static constexpr std::size_t kInlineBytes = 200;
  /// Node storage is 8-aligned; anything stricter is boxed.
  static constexpr std::size_t kInlineAlign = 8;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Task> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Task(F&& f) {  // NOLINT: implicit, like std::function
    using D = std::decay_t<F>;
    if constexpr (std::is_pointer_v<D> || std::is_same_v<D, std::function<void()>>) {
      if (!f) return;
    }
    ops_ = construct<D>(buf_, std::forward<F>(f));
  }
  Task(Task&& o) noexcept { take(o); }
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

private:
  friend class EventScheduler;

  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  /// Type-erased operations on a callable living in raw storage.
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst`, then destroy the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;  ///< storage bytes the callable occupies
  };

  template <typename F>
  static constexpr bool kFitsInline = sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<F*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* from = static_cast<F*>(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* p) noexcept { static_cast<F*>(p)->~F(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, sizeof(F)};
  };

  /// Oversized or over-aligned callables: the storage holds an owning F*.
  template <typename F>
  struct BoxedOps {
    static void invoke(void* p) { (**static_cast<F**>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(*static_cast<F**>(src));
    }
    static void destroy(void* p) noexcept { delete *static_cast<F**>(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, sizeof(F*)};
  };

  /// Place `f` into `storage` (at least storage_for<D>() bytes); returns
  /// its ops.
  template <typename D, typename F>
  static const Ops* construct(void* storage, F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (storage) D(std::forward<F>(f));
      return &InlineOps<D>::kOps;
    } else {
      ::new (storage) D*(new D(std::forward<F>(f)));
      return &BoxedOps<D>::kOps;
    }
  }
  template <typename D>
  static constexpr std::size_t storage_for() {
    return kFitsInline<D> ? sizeof(D) : sizeof(D*);
  }

  void take(Task& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

namespace detail {
/// One scheduled event. Nodes are carved from scheduler-owned slabs in a
/// few size classes and recycled through per-class free lists; the
/// callable lives in the bytes right after this header. `seq` doubles as
/// the handle generation: it is unique per scheduled event and is
/// overwritten with kDeadSeq when the event fires or is cancelled, so a
/// stale handle never matches a recycled node.
struct EventNode {
  EventNode* prev;
  EventNode* next;
  SimTime when;
  std::uint64_t seq;
  const void* ops;  ///< Task::Ops of the stored callable; null for none
  EventScheduler* owner;
  std::uint16_t slot;  ///< wheel slot (level * 64 + index) while linked
  std::uint8_t cls;    ///< size class

  [[nodiscard]] unsigned char* storage() { return reinterpret_cast<unsigned char*>(this + 1); }
};
static_assert(sizeof(EventNode) % Task::kInlineAlign == 0);
inline constexpr std::uint64_t kDeadSeq = ~std::uint64_t{0};
}  // namespace detail

/// Cancellation handle for a scheduled event. Copyable; cancelling any copy
/// cancels the event. A default-constructed handle refers to nothing. A
/// handle names a node in its scheduler's store, so it must not be used
/// after that scheduler is destroyed.
class EventHandle {
public:
  EventHandle() = default;

  /// Cancel the event if it has not yet fired: the node is unlinked from
  /// the wheel and recycled at once. Safe to call repeatedly, after the
  /// event fired, and from inside any callback.
  void cancel();

  /// True if the event is still waiting to fire.
  [[nodiscard]] bool pending() const {
    return node_ != nullptr && node_->seq == seq_;
  }

private:
  friend class EventScheduler;
  EventHandle(detail::EventNode* n, std::uint64_t seq) : node_(n), seq_(seq) {}
  detail::EventNode* node_ = nullptr;
  std::uint64_t seq_ = 0;
};

class EventScheduler {
public:
  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;
  ~EventScheduler();

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` (any `void()` callable, or a Task) to run at absolute
  /// time `when` (must be >= now()).
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& cb) {
    detail::EventNode* n = make_node(when, std::forward<F>(cb));
    return EventHandle(n, n->seq);
  }

  /// Schedule `cb` to run `delay` after now().
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Fire-and-forget variants: no cancellation handle. The per-packet
  /// datapath events (link tx and propagation, node processing, CPU work
  /// completion) are never cancelled and dominate event volume. Ordering
  /// is identical to schedule_at (same (when, seq) sequence space).
  template <typename F>
  void post_at(SimTime when, F&& cb) {
    make_node(when, std::forward<F>(cb));
  }
  template <typename F>
  void post_after(SimTime delay, F&& cb) {
    make_node(now_ + delay, std::forward<F>(cb));
  }

  /// Run events until the queue drains or `until` is reached, whichever
  /// comes first. Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Run events until the queue drains.
  std::size_t run();

  /// Execute at most one event; returns false if queue is empty.
  bool step();

  /// Number of events waiting to fire. Exact in wheel mode (cancelled
  /// events leave at cancel()); the legacy heap still counts cancelled
  /// entries until it pops them.
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

  /// Total events executed since construction (excludes cancelled).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

private:
  friend class EventHandle;
  using Node = detail::EventNode;

  /// Node size classes (header included). A 48-byte timer lambda takes a
  /// 128-byte node, a packet-carrying datapath lambda a 256-byte one.
  static constexpr std::array<std::size_t, 5> kClassBytes{64, 96, 128, 192, 256};
  /// Slabs start at 8 nodes and double up to 16 KiB, and nodes are carved
  /// lazily, so a small World touches only the pages its events use.
  static constexpr std::size_t kFirstSlabNodes = 8;
  static constexpr std::size_t kMaxSlabBytes = 16 * 1024;
  static_assert(kClassBytes.back() - sizeof(Node) >= Task::kInlineBytes);

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    Node* node;
  };
  /// (when, seq) min-heap order for the legacy binary-heap mode.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr int kTickShift = 10;  ///< 1024 ns per wheel tick
  static constexpr int kSlotBits = 6;    ///< 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 9;  ///< 64^9 ticks > any representable time

  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.ns()) >> kTickShift;
  }

  template <typename F>
  Node* make_node(SimTime when, F&& cb) {
    using D = std::decay_t<F>;
    if (when < now_) reject_past(when);
    Node* n;
    if constexpr (std::is_same_v<D, Task>) {
      static_assert(!std::is_lvalue_reference_v<F>, "a Task is consumed: pass std::move(task)");
      const Task::Ops* ops = cb.ops_;
      n = alloc_node(ops != nullptr ? ops->size : 0);
      if (ops != nullptr) ops->relocate(n->storage(), cb.buf_);
      cb.ops_ = nullptr;
      n->ops = ops;
    } else {
      n = alloc_node(Task::storage_for<D>());
      try {
        n->ops = Task::construct<D>(n->storage(), std::forward<F>(cb));
      } catch (...) {
        free_node(n);
        throw;
      }
    }
    enqueue(n, when);
    return n;
  }

  [[noreturn]] void reject_past(SimTime when) const;
  /// A node of the smallest class holding `bytes`: recycled if one is
  /// free, else carved from the class's newest slab.
  Node* alloc_node(std::size_t bytes);
  void free_node(Node* n) noexcept;
  void destroy_callable(Node* n) noexcept;
  /// Stamp (when, seq) and file the node in the wheel or the legacy heap.
  void enqueue(Node* n, SimTime when);
  void cancel(Node* n) noexcept;
  /// Run the node's callable, then recycle the node (also on throw).
  void fire(Node* n);

  /// File a node at the level of the highest digit where its tick
  /// differs from the cursor. O(1).
  void insert(Node* n);
  void unlink(Node* n) noexcept;

  /// Locate the occupied slot with the smallest possible tick; ties
  /// between levels go to the coarser one so its entries cascade down
  /// before the finer slot is serviced (preserves (when, seq) order for
  /// same-tick events inserted under different cursors).
  bool min_slot(int& level, int& idx, std::uint64_t& start) const;

  /// Fire the single earliest eligible event (when <= limit). Cascades
  /// coarse slots on the way. Returns false when the wheel is empty or
  /// nothing is eligible.
  bool fire_next(SimTime limit);

  /// Legacy-heap equivalent of fire_next (identical semantics).
  bool heap_fire_next(SimTime limit);

  const bool use_heap_ = legacy_heap_mode();  ///< sampled at construction
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  /// Wheel position in ticks; monotonic, always <= the minimum pending
  /// entry's tick.
  std::uint64_t cursor_tick_ = 0;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< per-level slot bitmaps
  /// Per-slot intrusive doubly-linked node lists: filing, cascading and
  /// cancelling relink nodes and never allocate.
  std::array<Node*, static_cast<std::size_t>(kLevels) * kSlots> heads_{};
  /// Node store: per size class, a free list of recycled nodes and the
  /// uncarved tail of the newest slab. Slabs are owned by the scheduler.
  struct NodeClass {
    Node* free = nullptr;
    unsigned char* carve = nullptr;
    std::size_t carve_left = 0;  ///< nodes left in the newest slab
    std::size_t slab_nodes = 0;  ///< size of the newest slab, in nodes
  };
  std::array<NodeClass, kClassBytes.size()> classes_{};
  std::vector<void*> slabs_;
  /// Legacy-heap mode only (use_heap_); empty otherwise.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap_;
};

}  // namespace adaptive::sim
