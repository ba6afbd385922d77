// Unit tests for the discrete-event kernel: virtual time, scheduler
// ordering/cancellation, and the reproducible RNG.
#include "net/packet.hpp"
#include "os/timer_facility.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "tko/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

// Counting allocator for the allocation regression tests below: every
// global operator new in this test binary bumps one counter, and a test
// asserts the delta across its steady-state loop.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacements pair malloc with free on purpose; GCC cannot see that
// every operator new below is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace adaptive::sim {
namespace {

TEST(SimTime, ConstructorsAndAccessors) {
  EXPECT_EQ(SimTime::microseconds(3).ns(), 3'000);
  EXPECT_EQ(SimTime::milliseconds(2).ns(), 2'000'000);
  EXPECT_EQ(SimTime::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(250).sec(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(1500).ms(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const auto a = SimTime::milliseconds(10);
  const auto b = SimTime::milliseconds(3);
  EXPECT_EQ((a + b).ns(), 13'000'000);
  EXPECT_EQ((a - b).ns(), 7'000'000);
  EXPECT_EQ((b * 4).ns(), 12'000'000);
  EXPECT_EQ((a / 2).ns(), 5'000'000);
  EXPECT_LT(b, a);
  EXPECT_TRUE(SimTime::infinity().is_infinite());
  EXPECT_FALSE(a.is_infinite());
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime::nanoseconds(42).to_string(), "42ns");
  EXPECT_EQ(SimTime::infinity().to_string(), "+inf");
  EXPECT_NE(SimTime::seconds(2.0).to_string().find("s"), std::string::npos);
}

TEST(Rate, TransmissionTime) {
  // 1000 bytes at 10 Mbps = 8000 bits / 1e7 bps = 800 us.
  EXPECT_EQ(Rate::mbps(10).transmission_time(1000).ns(), 800'000);
  EXPECT_EQ(Rate::kbps(64).transmission_time(8).ns(), 1'000'000);
  EXPECT_DOUBLE_EQ(Rate::gbps(1).mbits_per_sec(), 1000.0);
}

TEST(EventScheduler, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::milliseconds(3), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::milliseconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(3));
}

TEST(EventScheduler, FifoWithinSameTimestamp) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool fired = false;
  auto h = sched.schedule_after(SimTime::milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.executed_events(), 0u);
}

TEST(EventScheduler, RunUntilStopsAndAdvancesClock) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(SimTime::milliseconds(1), [&] { ++count; });
  sched.schedule_at(SimTime::milliseconds(5), [&] { ++count; });
  const auto n = sched.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime::milliseconds(2));
  sched.run();
  EXPECT_EQ(count, 2);
}

TEST(EventScheduler, EventsCanScheduleEvents) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_after(SimTime::microseconds(1), recurse);
  };
  sched.schedule_after(SimTime::microseconds(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), SimTime::microseconds(10));
}

// ---------------------------------------------------------------------------
// Timer-wheel specifics: the scheduler is a hierarchical wheel (1024ns
// ticks, 64 slots per level), so delays that cross level boundaries must
// cascade down without perturbing (when, seq) order, and sub-tick
// resolution must survive the coarse slotting.
// ---------------------------------------------------------------------------

TEST(EventScheduler, FarFutureCascadesInOrder) {
  EventScheduler sched;
  std::vector<int> order;
  // One event per wheel level, inserted in shuffled order: 50us sits in
  // level 0's span, 1ms in level 1's, 100ms in level 2's, 3s and 20s in
  // level 3's. Each must cascade down to level 0 before firing.
  sched.schedule_at(SimTime::seconds(3.0), [&] { order.push_back(4); });
  sched.schedule_at(SimTime::microseconds(50), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::seconds(20.0), [&] { order.push_back(5); });
  sched.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(2); });
  sched.schedule_at(SimTime::milliseconds(100), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sched.now(), SimTime::seconds(20.0));
  EXPECT_EQ(sched.executed_events(), 5u);
}

TEST(EventScheduler, SubTickTimesOrderWithinOneSlot) {
  // 50ns, 100ns, and 900ns all share wheel tick 0; the slot must still
  // fire them by exact timestamp, with FIFO breaking the 50ns tie.
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::nanoseconds(900), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::nanoseconds(50), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::nanoseconds(50), [&] { order.push_back(2); });
  sched.schedule_at(SimTime::nanoseconds(100), [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sched.now(), SimTime::nanoseconds(900));
}

TEST(EventScheduler, RunUntilHonorsSubTickBoundary) {
  // Limit and event sit in the same 1024ns tick: the event at 1000ns must
  // not fire when running until 999ns, and now() must not regress.
  EventScheduler sched;
  bool fired = false;
  sched.schedule_at(SimTime::nanoseconds(1000), [&] { fired = true; });
  EXPECT_EQ(sched.run_until(SimTime::nanoseconds(999)), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.now(), SimTime::nanoseconds(999));
  EXPECT_EQ(sched.run_until(SimTime::nanoseconds(1000)), 1u);
  EXPECT_TRUE(fired);
}

TEST(EventScheduler, SameTickEntriesFiledUnderDifferentCursors) {
  // A lands in tick T while the cursor is at 0 (coarse level); the clock
  // then advances, and B and C join the same tick from a nearer cursor
  // (finer level). Fire order must still be exact (when, seq): C (earlier
  // sub-tick time, latest insertion) first, then A before B (FIFO at the
  // same timestamp) — regardless of which level each entry waited on.
  EventScheduler sched;
  std::vector<int> order;
  const auto t = SimTime::milliseconds(10);
  sched.schedule_at(t, [&] { order.push_back(1); });                             // A
  sched.schedule_at(SimTime::milliseconds(5), [&] {
    sched.schedule_at(t, [&] { order.push_back(2); });                           // B
    sched.schedule_at(t - SimTime::nanoseconds(100), [&] { order.push_back(3); });  // C
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(sched.now(), t);
}

TEST(EventScheduler, CancelledFarEventNeverCascades) {
  EventScheduler sched;
  bool far = false, near = false;
  auto h = sched.schedule_at(SimTime::seconds(30.0), [&] { far = true; });
  sched.schedule_at(SimTime::milliseconds(1), [&] { near = true; });
  EXPECT_EQ(sched.pending_events(), 2u);
  h.cancel();
  sched.run();
  EXPECT_TRUE(near);
  EXPECT_FALSE(far);
  EXPECT_EQ(sched.executed_events(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  // The cancelled 30s entry must not have dragged the clock forward.
  EXPECT_EQ(sched.now(), SimTime::milliseconds(1));
}

TEST(EventScheduler, DoublingDelaysFireAtExactTimes) {
  // Delays 1us, 2us, 4us, ... 2^20 us (~1.05s) walk an event chain up
  // through every wheel level; each hop must land on its exact timestamp.
  EventScheduler sched;
  int hops = 0;
  std::int64_t expect_ns = 0;
  std::function<void(std::int64_t)> hop = [&](std::int64_t delay_us) {
    expect_ns += delay_us * 1000;
    ASSERT_EQ(sched.now().ns(), expect_ns);
    ++hops;
    if (delay_us < (1 << 20)) {
      sched.schedule_after(SimTime::microseconds(2 * delay_us),
                           [&, delay_us] { hop(2 * delay_us); });
    }
  };
  sched.schedule_after(SimTime::microseconds(1), [&] { hop(1); });
  sched.run();
  EXPECT_EQ(hops, 21);
}

TEST(EventScheduler, StressMatchesReferenceOrdering) {
  // 2000 events over 5 virtual seconds (spanning three wheel levels) with
  // every 7th cancelled: the fire sequence must equal a stable sort of the
  // survivors by timestamp — the heap's contract, kept by the wheel.
  EventScheduler sched;
  Rng rng(42);
  struct Ref {
    std::int64_t when_ns;
    int id;
  };
  std::vector<Ref> refs;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 2000; ++i) {
    const auto when =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 5'000'000'000)));
    auto h = sched.schedule_at(when, [&fired, i] { fired.push_back(i); });
    if (i % 7 == 0) {
      handles.push_back(std::move(h));
    } else {
      refs.push_back({when.ns(), i});
    }
  }
  for (auto& h : handles) h.cancel();
  sched.run();
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.when_ns < b.when_ns; });
  ASSERT_EQ(fired.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) EXPECT_EQ(fired[i], refs[i].id);
  EXPECT_EQ(sched.executed_events(), refs.size());
}

TEST(EventScheduler, RejectsPastScheduling) {
  EventScheduler sched;
  sched.schedule_at(SimTime::milliseconds(5), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(SimTime::milliseconds(1), [] {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Node store: handles, eager cancellation, recycling, and the steady-state
// zero-allocation contract of the event core.
// ---------------------------------------------------------------------------

TEST(EventScheduler, TaskHoldsAPacketInline) {
  static_assert(sizeof(net::Packet) + sizeof(void*) <= Task::kInlineBytes);
  int fired = 0;
  Task t([&fired, p = net::Packet()]() mutable { fired += p.hop_count == 0 ? 1 : 0; });
  Task moved = std::move(t);
  EXPECT_FALSE(t);
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(Task(nullptr));
  EXPECT_FALSE(Task(std::function<void()>{}));
}

TEST(EventScheduler, PostingPacketCallbacksAllocatesNothingInSteadyState) {
  EventScheduler sched;
  net::Packet carried;
  carried.payload = tko::Message::filled(64, 0xAB);
  std::uint64_t delivered = 0;
  auto round = [&] {
    // A datapath-shaped event: an owner pointer plus a whole packet.
    sched.post_after(SimTime::microseconds(3),
                     [&carried, &delivered, p = std::move(carried)]() mutable {
                       ++delivered;
                       carried = std::move(p);
                     });
    sched.run();
  };
  round();  // warm-up: carves the node slab
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) round();
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(delivered, 1001u);
  EXPECT_EQ(carried.payload.size(), 64u);
}

TEST(EventScheduler, RearmingATkoEventAllocatesNothing) {
  EventScheduler sched;
  os::TimerFacility timers(sched);
  int fires = 0;
  tko::Event ev(timers, [&] { ++fires; });
  ev.schedule(SimTime::milliseconds(1));
  sched.run();  // warm-up
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    ev.schedule(SimTime::milliseconds(2));
    ev.schedule(SimTime::milliseconds(1));  // re-arm replaces the pending timer
    sched.run();
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(fires, 1001);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(EventScheduler, HandleCancelledAfterFireLeavesRecycledNodeAlone) {
  EventScheduler sched;
  int first = 0;
  int second = 0;
  auto h = sched.schedule_after(SimTime::microseconds(1), [&] { ++first; });
  sched.run();
  EXPECT_FALSE(h.pending());
  // The fired node is recycled for the next event of its size class; the
  // stale handle must not reach it.
  auto h2 = sched.schedule_after(SimTime::microseconds(1), [&] { ++second; });
  h.cancel();
  h.cancel();
  EXPECT_TRUE(h2.pending());
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(EventScheduler, CancelFromInsideACallback) {
  EventScheduler sched;
  std::vector<int> order;
  EventHandle self;
  EventHandle later;
  EventHandle same_tick;
  self = sched.schedule_at(SimTime::microseconds(5), [&] {
    order.push_back(1);
    self.cancel();  // its own, already-firing event: a no-op
    later.cancel();
    same_tick.cancel();
    EXPECT_FALSE(later.pending());
    EXPECT_EQ(sched.pending_events(), 1u);
  });
  same_tick = sched.schedule_at(SimTime::microseconds(5), [&] { order.push_back(2); });
  later = sched.schedule_at(SimTime::milliseconds(50), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::milliseconds(60), [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  EXPECT_EQ(sched.executed_events(), 2u);
  EXPECT_EQ(sched.now(), SimTime::milliseconds(60));
}

TEST(EventScheduler, PendingEventsExactAfterEagerUnlink) {
  EventScheduler sched;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 10; ++i) {
    hs.push_back(sched.schedule_at(SimTime::microseconds(100 * (i + 1)), [] {}));
  }
  hs.push_back(sched.schedule_at(SimTime::seconds(30.0), [] {}));  // a coarse level
  EXPECT_EQ(sched.pending_events(), 11u);
  hs[3].cancel();
  hs[10].cancel();
  hs[3].cancel();
  EXPECT_EQ(sched.pending_events(), 9u);
  EXPECT_EQ(sched.run_until(SimTime::microseconds(450)), 3u);
  EXPECT_EQ(sched.pending_events(), 6u);
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 9u);
  // The cancelled 30 s event is gone: the clock stops at the last live one.
  EXPECT_EQ(sched.now(), SimTime::microseconds(1000));
}

TEST(EventScheduler, ReentrantPostWhileNodeIsRecycled) {
  // The fired callable's captures are destroyed after it runs; a capture
  // whose destructor posts must get a fresh node, not the one being
  // recycled, and the posted event must fire in order.
  EventScheduler sched;
  std::vector<int> order;
  struct PostOnDestroy {
    EventScheduler* sched;
    std::vector<int>* order;
    bool armed = true;
    PostOnDestroy(EventScheduler* s, std::vector<int>* o) : sched(s), order(o) {}
    PostOnDestroy(PostOnDestroy&& o) noexcept
        : sched(o.sched), order(o.order), armed(std::exchange(o.armed, false)) {}
    ~PostOnDestroy() {
      if (!armed) return;
      auto* o = order;
      sched->post_after(SimTime::microseconds(1), [o] { o->push_back(3); });
    }
  };
  sched.post_at(SimTime::microseconds(1), [&, guard = PostOnDestroy(&sched, &order)] {
    order.push_back(1);
    // Posted from inside the callback, same size class as the firing node.
    sched.post_at(sched.now(), [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.executed_events(), 3u);
}

TEST(EventScheduler, LegacyHeapModeMatchesWheelWithCancellation) {
  // The legacy heap keeps cancelled nodes until they surface; fire order,
  // handle state and teardown must still match the wheel exactly.
  auto run = [](bool heap) {
    set_legacy_heap_mode(heap);
    std::vector<int> fired;
    {
      EventScheduler sched;
      Rng rng(7);
      std::vector<EventHandle> hs;
      for (int i = 0; i < 300; ++i) {
        const auto when =
            SimTime::nanoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 50'000'000)));
        hs.push_back(sched.schedule_at(when, [&fired, &hs, i] {
          fired.push_back(i);
          if (i % 5 == 0) hs[static_cast<std::size_t>((i * 7) % 300)].cancel();
        }));
      }
      for (int i = 0; i < 300; i += 11) hs[static_cast<std::size_t>(i)].cancel();
      EXPECT_FALSE(hs[0].pending());
      sched.run_until(SimTime::milliseconds(30));
      hs.push_back(sched.schedule_at(SimTime::seconds(9.0), [&fired] { fired.push_back(-1); }));
    }  // destroyed with live and cancelled events still queued
    set_legacy_heap_mode(false);
    return fired;
  };
  const auto heap = run(true);
  const auto wheel = run(false);
  EXPECT_FALSE(wheel.empty());
  EXPECT_EQ(heap, wheel);
}

TEST(EventScheduler, DestructionDestroysPendingCallables) {
  auto token = std::make_shared<int>(7);
  {
    EventScheduler sched;
    sched.post_at(SimTime::seconds(1.0), [token] {});
    const EventHandle h = sched.schedule_at(SimTime::seconds(40.0), [token] {});
    EXPECT_TRUE(h.pending());
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(r.uniform_int(5, 5), 5u);
  EXPECT_THROW(r.uniform_int(6, 5), std::invalid_argument);
}

TEST(Rng, BernoulliEdges) {
  Rng r(9);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, GeometricMean) {
  Rng r(15);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(0.25));
  // mean of geometric (failures before success) = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
  EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, ParetoMinimum) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

TEST(Rng, ForkIndependence) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child stream must not replay the parent stream.
  Rng parent2(21);
  (void)parent2.next_u64();  // same position as parent after fork
  EXPECT_NE(child.next_u64(), parent2.next_u64());
}

TEST(Logger, RespectsLevelAndSink) {
  std::vector<std::string> lines;
  Logger::set_sink([&](const std::string& s) { lines.push_back(s); });
  Logger::set_level(LogLevel::kWarn);
  Logger::log(LogLevel::kInfo, SimTime::zero(), "c", "dropped");
  Logger::log(LogLevel::kError, SimTime::milliseconds(1), "c", "kept");
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
  Logger::set_level(LogLevel::kOff);
  Logger::set_sink(nullptr);
}

}  // namespace
}  // namespace adaptive::sim
