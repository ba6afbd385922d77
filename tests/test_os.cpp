// Tests for the OS substrate: buffer pools, the serial CPU model, NIC
// interrupt accounting, and host port demultiplexing.
#include "net/topologies.hpp"
#include "os/buffer_pool.hpp"
#include "os/cpu_model.hpp"
#include "os/host.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

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

namespace adaptive::os {
namespace {

TEST(BufferPool, VariableSizeAllocatesExactly) {
  BufferPool pool(BufferScheme::kVariableSize);
  auto b = pool.allocate(100);
  EXPECT_EQ(b->size(), 100u);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().allocated_bytes, 100u);
  EXPECT_EQ(pool.stats().wasted_bytes, 0u);
}

TEST(BufferPool, FixedSizeRoundsUpAndTracksWaste) {
  BufferPool pool(BufferScheme::kFixedSize, 2048);
  auto b = pool.allocate(100);
  EXPECT_EQ(b->size(), 2048u);
  EXPECT_EQ(pool.stats().wasted_bytes, 1948u);
  auto c = pool.allocate(2049);
  EXPECT_EQ(c->size(), 4096u);
  auto d = pool.allocate(0);
  EXPECT_EQ(d->size(), 2048u);
}

TEST(BufferPool, CopyAccounting) {
  BufferPool pool;
  pool.record_copy(500);
  pool.record_copy(300);
  EXPECT_EQ(pool.stats().copies, 2u);
  EXPECT_EQ(pool.stats().copied_bytes, 800u);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().copies, 0u);
}

TEST(BufferPool, CacheHitAllocatesNothing) {
  BufferPool pool;
  { const BufferRef warm = pool.allocate(512); }
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    BufferRef b = pool.allocate(512);
    b->data()[0] = static_cast<std::uint8_t>(i);
    BufferRef shared = b;  // a second reference costs no control block
    EXPECT_EQ(shared.use_count(), 2);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(pool.stats().allocations, 1001u);
  EXPECT_EQ(pool.stats().frees, 1001u);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
}

TEST(BufferPool, OneBlockBufferLayout) {
  BufferPool pool;
  const BufferRef b = pool.allocate(100);
  EXPECT_EQ(b->size(), 100u);
  // The bytes follow the header in the same block, 16-byte aligned.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b->data()) % 16, 0u);
  EXPECT_EQ(b->data(), reinterpret_cast<const std::uint8_t*>(b.get() + 1));
  const BufferRef loose = Buffer::make(10);  // pool-less
  EXPECT_EQ(loose->size(), 10u);
  EXPECT_EQ(loose.use_count(), 1);
}

TEST(Network, InjectOnCachedRouteAllocatesNothing) {
  sim::EventScheduler sched;
  auto topo = net::make_ethernet_lan(sched, 2);
  auto& net = *topo.network;
  BufferPool pool;
  std::uint64_t got = 0;
  net.set_host_rx(topo.hosts[1], [&](net::Packet&&) { ++got; });
  auto round = [&] {
    net::Packet p;
    p.src = {topo.hosts[0], 1};
    p.dst = {topo.hosts[1], 2};
    p.payload = tko::Message::filled(64, 7, &pool);
    net.inject(std::move(p));
    sched.run();
  };
  for (int i = 0; i < 4; ++i) round();  // warm-up: routes, queues, nodes, pool
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) round();
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(got, 1004u);
}

TEST(CpuModel, InstrTimeMatchesMips) {
  sim::EventScheduler sched;
  CpuConfig cfg;
  cfg.mips = 10.0;  // 10e6 instr/sec -> 100ns per instr
  CpuModel cpu(sched, cfg);
  EXPECT_EQ(cpu.instr_time(1000).ns(), 100'000);
}

TEST(CpuModel, SerialExecutionQueuesWork) {
  sim::EventScheduler sched;
  CpuConfig cfg;
  cfg.mips = 1.0;  // 1 instr = 1 us
  CpuModel cpu(sched, cfg);
  std::vector<sim::SimTime> done;
  cpu.run(1000, [&] { done.push_back(sched.now()); });
  cpu.run(1000, [&] { done.push_back(sched.now()); });
  sched.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::SimTime::milliseconds(1));
  EXPECT_EQ(done[1], sim::SimTime::milliseconds(2));  // serialized, not parallel
  EXPECT_EQ(cpu.stats().instructions, 2000u);
  EXPECT_EQ(cpu.stats().busy, sim::SimTime::milliseconds(2));
}

TEST(CpuModel, CountersAndUtilization) {
  sim::EventScheduler sched;
  CpuConfig cfg;
  cfg.mips = 1.0;
  cfg.interrupt_instr = 100;
  cfg.context_switch_instr = 200;
  CpuModel cpu(sched, cfg);
  cpu.run_interrupt(nullptr);
  cpu.run_context_switch(nullptr);
  cpu.run_copy(400, nullptr);  // 0.25 instr/byte -> 100 instr
  sched.run();
  EXPECT_EQ(cpu.stats().interrupts, 1u);
  EXPECT_EQ(cpu.stats().context_switches, 1u);
  EXPECT_EQ(cpu.stats().instructions, 400u);
  // 400 us busy since t=0; run_until to advance the clock then check.
  sched.run_until(sim::SimTime::milliseconds(1));
  EXPECT_NEAR(cpu.utilization_since(sim::SimTime::zero()), 0.4, 1e-9);
}

class HostFixture : public ::testing::Test {
protected:
  void SetUp() override {
    topo = net::make_ethernet_lan(sched, 2);
    ha = std::make_unique<Host>(*topo.network, topo.hosts[0]);
    hb = std::make_unique<Host>(*topo.network, topo.hosts[1]);
  }
  sim::EventScheduler sched;
  net::Topology topo;
  std::unique_ptr<Host> ha, hb;
};

TEST_F(HostFixture, PortDemuxRoutesByDestinationPort) {
  int on5 = 0, on6 = 0;
  hb->bind_port(5, [&](net::Packet&&) { ++on5; });
  hb->bind_port(6, [&](net::Packet&&) { ++on6; });
  net::Packet p;
  p.src = {ha->node_id(), 1};
  p.dst = {hb->node_id(), 5};
  p.payload = tko::Message::filled(64, 1);
  ha->send(std::move(p));
  sched.run();
  EXPECT_EQ(on5, 1);
  EXPECT_EQ(on6, 0);
  EXPECT_EQ(hb->demux_misses(), 0u);
}

TEST_F(HostFixture, UnboundPortCountsMiss) {
  net::Packet p;
  p.src = {ha->node_id(), 1};
  p.dst = {hb->node_id(), 99};
  p.payload = tko::Message::filled(64, 1);
  ha->send(std::move(p));
  sched.run();
  EXPECT_EQ(hb->demux_misses(), 1u);
}

TEST_F(HostFixture, DoubleBindThrows) {
  hb->bind_port(5, [](net::Packet&&) {});
  EXPECT_THROW(hb->bind_port(5, [](net::Packet&&) {}), std::invalid_argument);
  hb->unbind_port(5);
  EXPECT_NO_THROW(hb->bind_port(5, [](net::Packet&&) {}));
}

TEST_F(HostFixture, EphemeralPortsAreFresh) {
  const auto p1 = ha->allocate_port();
  ha->bind_port(p1, [](net::Packet&&) {});
  const auto p2 = ha->allocate_port();
  EXPECT_NE(p1, p2);
}

TEST_F(HostFixture, NicChargesInterruptsBothWays) {
  hb->bind_port(5, [](net::Packet&&) {});
  net::Packet p;
  p.src = {ha->node_id(), 1};
  p.dst = {hb->node_id(), 5};
  p.payload = tko::Message::filled(64, 1);
  ha->send(std::move(p));
  sched.run();
  EXPECT_EQ(ha->cpu().stats().interrupts, 1u);  // tx interrupt
  EXPECT_EQ(hb->cpu().stats().interrupts, 1u);  // rx interrupt
  EXPECT_EQ(ha->nic().tx_packets(), 1u);
  EXPECT_EQ(hb->nic().rx_packets(), 1u);
}

TEST_F(HostFixture, NicFillsSourceNode) {
  net::Packet seen;
  hb->bind_port(5, [&](net::Packet&& p) { seen = std::move(p); });
  net::Packet p;
  p.src = {9999, 1};  // wrong on purpose; NIC must overwrite
  p.dst = {hb->node_id(), 5};
  p.payload = tko::Message::filled(16, 1);
  ha->send(std::move(p));
  sched.run();
  EXPECT_EQ(seen.src.node, ha->node_id());
}

TEST_F(HostFixture, InterruptCoalescingAmortizesInterrupts) {
  // Rebuild host B with a coalescing NIC (4 packets per interrupt).
  hb.reset();
  NicConfig nic;
  nic.interrupt_coalescing = 4;
  nic.coalesce_timeout = sim::SimTime::milliseconds(1);
  hb = std::make_unique<Host>(*topo.network, topo.hosts[1], CpuConfig{}, nic);

  int got = 0;
  hb->bind_port(5, [&](net::Packet&&) { ++got; });
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.src = {ha->node_id(), 1};
    p.dst = {hb->node_id(), 5};
    p.payload = tko::Message::filled(64, 1);
    ha->send(std::move(p));
  }
  sched.run();
  EXPECT_EQ(got, 8);
  // Eight arrivals, four per interrupt: two rx interrupts (vs eight).
  EXPECT_EQ(hb->cpu().stats().interrupts, 2u);
}

TEST_F(HostFixture, CoalescingTimeoutFlushesPartialBatch) {
  hb.reset();
  NicConfig nic;
  nic.interrupt_coalescing = 16;
  nic.coalesce_timeout = sim::SimTime::microseconds(200);
  hb = std::make_unique<Host>(*topo.network, topo.hosts[1], CpuConfig{}, nic);
  int got = 0;
  hb->bind_port(5, [&](net::Packet&&) { ++got; });
  net::Packet p;
  p.src = {ha->node_id(), 1};
  p.dst = {hb->node_id(), 5};
  p.payload = tko::Message::filled(64, 1);
  ha->send(std::move(p));
  sched.run();
  EXPECT_EQ(got, 1);  // the lone packet was not stranded
  EXPECT_EQ(hb->cpu().stats().interrupts, 1u);
}

TEST_F(HostFixture, TxCoalescingPreservesOrder) {
  ha.reset();
  NicConfig nic;
  nic.interrupt_coalescing = 4;
  ha = std::make_unique<Host>(*topo.network, topo.hosts[0], CpuConfig{}, nic);
  std::vector<std::uint8_t> order;
  hb->bind_port(5, [&](net::Packet&& p) { order.push_back(p.payload.peek(1)[0]); });
  for (std::uint8_t i = 0; i < 8; ++i) {
    net::Packet p;
    p.src = {ha->node_id(), 1};
    p.dst = {hb->node_id(), 5};
    p.payload = tko::Message::filled(64, i);
    ha->send(std::move(p));
  }
  sched.run();
  ASSERT_EQ(order.size(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(ha->cpu().stats().interrupts, 2u);  // two tx batches
}

}  // namespace
}  // namespace adaptive::os
