// perfbench — the simulator's own benchmark: host time and host memory the
// program spends on three workloads, with the simulated results used as the
// output-correctness check and a behaviour fingerprint.
//
//   perfbench --workload <bulk-atm|city-churn|media-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Untraced runs (--trace 0) print the end-to-end metrics. Traced runs
// (--trace 1) print the per-layer metrics: spans around this file's own
// calls into the library, exact counts read from public stats, and layer
// replays that time one module's public function on the inputs the
// workload produces. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md in this directory defines every metric.
#include "adaptive/city.hpp"
#include "adaptive/scenario.hpp"
#include "adaptive/sweep.hpp"
#include "adaptive/world.hpp"
#include "mantts/policy.hpp"
#include "mantts/qos_contract.hpp"
#include "mantts/synthesis_cache.hpp"
#include "mantts/transform.hpp"
#include "mantts/tsc.hpp"
#include "net/topologies.hpp"
#include "os/buffer_pool.hpp"
#include "sim/fault_plan.hpp"
#include "tko/checksum.hpp"
#include "tko/pdu.hpp"
#include "tko/session_table.hpp"
#include "unites/conformance.hpp"
#include "unites/metric.hpp"

#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new in the process (library and
// benchmark, every thread) bumps one relaxed counter. The per-layer
// os.allocs_per_* metrics are deltas of it.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace adaptive;

namespace {

using Clock = std::chrono::steady_clock;

/// Host CPU seconds of the whole process (every thread, user and system).
/// The workload timings use it rather than wall time: on a shared VM the
/// wall clock also counts time the hypervisor gave to other guests (steal),
/// which the program did not spend.
double cpu_now() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Process memory, read from /proc/self (Linux).
std::uint64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

/// RSS after handing freed heap back to the kernel, so a delta taken from
/// it counts what the next phase allocates, not what earlier phases freed.
std::uint64_t trimmed_rss_bytes() {
  malloc_trim(0);
  return rss_bytes();
}

// ---------------------------------------------------------------------------
// Spans around the benchmark's calls into the library: kept in memory,
// written once at exit. Only the main thread records.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
};

class Tracer {
public:
  void enable() { on_ = true; }
  void disable() { on_ = false; }
  [[nodiscard]] bool on() const { return on_; }

  int begin(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total and self time (span minus the part its children cover) of
  /// every span with this name, in seconds.
  [[nodiscard]] double total(const char* name) const {
    double t = 0;
    for (const auto& s : spans_) {
      if (std::strcmp(s.name, name) == 0) t += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    return t;
  }
  /// Total time of spans with this name that run inside a span named
  /// `ancestor`.
  [[nodiscard]] double total_within(const char* name, const char* ancestor) const {
    double t = 0;
    for (const auto& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      for (int p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
        if (std::strcmp(spans_[static_cast<std::size_t>(p)].name, ancestor) == 0) {
          t += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
          break;
        }
      }
    }
    return t;
  }
  [[nodiscard]] std::size_t count(const char* name) const {
    return static_cast<std::size_t>(std::count_if(
        spans_.begin(), spans_.end(), [&](const Span& s) { return std::strcmp(s.name, name) == 0; }));
  }
  [[nodiscard]] double self(const char* name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    double t = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        t += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child[i]) * 1e-9;
      }
    }
    return t;
  }

  /// One line per span name: count, total and self time.
  void print_summary() const {
    std::vector<const char*> names;
    for (const auto& s : spans_) {
      if (std::none_of(names.begin(), names.end(), [&](const char* n) { return std::strcmp(n, s.name) == 0; })) {
        names.push_back(s.name);
      }
    }
    for (const char* n : names) {
      std::printf("span %-24s n=%-8zu total %10.6f s  self %10.6f s\n", n, count(n), total(n), self(n));
    }
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream f(path);
    f << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
    }
    f << "\n]\n";
  }

private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class ScopedSpan {
public:
  explicit ScopedSpan(const char* name) : idx_(g_tracer.begin(name)) {}
  ~ScopedSpan() { g_tracer.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  int idx_;
};

// ---------------------------------------------------------------------------
// Replay timing: run `batch` ops `rounds` times, return the median ns/op.
double time_per_op(std::size_t ops, const std::function<void()>& batch, int rounds = 5) {
  std::vector<double> ns;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    batch();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// ---------------------------------------------------------------------------
// Per-instance record: one complete unit of a workload's work.
struct Instance {
  // Host CPU seconds (cpu_now).
  double total_s = 0;  ///< whole instance, set-up to teardown
  double run_s = 0;    ///< the phase the throughput metrics divide by
  std::uint64_t payload_bytes = 0;  ///< application payload delivered in order
  std::uint64_t opens = 0;          ///< driver-side opens completed
  std::uint64_t scenarios = 1;
  double rss_per_session = 0;       ///< bytes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;  ///< simulated behaviour; identical for one seed
  std::string counts;       ///< exact host-side counts; identical for one seed
  std::vector<std::string> check_errors;

  // Exact counts for the per-layer metrics.
  std::uint64_t events = 0;
  std::uint64_t pdus = 0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t copies = 0;
  std::uint64_t units = 0;
  std::uint64_t units_delivered = 0;
  std::uint64_t retx = 0;
  std::uint64_t pool_high_water = 0;
  std::uint64_t table_ops = 0;
  std::uint64_t table_max_probe = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t resyntheses = 0;
  std::uint64_t repo_samples = 0;
  std::uint64_t conformance_events = 0;
  std::uint64_t checksummed_bytes = 0;
  std::size_t pending_mid = 0;
  std::size_t peak_sessions = 0;
  double delivery_p50_ms = 0;
};

/// Inputs a layer replay needs from the workload.
struct ReplayInputs {
  World::TopologyFactory topology;  ///< the workload's (seeded) topology
  mantts::Acd acd;
  mantts::NetworkStateDescriptor desc;
  std::size_t segment_bytes = 64;
  std::size_t message_bytes = 64;
  tko::sa::SessionConfig scs;
  std::vector<std::pair<net::NodeId, net::NodeId>> routes;
};

class Workload {
public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// The end-to-end metric this workload exists for (linearity check).
  [[nodiscard]] virtual const char* primary() const = 0;
  /// One set-up as the user pays it, timed; the objects are then dropped.
  [[nodiscard]] virtual double setup_once() = 0;
  /// One complete instance at `scale` times the workload's work.
  [[nodiscard]] virtual Instance run(int scale) = 0;
  /// The pass the traced run records spans and exact counts on.
  [[nodiscard]] virtual Instance traced_pass() { return run(1); }
  /// Once per process: checks that need a second configuration.
  virtual void extra_checks(std::vector<std::string>&) {}
  /// Per-layer: inputs for the replays (built from a fresh World).
  [[nodiscard]] virtual ReplayInputs replay_inputs() = 0;
  /// The span whose time the layer budgets must account for.
  [[nodiscard]] virtual const char* blocking_span() const = 0;
  /// Spans inside the blocking span that drive the scheduler (sim.run_frac).
  [[nodiscard]] virtual std::vector<const char*> run_spans() const = 0;
};

std::uint64_t world_pdus(World& w) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < w.host_count(); ++i) n += w.host(i).nic().tx_packets();
  return n;
}

// ===========================================================================
// bulk-atm: 8 host pairs over the 155 Mb/s ATM WAN, 16 MiB each, pinned SCS.
class BulkAtm final : public Workload {
public:
  explicit BulkAtm(std::uint64_t seed) : seed_(seed) {
    std::mt19937_64 rng(seed);
    pattern_.resize(kUnitBytes);
    for (auto& b : pattern_) b = static_cast<std::uint8_t>(rng());
  }
  const char* name() const override { return "bulk-atm"; }
  const char* primary() const override { return "goodput_MBps"; }
  const char* blocking_span() const override { return "bulk.transfer"; }
  std::vector<const char*> run_spans() const override { return {"sim.run_for"}; }

  static constexpr std::size_t kPairs = 8;
  static constexpr std::size_t kFileBytes = 16u << 20;
  static constexpr std::size_t kUnitBytes = 16u << 10;

  static tko::sa::SessionConfig scs() {
    tko::sa::SessionConfig c;
    c.connection = tko::sa::ConnectionScheme::kImplicit;
    c.transmission = tko::sa::TransmissionScheme::kSlidingWindow;
    c.recovery = tko::sa::RecoveryScheme::kSelectiveRepeat;
    c.detection = tko::sa::DetectionScheme::kInternet16Trailer;
    c.ack = tko::sa::AckScheme::kEveryN;
    c.ack_every_n = 8;
    c.message_oriented = true;
    c.window_pdus = 16;
    c.segment_bytes = 8192;
    return c;
  }

  std::unique_ptr<World> make_world() const {
    os::NicConfig nic;
    nic.interrupt_coalescing = 8;
    nic.coalesce_timeout = sim::SimTime::microseconds(200);
    const std::uint64_t seed = seed_;
    return std::make_unique<World>(
        [seed](sim::EventScheduler& s) { return net::make_atm_wan(s, kPairs, seed); },
        os::CpuConfig{}, mantts::ResourceLimits{}, nic);
  }

  /// Per-pair receiver state: order and content checks on every unit.
  struct Sink {
    std::uint64_t next = 0;
    std::uint64_t bytes = 0;
    std::uint64_t bad = 0;  ///< out of order, wrong size or wrong content
    std::uint64_t delivery_ns_sum = 0;
    std::vector<std::int64_t> delivery_ns;
    tko::TransportSession* session = nullptr;
  };

  struct Established {
    std::unique_ptr<World> world;
    std::vector<tko::TransportSession*> senders;
    std::vector<std::unique_ptr<Sink>> sinks;
  };

  Established establish() {
    Established e;
    {
      ScopedSpan sp("adaptive.world_build");
      e.world = make_world();
    }
    World& w = *e.world;
    const tko::sa::SessionConfig cfg = scs();
    for (std::size_t i = 0; i < kPairs; ++i) {
      e.sinks.push_back(std::make_unique<Sink>());
      Sink* sink = e.sinks.back().get();
      World* wp = &w;
      const std::uint8_t* pat = pattern_.data();
      const std::size_t pair = i;
      w.transport(2 * i + 1).set_acceptor([sink, wp, pat, pair](tko::TransportSession& s) {
        sink->session = &s;
        s.set_deliver([sink, wp, pat, pair](tko::Message&& m) {
          bool ok = m.size() == kUnitBytes;
          std::uint64_t hdr[2] = {0, 0};
          if (ok) {
            const auto pre = m.contiguous_prefix(sizeof hdr);
            if (pre.size() == sizeof hdr) {
              std::memcpy(hdr, pre.data(), sizeof hdr);
            } else {
              const auto b = m.peek(sizeof hdr);
              std::memcpy(hdr, b.data(), sizeof hdr);
            }
            ok = hdr[0] == pair && hdr[1] == sink->next;
          }
          if (ok) {
            std::size_t off = 0;
            m.for_each_segment([&](std::span<const std::uint8_t> seg) {
              const std::size_t skip = off < sizeof hdr ? std::min(seg.size(), sizeof hdr - off) : 0;
              if (seg.size() > skip &&
                  std::memcmp(seg.data() + skip, pat + off + skip, seg.size() - skip) != 0) {
                ok = false;
              }
              off += seg.size();
            });
          }
          if (!ok) {
            ++sink->bad;
            return;
          }
          ++sink->next;
          sink->bytes += m.size();
          sink->delivery_ns.push_back(wp->now().ns());
        });
      });
      ScopedSpan sp("tko.open");
      e.senders.push_back(&w.transport(2 * i).open({w.transport_address(2 * i + 1)}, cfg));
    }
    ScopedSpan sp("sim.run_for");
    w.run_for(sim::SimTime::milliseconds(100));
    return e;
  }

  double setup_once() override {
    const auto t0 = cpu_now();
    Established e = establish();
    return cpu_now() - t0;
  }

  Instance run(int scale) override {
    Instance in;
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t rss0 = trimmed_rss_bytes();
    const auto t0 = cpu_now();
    Established e = establish();
    World& w = *e.world;
    const auto t1 = cpu_now();

    const std::uint64_t units_per_pair = static_cast<std::uint64_t>(scale) * kFileBytes / kUnitBytes;
    const sim::SimTime submit_at = w.now();
    std::uint64_t rejected = 0;
    double rss_probe_s = 0;
    {
      ScopedSpan transfer("bulk.transfer");
      // Closed loop: the whole file is offered at once, then the run goes
      // on until every unit is delivered.
      for (std::size_t i = 0; i < kPairs; ++i) {
        tko::TransportSession& s = *e.senders[i];
        for (std::uint64_t u = 0; u < units_per_pair; ++u) {
          tko::Message m(s.buffer_pool());
          auto span = m.append_uninit(kUnitBytes);
          std::memcpy(span.data(), pattern_.data(), kUnitBytes);
          const std::uint64_t hdr[2] = {i, u};
          std::memcpy(span.data(), hdr, sizeof hdr);
          ScopedSpan sp("tko.send");
          if (!s.send(std::move(m))) ++rejected;
        }
      }
      {
        // Memory per live session while the senders hold the offered file.
        const auto p0 = cpu_now();
        std::size_t live = 0;
        for (std::size_t i = 0; i < w.host_count(); ++i) live += w.transport(i).session_count();
        const std::uint64_t rss1 = rss_bytes();
        in.rss_per_session = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                             static_cast<double>(std::max<std::size_t>(1, live));
        in.peak_sessions = live;
        rss_probe_s = cpu_now() - p0;
      }
      const std::uint64_t expect = units_per_pair * kPairs;
      auto delivered = [&] {
        std::uint64_t n = 0;
        for (const auto& s : e.sinks) n += s->next;
        return n;
      };
      const sim::SimTime deadline = w.now() + sim::SimTime::seconds(120) * scale;
      while (delivered() < expect && w.now() < deadline) {
        ScopedSpan sp("sim.run_for");
        w.run_for(sim::SimTime::milliseconds(100));
        in.pending_mid = std::max(in.pending_mid, w.scheduler().pending_events());
      }
    }
    const auto t2 = cpu_now();
    in.run_s = t2 - t1 - rss_probe_s;

    // Harvest before teardown, while the sessions are still live.
    std::uint64_t units = 0, bytes = 0, bad = 0, tx = 0, rx = 0, retx = 0, cks = 0, lat_sum = 0;
    std::vector<std::int64_t> lat;
    for (std::size_t i = 0; i < kPairs; ++i) {
      const Sink& s = *e.sinks[i];
      units += s.next;
      bytes += s.bytes;
      bad += s.bad;
      for (const auto t : s.delivery_ns) {
        lat.push_back(t - submit_at.ns());
        lat_sum += static_cast<std::uint64_t>(t - submit_at.ns());
      }
      tx += e.senders[i]->stats().pdus_sent;
      rx += e.senders[i]->stats().pdus_received;
      retx += e.senders[i]->context().reliability().stats().retransmissions;
      if (s.session != nullptr) cks += s.session->stats().checksum_failures;
    }
    const unites::ResourceSnapshot snap = w.resource_snapshot();
    for (std::size_t i = 0; i < w.host_count(); ++i) {
      const auto& ts = w.transport(i).table_stats();
      in.table_ops += ts.inserts + ts.erases + ts.finds;
      in.table_max_probe = std::max<std::uint64_t>(in.table_max_probe, ts.max_probe);
      const auto& cs = w.mantts(i).synthesis_cache().stats();
      in.cache_hits += cs.hits;
      in.cache_misses += cs.misses;
      in.resyntheses += w.mantts(i).stats().resyntheses;
    }
    in.events = w.scheduler().executed_events();
    in.pdus = world_pdus(w);
    in.pool_allocs = snap.total_allocations();
    in.copies = snap.total_copies();
    in.pool_high_water = snap.pool_high_water_bytes();
    in.retx = retx;
    in.units = units_per_pair * kPairs;
    in.repo_samples = w.repository().total_samples();
    in.conformance_events = 0;  // sessions opened on the transport carry no contract
    in.checksummed_bytes = 2 * bytes;  // trailer computed at the sender, verified at the receiver
    std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(lat.size() / 2), lat.end());
    in.delivery_p50_ms = lat.empty() ? 0 : static_cast<double>(lat[lat.size() / 2]) / 1e6;

    char fp[512];
    std::snprintf(fp, sizeof fp,
                  "units=%" PRIu64 "/%" PRIu64 " bytes=%" PRIu64 " pdus=%" PRIu64 "/%" PRIu64
                  " retx=%" PRIu64 " cksum_fail=%" PRIu64 " events=%" PRIu64 " now=%" PRIi64
                  " lat_sum_ns=%" PRIu64,
                  units, in.units, bytes, tx, rx, retx, cks, in.events, w.now().ns(), lat_sum);
    in.fingerprint = fp;

    {
      ScopedSpan sp("bulk.teardown");
      for (auto* s : e.senders) s->close();
      w.run_for(sim::SimTime::seconds(1));
      e.world.reset();
    }
    in.total_s = cpu_now() - t0 - rss_probe_s;
    in.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    in.payload_bytes = bytes;
    in.opens = kPairs;
    in.attempted = in.units;
    in.failed = in.units - units + rejected;
    if (units != in.units) in.check_errors.push_back("bulk-atm: not every unit delivered in order");
    if (bad != 0) in.check_errors.push_back("bulk-atm: corrupted or misordered units reached the application");
    if (rejected != 0) in.check_errors.push_back("bulk-atm: send() rejected units");
    char counts[256];
    std::snprintf(counts, sizeof counts,
                  "allocs=%" PRIu64 " events=%" PRIu64 " copies=%" PRIu64 " retx=%" PRIu64
                  " pool_allocs=%" PRIu64,
                  in.allocs, in.events, in.copies, in.retx, in.pool_allocs);
    in.counts = counts;
    return in;
  }

  ReplayInputs replay_inputs() override {
    ReplayInputs r;
    auto w = make_world();
    const std::uint64_t seed = seed_;
    r.topology = [seed](sim::EventScheduler& s) { return net::make_atm_wan(s, kPairs, seed); };
    r.acd = app::make_workload(app::Table1App::kFileTransfer, seed_).acd;
    r.acd.remotes = {w->transport_address(1)};
    r.desc = w->mantts(0).nmi().sample(w->node(1));
    r.segment_bytes = 8192;
    r.message_bytes = kUnitBytes;
    r.scs = scs();
    for (std::size_t i = 0; i < kPairs; ++i) r.routes.push_back({w->node(2 * i), w->node(2 * i + 1)});
    return r;
  }

private:
  std::uint64_t seed_;
  std::vector<std::uint8_t> pattern_;
};

// ===========================================================================
// city-churn: run_city on an 8-host ethernet LAN, 30 000 driver sessions.
class CityChurn final : public Workload {
public:
  explicit CityChurn(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "city-churn"; }
  const char* primary() const override { return "sessions_per_s"; }
  const char* blocking_span() const override { return "city.run"; }
  std::vector<const char*> run_spans() const override { return {"adaptive.run_city"}; }

  CityOptions options(int scale) const {
    CityOptions o;
    o.sessions = 30'000 * static_cast<std::size_t>(scale);
    o.churn_cycles = 6'000 * static_cast<std::size_t>(scale);
    o.messages_per_session = 2;
    o.message_bytes = 64;
    o.acd_variants = 1;
    o.ramp = sim::SimTime::seconds(30);
    o.hold = sim::SimTime::seconds(10);
    o.drain = sim::SimTime::seconds(40);
    o.seed = seed_;
    return o;
  }

  std::unique_ptr<World> make_world(const CityOptions& o) const {
    ScopedSpan sp("adaptive.world_build");
    const std::uint64_t seed = seed_;
    return std::make_unique<World>(
        [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, seed); },
        os::CpuConfig{}, city_limits(o));
  }

  double setup_once() override {
    const CityOptions o = options(1);
    const auto t0 = cpu_now();
    auto w = make_world(o);
    return cpu_now() - t0;
  }

  Instance run(int scale) override {
    Instance in;
    const CityOptions o = options(scale);
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = cpu_now();
    auto w = make_world(o);

    // Mid-hold probe, posted before the driver's own events: RSS and the
    // live transport sessions at the plateau.
    const std::uint64_t rss0 = trimmed_rss_bytes();
    double probe_s = 0;
    World* wp = w.get();
    w->scheduler().post_at(w->now() + o.ramp + o.hold / 2, [&in, &probe_s, wp, rss0] {
      const auto p0 = cpu_now();
      std::size_t live = 0;
      for (std::size_t i = 0; i < wp->host_count(); ++i) live += wp->transport(i).session_count();
      const std::uint64_t rss1 = rss_bytes();
      in.rss_per_session = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                           static_cast<double>(std::max<std::size_t>(1, live));
      in.peak_sessions = live;
      in.pending_mid = wp->scheduler().pending_events();
      probe_s = cpu_now() - p0;
    });
    const auto t2 = cpu_now();
    CityOutcome out;
    {
      ScopedSpan blocking("city.run");
      ScopedSpan sp("adaptive.run_city");
      out = run_city(*w, o);
    }
    const auto t3 = cpu_now();
    in.run_s = t3 - t2 - probe_s;

    const unites::ResourceSnapshot snap = w->resource_snapshot();
    in.events = w->scheduler().executed_events();
    in.pdus = world_pdus(*w);
    in.pool_allocs = snap.total_allocations();
    in.copies = snap.total_copies();
    in.pool_high_water = out.pool_high_water_bytes;
    in.retx = static_cast<std::uint64_t>(
        std::llround(w->repository().systemwide_sum(unites::metrics::kRetransmissions)));
    in.units = out.messages_sent;
    in.table_ops = out.table.inserts + out.table.erases + out.table.finds;
    in.table_max_probe = out.table.max_probe;
    in.cache_hits = out.cache.hits;
    in.cache_misses = out.cache.misses;
    for (std::size_t i = 0; i < w->host_count(); ++i) in.resyntheses += w->mantts(i).stats().resyntheses;
    in.repo_samples = w->repository().total_samples();
    in.conformance_events = out.messages_sent + out.messages_delivered;
    in.checksummed_bytes = 2 * out.messages_delivered * o.message_bytes;
    in.delivery_p50_ms = out.latency_ns.p50() / 1e6;

    const std::int64_t leak = static_cast<std::int64_t>(out.pool_live_bytes_final) -
                              static_cast<std::int64_t>(out.pool_live_bytes_baseline);
    char fp[512];
    std::snprintf(fp, sizeof fp,
                  "opened=%" PRIu64 " refused=%" PRIu64 " closed=%" PRIu64 " reaped=%" PRIu64
                  " peak=%zu sent=%" PRIu64 " delivered=%" PRIu64 " rejected=%" PRIu64
                  " lat_p50=%.0f lat_p99=%.0f hits=%" PRIu64 " misses=%" PRIu64
                  " probe_max=%zu events=%" PRIu64 " now=%" PRIi64,
                  out.opened, out.refused, out.closed, out.reaped, out.peak_transport_sessions,
                  out.messages_sent, out.messages_delivered, out.send_rejected,
                  out.latency_ns.p50(), out.latency_ns.p99(), out.cache.hits, out.cache.misses,
                  out.table.max_probe, in.events, w->now().ns());
    in.fingerprint = fp;

    {
      ScopedSpan sp("city.teardown");
      w.reset();
    }
    in.total_s = cpu_now() - t0 - probe_s;
    in.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    in.payload_bytes = out.messages_delivered * o.message_bytes;
    in.opens = out.opened;
    const std::uint64_t expect_opens = o.sessions + o.churn_cycles;
    in.attempted = expect_opens + out.messages_sent + out.send_rejected;
    in.failed = out.refused + out.send_rejected +
                (out.messages_sent > out.messages_delivered ? out.messages_sent - out.messages_delivered : 0);
    if (out.opened != expect_opens) in.check_errors.push_back("city-churn: not every open completed");
    if (out.residual_sessions != 0) in.check_errors.push_back("city-churn: residual sessions after drain");
    if (leak != 0) in.check_errors.push_back("city-churn: buffer-pool leak after drain");
    char counts[256];
    std::snprintf(counts, sizeof counts,
                  "allocs=%" PRIu64 " events=%" PRIu64 " copies=%" PRIu64 " retx=%" PRIu64
                  " cache_hits=%" PRIu64,
                  in.allocs, in.events, in.copies, in.retx, in.cache_hits);
    in.counts = counts;
    return in;
  }

  ReplayInputs replay_inputs() override {
    ReplayInputs r;
    const CityOptions o = options(1);
    auto w = make_world(o);
    const std::uint64_t seed = seed_;
    r.topology = [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, seed); };
    // The ACD run_city opens with (homogeneous shape).
    r.acd.remotes = {w->transport_address(1)};
    r.acd.quantitative.average_throughput = sim::Rate::kbps(64);
    r.acd.quantitative.peak_throughput = sim::Rate::kbps(64);
    r.acd.quantitative.duration = sim::SimTime::seconds(2);
    r.desc = w->mantts(0).nmi().sample(w->node(1));
    r.segment_bytes = o.message_bytes;
    r.message_bytes = o.message_bytes;
    r.scs = mantts::derive_scs(r.acd, r.desc);
    for (std::size_t k = 0; k < 8; ++k) r.routes.push_back({w->node(k), w->node((k + 1) % 8)});
    return r;
  }

private:
  std::uint64_t seed_;
};

// ===========================================================================
// media-mix: four scenario kinds, equal seed counts, each through run_sweep
// at jobs=2.
class MediaMix final : public Workload {
public:
  explicit MediaMix(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "media-mix"; }
  const char* primary() const override { return "scenarios_per_s"; }
  const char* blocking_span() const override { return "media.replay"; }
  std::vector<const char*> run_spans() const override { return {"adaptive.run_scenario"}; }

  static constexpr std::size_t kSeedsPerKind = 16;
  static constexpr const char* kFaultPlan =
      "flap@2+0.3:link=0,count=3,period=1;burst@1+4:link=0,ber=1e-4";

  struct Kind {
    const char* label;
    const char* topology;
    app::Table1App app;
    RunOptions::Mode mode;
  };
  static const std::vector<Kind>& kinds() {
    static const std::vector<Kind> k = {
        {"voice", "congested-wan", app::Table1App::kVoice, RunOptions::Mode::kManntts},
        {"video", "congested-wan", app::Table1App::kVideoCompressed, RunOptions::Mode::kManntts},
        {"teleconference", "campus", app::Table1App::kTeleconference, RunOptions::Mode::kManntts},
        {"file-transfer", "ethernet", app::Table1App::kFileTransfer,
         RunOptions::Mode::kMantttsAdaptive},
    };
    return k;
  }

  static World::TopologyFactory topology(const std::string& name, std::uint64_t seed) {
    if (name == "congested-wan") {
      return [seed](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, seed); };
    }
    if (name == "campus") {
      return [seed](sim::EventScheduler& s) { return net::make_multicast_campus(s, 8, seed); };
    }
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 4, seed); };
  }

  RunOptions options(const Kind& k) const {
    RunOptions o;
    o.application = k.app;
    o.mode = k.mode;
    o.duration = sim::SimTime::seconds(5);
    o.drain = sim::SimTime::seconds(3);
    o.collect_metrics = true;
    if (k.app == app::Table1App::kTeleconference) o.multicast_members = {1, 2, 3, 4, 5, 6, 7};
    if (k.app == app::Table1App::kFileTransfer) {
      std::vector<std::string> errors;
      o.faults = sim::parse_fault_plan(kFaultPlan, &errors);
      o.rules = mantts::PolicyEngine::fault_recovery_rules();
    }
    return o;
  }

  /// The seed block for this run: contiguous, chosen by the benchmark
  /// seed, never filtered.
  std::vector<std::uint64_t> seeds(int scale) const {
    const std::size_t n = kSeedsPerKind * static_cast<std::size_t>(scale);
    std::vector<std::uint64_t> s;
    for (std::size_t i = 0; i < n; ++i) s.push_back(seed_ * kSeedsPerKind * 2 + 1 + i);
    return s;
  }

  SweepResult sweep(const Kind& k, int scale, std::size_t jobs) const {
    SweepConfig sc;
    const std::string topo = k.topology;
    sc.topology = [topo](std::uint64_t seed) { return topology(topo, seed); };
    sc.base = options(k);
    sc.seeds = seeds(scale);
    sc.jobs = jobs;
    sc.capture_trace = true;
    return run_sweep(sc);
  }

  double setup_once() override {
    // One World per topology of the mix.
    const auto t0 = cpu_now();
    for (const char* t : {"congested-wan", "campus", "ethernet"}) {
      ScopedSpan sp("adaptive.world_build");
      World w(topology(t, seed_));
    }
    return cpu_now() - t0;
  }

  Instance run(int scale) override {
    Instance in;
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = cpu_now();
    std::string fp;
    std::uint64_t violations = 0, refused = 0, delivered_units = 0, sessions = 0;
    for (const Kind& k : kinds()) {
      SweepResult r;
      {
        ScopedSpan sp("adaptive.run_sweep");
        r = sweep(k, scale, 2);
      }
      std::uint64_t units = 0, viol = 0, ref = 0;
      for (const auto& s : r.runs) {
        units += s.units_received;
        viol += s.violations != 0 ? 1 : 0;
        ref += s.refused ? 1 : 0;
        in.copies += s.copies;
        sessions += s.sessions;
        in.pool_allocs += s.allocations;
        in.pool_high_water = std::max(in.pool_high_water, s.pool_high_water_bytes);
        in.resyntheses += s.resyntheses;
        in.units += s.units_sent;
      }
      in.repo_samples += r.merged.total_samples();
      violations += viol;
      refused += ref;
      delivered_units += units;
      char line[256];
      std::snprintf(line, sizeof line, "%s[digest=%016" PRIx64 " units=%" PRIu64 " viol=%" PRIu64
                    " refused=%" PRIu64 " samples=%" PRIu64 "] ",
                    k.label, r.trace_digest, units, viol, ref, r.merged.total_samples());
      fp += line;
    }
    in.total_s = cpu_now() - t0;
    in.run_s = in.total_s;
    in.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    in.scenarios = kinds().size() * seeds(scale).size();
    // The sweep summaries carry units, not bytes: the delivered bytes come
    // from the serial pass over the same seeds, which must have delivered
    // exactly the same units.
    if (scale == 1) {
      in.payload_bytes = serial_.payload_bytes;
      if (delivered_units != serial_.units_delivered) {
        in.check_errors.push_back("media-mix: sweep and serial pass delivered different units");
      }
    }
    in.opens = sessions;
    in.attempted = in.scenarios;
    in.failed = refused + violations;
    in.fingerprint = fp;
    in.rss_per_session = rss_probe_;
    // Heap allocations are left out: with two sweep workers the total
    // varies by about one between instances (thread scheduling). The
    // serial pass's count is exact.
    char counts[256];
    std::snprintf(counts, sizeof counts,
                  "copies=%" PRIu64 " pool_allocs=%" PRIu64 " resyntheses=%" PRIu64,
                  in.copies, in.pool_allocs, in.resyntheses);
    in.counts = counts;
    return in;
  }

  /// Memory per live session: every scenario of the seed block, each on a
  /// World perfbench owns and probed at mid-workload. Summing growth and
  /// sessions over the block keeps the 4 KiB page granularity and the
  /// per-scenario differences small against the total.
  void probe_rss() {
    std::uint64_t grown = 0, sessions = 0;
    for (const Kind& k : kinds()) {
      for (const std::uint64_t seed : seeds(1)) {
        World w(topology(k.topology, seed));
        const std::uint64_t rss0 = trimmed_rss_bytes();
        RunOptions o = options(k);
        o.seed = seed;
        World* wp = &w;
        w.scheduler().post_at(w.now() + sim::SimTime::seconds(2) + o.duration / 2,
                              [&grown, &sessions, wp, rss0] {
                                for (std::size_t i = 0; i < wp->host_count(); ++i) {
                                  sessions += wp->transport(i).session_count();
                                }
                                const std::uint64_t rss1 = rss_bytes();
                                grown += rss1 > rss0 ? rss1 - rss0 : 0;
                              });
        const RunOutcome out = run_scenario(w, o);
        keep(out);
      }
    }
    rss_probe_ = static_cast<double>(grown) / static_cast<double>(std::max<std::uint64_t>(1, sessions));
  }

  void extra_checks(std::vector<std::string>& errors) override {
    probe_rss();
    serial_ = replay_serial();
    // jobs=1 and jobs=2 sweeps must merge to identical trace digests.
    for (const Kind& k : kinds()) {
      const SweepResult a = sweep(k, 1, 1);
      const SweepResult b = sweep(k, 1, 2);
      if (a.trace_digest != b.trace_digest) {
        errors.push_back(std::string("media-mix: jobs=1 and jobs=2 trace digests differ for ") + k.label);
      }
    }
  }

  Instance traced_pass() override { return replay_serial(); }

  /// The sweep's per-seed work (a fresh World, then run_scenario) driven
  /// serially from here, so spans and exact counts are visible.
  Instance replay_serial() {
    Instance in;
    in.scenarios = 0;
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = cpu_now();
    ScopedSpan all("media.replay");
    std::vector<std::int64_t> lat;
    for (const Kind& k : kinds()) {
      for (const std::uint64_t seed : seeds(1)) {
        std::unique_ptr<World> w;
        {
          ScopedSpan sp("adaptive.world_build");
          w = std::make_unique<World>(topology(k.topology, seed));
        }
        RunOptions o = options(k);
        o.seed = seed;
        World* wp = w.get();
        w->scheduler().post_at(w->now() + sim::SimTime::seconds(2) + o.duration / 2, [&in, wp] {
          in.pending_mid = std::max(in.pending_mid, wp->scheduler().pending_events());
        });
        RunOutcome out;
        {
          ScopedSpan sp("adaptive.run_scenario");
          out = run_scenario(*w, o);
        }
        in.events += w->scheduler().executed_events();
        in.pdus += world_pdus(*w);
        in.pool_allocs += out.resource.total_allocations();
        in.copies += out.resource.total_copies();
        in.pool_high_water = std::max(in.pool_high_water, out.resource.pool_high_water_bytes());
        in.retx += out.reliability.retransmissions;
        in.units += out.source.units_sent;
        in.opens += out.resource.sessions.size();
        for (std::size_t i = 0; i < w->host_count(); ++i) {
          const auto& ts = w->transport(i).table_stats();
          in.table_ops += ts.inserts + ts.erases + ts.finds;
          in.table_max_probe = std::max<std::uint64_t>(in.table_max_probe, ts.max_probe);
          const auto& cs = w->mantts(i).synthesis_cache().stats();
          in.cache_hits += cs.hits;
          in.cache_misses += cs.misses;
          in.resyntheses += w->mantts(i).stats().resyntheses;
        }
        in.repo_samples += w->repository().total_samples();
        in.conformance_events += out.source.units_sent + out.sink.units_received;
        in.checksummed_bytes += 2 * out.sink.bytes_received;
        in.payload_bytes += out.sink.bytes_received;
        in.units_delivered += out.sink.units_received;
        in.failed += (out.refused || !out.oracle.ok()) ? 1 : 0;
        for (const double s : out.sink.latencies_sec) lat.push_back(std::llround(s * 1e9));
        ++in.scenarios;
        in.peak_sessions = std::max<std::size_t>(in.peak_sessions, out.resource.sessions.size());
        ScopedSpan sp("media.teardown");
        w.reset();
      }
    }
    in.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    in.run_s = cpu_now() - t0;
    in.attempted = in.scenarios;
    if (!lat.empty()) {
      std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(lat.size() / 2), lat.end());
      in.delivery_p50_ms = static_cast<double>(lat[lat.size() / 2]) / 1e6;
    }
    return in;
  }

  ReplayInputs replay_inputs() override {
    ReplayInputs r;
    r.topology = topology("congested-wan", seed_);
    World w(r.topology);
    r.acd = app::make_workload(app::Table1App::kVoice, seed_).acd;
    r.acd.remotes = {w.transport_address(1)};
    r.desc = w.mantts(0).nmi().sample(w.node(1));
    r.segment_bytes = 64;  // voice: the smallest units of the mix
    r.message_bytes = 64;
    r.scs = mantts::derive_scs(r.acd, r.desc);
    for (std::size_t i = 0; i < w.host_count(); ++i) {
      for (std::size_t j = 0; j < w.host_count(); ++j) {
        if (i != j) r.routes.push_back({w.node(i), w.node(j)});
      }
    }
    return r;
  }

private:
  std::uint64_t seed_;
  double rss_probe_ = 0;
  Instance serial_;
};

// ===========================================================================
// Layer replays.
struct Replays {
  double sim_ns_per_event = 0;
  double pool_ns_per_alloc = 0;
  double route_ns_per_lookup = 0;
  double checksum_ns_per_KiB = 0;
  double codec_ns_64 = 0;
  double codec_ns_8k = 0;
  double send_ns_per_msg = 0;
  double open_ns = 0;
  double table_ns_per_op = 0;
  double synth_ns_per_miss = 0;
  double cache_ns_per_hit = 0;
  double conformance_ns_per_event = 0;
  double memcpy_GBps = 0;
  double chase_ns = 0;
};

double replay_events(std::size_t pending) {
  sim::EventScheduler s;
  for (std::size_t i = 0; i < pending; ++i) {
    s.post_at(sim::SimTime::seconds(100000) + sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
  }
  constexpr std::size_t kN = 100000;
  std::uint64_t fired = 0;
  return time_per_op(kN, [&] {
    const sim::SimTime base = s.now();
    for (std::size_t i = 0; i < kN; ++i) {
      s.post_at(base + sim::SimTime::nanoseconds(static_cast<std::int64_t>(500 * (i + 1))),
                [&fired] { ++fired; });
    }
    s.run_until(base + sim::SimTime::nanoseconds(static_cast<std::int64_t>(500 * (kN + 1))));
  });
}

double replay_codec(std::size_t payload) {
  os::BufferPool pool;
  tko::Message base(&pool);
  auto span = base.append_uninit(payload);
  for (std::size_t i = 0; i < span.size(); ++i) span[i] = static_cast<std::uint8_t>(i * 131u);
  constexpr std::size_t kN = 20000;
  std::uint64_t ok = 0;
  const double ns = time_per_op(kN, [&] {
    for (std::size_t i = 0; i < kN; ++i) {
      tko::Pdu p;
      p.type = tko::PduType::kData;
      p.seq = static_cast<std::uint32_t>(i);
      p.payload = base.clone();
      tko::Message wire = tko::encode_pdu(std::move(p), tko::ChecksumKind::kInternet16,
                                          tko::ChecksumPlacement::kTrailer);
      const tko::DecodeResult d = tko::decode_pdu(std::move(wire));
      ok += d.status == tko::DecodeStatus::kOk ? 1 : 0;
    }
  });
  keep(ok);
  return ns;
}

Replays run_replays(Workload& wl, const Instance& traced) {
  Replays r;
  const ReplayInputs in = wl.replay_inputs();

  r.sim_ns_per_event = replay_events(traced.pending_mid);

  {
    os::BufferPool pool;
    constexpr std::size_t kN = 200000;
    r.pool_ns_per_alloc = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        os::BufferRef b = pool.allocate(in.segment_bytes);
        keep(b);
      }
    });
  }

  {
    World w(in.topology);
    const std::size_t kN = 20000;
    std::size_t sum = 0;
    r.route_ns_per_lookup = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        const auto& pr = in.routes[i % in.routes.size()];
        sum += w.network().path_mtu(pr.first, pr.second);
      }
    });
    keep(sum);
  }

  {
    std::vector<std::uint8_t> buf(8192);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 7u + 3u);
    constexpr std::size_t kN = 20000;
    std::uint32_t acc = 0;
    const double ns = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        tko::InternetChecksum c;
        c.update(buf);
        acc += c.value();
      }
    });
    keep(acc);
    r.checksum_ns_per_KiB = ns / 8.0;
  }

  r.codec_ns_64 = replay_codec(64);
  r.codec_ns_8k = replay_codec(8192);

  {
    // app -> transport send on a fresh session with the workload's SCS and
    // message size (queued only; the scheduler does not run).
    World w([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 1); });
    constexpr std::size_t kN = 2000;
    std::vector<double> ns;
    for (int round = 0; round < 5; ++round) {
      tko::TransportSession& s = w.transport(0).open({w.transport_address(1)}, in.scs);
      std::vector<tko::Message> msgs;
      msgs.reserve(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        tko::Message m(s.buffer_pool());
        auto sp = m.append_uninit(in.message_bytes);
        std::memset(sp.data(), 0, sp.size());
        msgs.push_back(std::move(m));
      }
      const auto t0 = Clock::now();
      for (auto& m : msgs) s.send(std::move(m));
      ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kN);
      s.close(false);
    }
    r.send_ns_per_msg = median(ns);
  }

  {
    // MANTTS open call on the workload's ACD (first one synthesizes, the
    // rest are served as the workload serves them).
    mantts::ResourceLimits limits;
    limits.max_sessions = 100000;
    auto w = std::make_unique<World>(in.topology, os::CpuConfig{}, limits);
    mantts::Acd acd = in.acd;
    acd.remotes = {w->transport_address(1)};
    constexpr std::size_t kN = 500;
    std::size_t done = 0;
    r.open_ns = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        w->mantts(0).open_session(acd, [&done](mantts::MantttsEntity::OpenResult) { ++done; });
      }
    });
    keep(done);
  }

  {
    // City's session-table sequence at this workload's peak population:
    // ramp inserts, churn (take oldest + insert fresh), two finds per
    // session, drain takes.
    const std::size_t pop = std::max<std::size_t>(16, traced.peak_sessions);
    const std::size_t churn = pop / 5;
    std::vector<std::unique_ptr<int>> vals(pop + churn);
    for (auto& v : vals) v = std::make_unique<int>(1);
    const std::size_t ops = pop + 2 * churn + 2 * (pop + churn) + pop;
    r.table_ns_per_op = time_per_op(ops, [&] {
      tko::SessionTable<int> t;
      std::uint64_t found = 0;
      for (std::size_t i = 0; i < pop; ++i) t.insert(static_cast<std::uint32_t>(i + 1), std::move(vals[i]));
      for (std::size_t i = 0; i < churn; ++i) {
        vals[i] = t.take(static_cast<std::uint32_t>(i + 1));
        t.insert(static_cast<std::uint32_t>(pop + i + 1), std::move(vals[pop + i]));
      }
      for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t i = 0; i < pop + churn; ++i) found += t.find(static_cast<std::uint32_t>(i + 1)) != nullptr;
      }
      for (std::size_t i = churn; i < pop + churn; ++i) vals[i] = t.take(static_cast<std::uint32_t>(i + 1));
      keep(found);
    });
  }

  {
    constexpr std::size_t kN = 20000;
    std::uint64_t acc = 0;
    r.synth_ns_per_miss = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        const mantts::Tsc tsc = mantts::classify(in.acd);
        const tko::sa::SessionConfig c = mantts::derive_scs(tsc, in.acd, in.desc);
        acc += c.window_pdus;
      }
    });
    keep(acc);
    mantts::SynthesisCache cache;
    const mantts::SynthesisKey key = mantts::make_synthesis_key(in.acd, in.desc);
    cache.insert(key, mantts::classify(in.acd), in.scs);
    r.cache_ns_per_hit = time_per_op(kN, [&] {
      for (std::size_t i = 0; i < kN; ++i) acc += cache.lookup(key) != nullptr;
    });
    keep(acc);
  }

  {
    // Conformance monitor: one contract, a unit stream at 20 ms spacing.
    constexpr std::size_t kN = 50000;
    std::vector<double> ns;
    for (int round = 0; round < 5; ++round) {
      unites::ConformanceMonitor mon;
      mon.register_contract(mantts::make_contract(in.acd, 1, 0), sim::SimTime::zero());
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kN; ++i) {
        const sim::SimTime t = sim::SimTime::milliseconds(20 * static_cast<std::int64_t>(i));
        mon.on_send(1, static_cast<std::uint32_t>(i), t);
        mon.on_delivery(1, static_cast<std::uint32_t>(i), t + sim::SimTime::milliseconds(5),
                        5'000'000, in.message_bytes, false, false);
      }
      ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / (2.0 * kN));
    }
    r.conformance_ns_per_event = median(ns);
  }

  {
    // Host calibration over the same 16 MiB: streaming copy bandwidth and
    // a dependent pointer chase (one cache line per hop).
    constexpr std::size_t kBytes = 16u << 20;
    std::vector<std::uint8_t> a(kBytes, 1), b(kBytes, 0);
    std::vector<double> gbps;
    for (int round = 0; round < 5; ++round) {
      const auto t0 = Clock::now();
      std::memcpy(b.data(), a.data(), kBytes);
      keep(b[static_cast<std::size_t>(round)]);
      gbps.push_back(static_cast<double>(kBytes) / seconds_between(t0, Clock::now()) / 1e9);
    }
    r.memcpy_GBps = median(gbps);
    const std::size_t lines = kBytes / 64;
    std::vector<std::size_t> order(lines);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin() + 1, order.end(), std::mt19937_64(42));
    auto* next = reinterpret_cast<std::size_t*>(a.data());
    for (std::size_t i = 0; i < lines; ++i) next[order[i] * 8] = order[(i + 1) % lines] * 8;
    constexpr std::size_t kHops = 1u << 20;
    std::size_t p = 0;
    r.chase_ns = time_per_op(kHops, [&] {
      for (std::size_t i = 0; i < kHops; ++i) p = next[p];
    });
    keep(p);
  }
  return r;
}

// ===========================================================================
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--spans-out") a.spans_out = v;
    else return std::nullopt;
  }
  if ((argc - 1) % 2 != 0 || a.workload.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  char buf[512];
  std::snprintf(buf, sizeof buf, "cpu=\"%s\" threads=%u kernel=%s compiler=\"%s\" build=%s",
                cpu.c_str(), std::thread::hardware_concurrency(), u.release, __VERSION__,
                PERFBENCH_BUILD_TYPE);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  for (const auto& m : ms) std::printf("%-32s %-14.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", ms[i].name.c_str(),
                ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

double rate(double num, double s) { return s > 0 ? num / s : 0.0; }

/// The bound BENCHMARK.json gives the throughput metrics.
constexpr double kThroughputBound = 0.25;

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bulk-atm|city-churn|media-mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl;
  if (args->workload == "bulk-atm") wl = std::make_unique<BulkAtm>(args->seed);
  else if (args->workload == "city-churn") wl = std::make_unique<CityChurn>(args->seed);
  else if (args->workload == "media-mix") wl = std::make_unique<MediaMix>(args->seed);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  std::printf("host: %s\n", host_fingerprint().c_str());
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d\n", wl->name(), args->seed,
              args->seconds, args->trace);

  std::vector<std::string> errors;

  // Set-up time: the median of repeated set-ups (a single one is too
  // short to repeat within a tenth), taken in groups spread over the run
  // so that one slow stretch of the host does not set the median.
  std::vector<double> setups;
  auto setup_group = [&](int n) {
    for (int i = 0; i < n; ++i) setups.push_back(wl->setup_once());
  };

  wl->extra_checks(errors);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;

  if (args->trace == 0) {
    // Warm-up instance (lazy set-up, heap growth), then instances until the
    // measuring time is spent; every metric is the median over instances.
    Instance warm = wl->run(1);
    std::vector<Instance> runs;
    const auto deadline = Clock::now() + std::chrono::duration<double>(args->seconds);
    while (runs.size() < 3 || Clock::now() < deadline) {
      setup_group(5);
      runs.push_back(wl->run(1));
      if (runs.size() >= 400) break;
    }
    if (setups.size() < 51) setup_group(51 - static_cast<int>(setups.size()));
    const double setup_s = median(setups);
    std::vector<double> goodput, sessions, scenarios, rssps;
    for (const Instance& in : runs) {
      goodput.push_back(rate(static_cast<double>(in.payload_bytes) / 1e6, in.run_s));
      sessions.push_back(rate(static_cast<double>(in.opens), in.run_s));
      scenarios.push_back(rate(static_cast<double>(in.scenarios), in.total_s));
      rssps.push_back(in.rss_per_session);
      attempted += in.attempted;
      failed += in.failed;
      for (const auto& e : in.check_errors) errors.push_back(e);
      if (in.fingerprint != warm.fingerprint) errors.push_back("fingerprint differs between instances");
      if (in.counts != runs.front().counts) errors.push_back("exact counts differ between instances");
    }
    for (const auto& e : warm.check_errors) errors.push_back(e);
    std::sort(errors.begin(), errors.end());
    errors.erase(std::unique(errors.begin(), errors.end()), errors.end());

    std::printf("fingerprint: %016" PRIx64 " %s\n", fnv1a(warm.fingerprint), warm.fingerprint.c_str());
    std::printf("counts: %s\n", runs.front().counts.c_str());
    std::printf("instances: %zu (+1 warm-up), primary metric %s\n", runs.size(), wl->primary());
    std::printf("failed_frac: %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                failed, attempted);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"goodput_MBps", median(goodput), "MB/s"},
        {"sessions_per_s", median(sessions), "1/s"},
        {"scenarios_per_s", median(scenarios), "1/s"},
        {"peak_rss_MB", static_cast<double>(peak_rss_bytes()) / 1e6, "MB"},
        {"rss_B_per_session", median(rssps), "B"},
    };
  } else {
    setup_group(51);
    const double setup_s = median(setups);
    // Linearity: 1x and 2x the work, untraced, median of 3 each. The
    // primary throughput must agree while host time roughly doubles.
    Instance warm = wl->run(1);
    keep(warm);
    auto primary_rate = [&](const Instance& in) {
      if (std::strcmp(wl->primary(), "goodput_MBps") == 0) return rate(static_cast<double>(in.payload_bytes), in.run_s);
      if (std::strcmp(wl->primary(), "sessions_per_s") == 0) return rate(static_cast<double>(in.opens), in.run_s);
      return rate(static_cast<double>(in.scenarios), in.total_s);
    };
    std::vector<double> r1, r2, t1, t2;
    for (int i = 0; i < 3; ++i) {
      const Instance a = wl->run(1);
      const Instance b = wl->run(2);
      r1.push_back(primary_rate(a));
      r2.push_back(primary_rate(b));
      t1.push_back(a.run_s);
      t2.push_back(b.run_s);
    }
    const double lin_ratio = median(r2) / median(r1);
    const double time_ratio = median(t2) / median(t1);
    std::printf("linearity: %s at 2x / 1x = %.4f, host time 2x / 1x = %.4f\n", wl->primary(),
                lin_ratio, time_ratio);
    // Reported, not gated: at 2x the working set is larger too, so a real
    // per-operation cost rise shows here (README.md, "Linearity").
    std::printf("linearity: %s (throughput within %.2f, host time within 1.6x..2.4x)\n",
                std::fabs(lin_ratio - 1.0) <= kThroughputBound && time_ratio >= 1.6 && time_ratio <= 2.4
                    ? "PASS" : "FAIL",
                kThroughputBound);

    // Tracing overhead: the traced pass with and without spans,
    // interleaved, median of 3 each. The last traced pass supplies the
    // spans and exact counts.
    std::vector<double> plain_s, spanned_s;
    Instance traced;
    for (int i = 0; i < 3; ++i) {
      plain_s.push_back(wl->traced_pass().run_s);
      g_tracer = Tracer();
      g_tracer.enable();
      traced = wl->traced_pass();
      spanned_s.push_back(traced.run_s);
      if (i < 2) g_tracer = Tracer();
    }
    g_tracer.disable();
    const double untraced_s = median(plain_s);
    const double traced_s = median(spanned_s);
    const double blocking = g_tracer.total(wl->blocking_span());
    double run_total = 0;
    for (const char* s : wl->run_spans()) run_total += g_tracer.total_within(s, wl->blocking_span());
    const Replays rp = run_replays(*wl, traced);

    const double pdus = static_cast<double>(std::max<std::uint64_t>(1, traced.pdus));
    const double opens = static_cast<double>(std::max<std::uint64_t>(1, traced.opens));
    const double scen = static_cast<double>(std::max<std::uint64_t>(1, traced.scenarios));
    const double units = static_cast<double>(std::max<std::uint64_t>(1, traced.units));
    const double looks = static_cast<double>(traced.cache_hits + traced.cache_misses);

    // Send and open are spans where this benchmark makes the call (bulk),
    // replays elsewhere.
    double send_ns = rp.send_ns_per_msg;
    if (g_tracer.count("tko.send") > 0) send_ns = g_tracer.total("tko.send") * 1e9 / static_cast<double>(g_tracer.count("tko.send"));
    double open_ns = rp.open_ns;
    if (g_tracer.count("tko.open") > 0) open_ns = g_tracer.total("tko.open") * 1e9 / static_cast<double>(g_tracer.count("tko.open"));
    const double world_build_ms =
        g_tracer.count("adaptive.world_build") > 0
            ? g_tracer.total("adaptive.world_build") * 1e3 / static_cast<double>(g_tracer.count("adaptive.world_build"))
            : setup_s * 1e3;

    // Layer budgets inside the blocking span: op count x ns/op per layer.
    // The codec cost is interpolated at the mean wire payload per packet
    // and already includes the checksum, so checksum is not added again.
    const double mean_payload = static_cast<double>(traced.checksummed_bytes) / 2.0 / pdus;
    const double codec_ns =
        rp.codec_ns_64 + (rp.codec_ns_8k - rp.codec_ns_64) *
                             std::clamp((mean_payload - 64.0) / (8192.0 - 64.0), 0.0, 1.0);
    struct Budget {
      const char* layer;
      double seconds;
    };
    std::vector<Budget> budgets = {
        {"sim.dispatch", static_cast<double>(traced.events) * rp.sim_ns_per_event * 1e-9},
        {"os.pool", static_cast<double>(traced.pool_allocs) * rp.pool_ns_per_alloc * 1e-9},
        {"net.route", static_cast<double>(traced.pdus) * rp.route_ns_per_lookup * 1e-9},
        {"tko.codec", static_cast<double>(traced.pdus) * codec_ns * 1e-9},
        {"tko.table", static_cast<double>(traced.table_ops) * rp.table_ns_per_op * 1e-9},
        {"mantts.synthesis", (static_cast<double>(traced.cache_misses) * rp.synth_ns_per_miss +
                              static_cast<double>(traced.cache_hits) * rp.cache_ns_per_hit) * 1e-9},
        {"unites.conformance", static_cast<double>(traced.conformance_events) * rp.conformance_ns_per_event * 1e-9},
        {"tko.send", g_tracer.total_within("tko.send", wl->blocking_span())},
        {"adaptive.world_build", g_tracer.total_within("adaptive.world_build", wl->blocking_span())},
    };
    double attributed = 0;
    bool negative = false;
    for (const auto& b : budgets) {
      attributed += b.seconds;
      negative = negative || b.seconds < 0;
      std::printf("budget %-22s %10.6f s  %6.2f%% of blocking span\n", b.layer, b.seconds,
                  blocking > 0 ? 100.0 * b.seconds / blocking : 0.0);
    }
    const double unattributed = blocking > 0 ? 1.0 - attributed / blocking : 0.0;
    std::printf("budget %-22s %10.6f s  %6.2f%% of blocking span (%s, %.6f s)\n", "unattributed",
                blocking - attributed, 100.0 * unattributed, wl->blocking_span(), blocking);
    const bool closure_ok = !negative && unattributed >= 0.0 && unattributed <= 1.0;
    std::printf("closure: %s\n", closure_ok ? "OK" : "FAILED (budgets exceed the blocking span)");
    const double overhead = untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0;
    std::printf("tracing overhead: traced %.6f s vs untraced %.6f s (%+.2f%%)\n", traced_s,
                untraced_s, 100.0 * overhead);
    g_tracer.print_summary();
    g_tracer.write(args->spans_out);
    attempted = std::max<std::uint64_t>(1, traced.attempted != 0 ? traced.attempted : traced.scenarios);
    failed = traced.failed;
    for (const auto& e : traced.check_errors) errors.push_back(e);

    metrics = {
        {"sim.events_per_pdu", static_cast<double>(traced.events) / pdus, "count"},
        {"sim.events_per_open", static_cast<double>(traced.events) / opens, "count"},
        {"sim.ns_per_event", rp.sim_ns_per_event, "ns"},
        {"sim.run_frac", blocking > 0 ? run_total / blocking : 0.0, "1"},
        {"os.allocs_per_pdu", static_cast<double>(traced.allocs) / pdus, "count"},
        {"os.allocs_per_open", static_cast<double>(traced.allocs) / opens, "count"},
        {"os.copies_per_msg", static_cast<double>(traced.copies) / units, "count"},
        {"os.pool_high_water_MB", static_cast<double>(traced.pool_high_water) / 1e6, "MB"},
        {"os.pool_ns_per_alloc", rp.pool_ns_per_alloc, "ns"},
        {"net.route_ns_per_lookup", rp.route_ns_per_lookup, "ns"},
        {"tko.checksum_ns_per_KiB", rp.checksum_ns_per_KiB, "ns"},
        {"tko.codec_ns_per_pdu_64B", rp.codec_ns_64, "ns"},
        {"tko.codec_ns_per_pdu_8KiB", rp.codec_ns_8k, "ns"},
        {"tko.send_ns_per_msg", send_ns, "ns"},
        {"tko.open_ns", open_ns, "ns"},
        {"tko.retx_per_kpdu", 1000.0 * static_cast<double>(traced.retx) / pdus, "count"},
        {"tko.table_max_probe", static_cast<double>(traced.table_max_probe), "count"},
        {"tko.table_ns_per_op", rp.table_ns_per_op, "ns"},
        {"tko.sim_delivery_p50_ms", traced.delivery_p50_ms, "ms"},
        {"mantts.cache_hit_rate", looks > 0 ? static_cast<double>(traced.cache_hits) / looks : 0.0, "1"},
        {"mantts.synth_ns_per_miss", rp.synth_ns_per_miss, "ns"},
        {"mantts.cache_ns_per_hit", rp.cache_ns_per_hit, "ns"},
        {"mantts.resyntheses_per_scenario", static_cast<double>(traced.resyntheses) / scen, "count"},
        {"unites.conformance_ns_per_event", rp.conformance_ns_per_event, "ns"},
        {"unites.repo_samples_per_scenario", static_cast<double>(traced.repo_samples) / scen, "count"},
        {"adaptive.world_build_ms", world_build_ms, "ms"},
        {"adaptive.unattributed_frac", unattributed, "1"},
        {"host.calib_memcpy_GBps", rp.memcpy_GBps, "GB/s"},
        {"host.calib_chase_ns", rp.chase_ns, "ns"},
        {"bench.tracing_overhead_frac", overhead, "1"},
        {"bench.linearity_ratio", lin_ratio, "1"},
        {"bench.linearity_time_ratio", time_ratio, "1"},
    };
    if (!closure_ok) errors.push_back("layer budgets do not close over the blocking span");
  }

  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  print_result(errors.empty(), std::max<std::uint64_t>(1, attempted), failed, metrics);
  return 0;
}
