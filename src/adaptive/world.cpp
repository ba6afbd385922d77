#include "adaptive/world.hpp"

#include "unites/profiler.hpp"

namespace adaptive {

namespace {

/// The bottom of each host's protocol graph: a stand-in for the
/// network-interface protocol (the NIC handles actual delivery; this node
/// exists so the graph expresses the layering the paper draws).
class HostInterfaceProtocol final : public tko::Protocol {
public:
  HostInterfaceProtocol() : Protocol("host-if") {}
  void demux(net::Packet&&) override {}
  [[nodiscard]] std::size_t session_count() const override { return 0; }
};

}  // namespace

World::World(const TopologyFactory& make_topology, const os::CpuConfig& cpu,
             const mantts::ResourceLimits& limits, const os::NicConfig& nic)
    : topo_(make_topology(sched_)) {
  // Give the installed profiler (if any) a virtual-time source; zones
  // opened while this world runs account sim-time against its scheduler.
  unites::Profiler::current().bind_clock(&sched_);
  for (const net::NodeId h : topo_.hosts) {
    hosts_.push_back(std::make_unique<os::Host>(*topo_.network, h, cpu, nic));
    // Per-host protocol graph: adaptive-transport layered over host-if.
    graphs_.push_back(std::make_unique<tko::ProtocolGraph>());
    auto& transport = static_cast<tko::AdaptiveTransport&>(
        graphs_.back()->insert(std::make_unique<tko::AdaptiveTransport>(*hosts_.back())));
    graphs_.back()->insert(std::make_unique<HostInterfaceProtocol>());
    graphs_.back()->layer("adaptive-transport", "host-if");
    transports_.push_back(&transport);
    entities_.push_back(
        std::make_unique<mantts::MantttsEntity>(*hosts_.back(), transport, limits));
    entities_.back()->set_repository(&repo_);
    entities_.back()->set_conformance(&conformance_);
  }
  conformance_.set_repository(&repo_);
  topo_.network->ensure_routes();
}

unites::ResourceSnapshot World::resource_snapshot() const {
  unites::ResourceSnapshot snap;
  snap.when = sched_.now();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    snap.capture_host(*hosts_[i], i < transports_.size() ? transports_[i] : nullptr);
  }
  return snap;
}

void World::enable_host_collectors(sim::SimTime period) {
  if (!host_collectors_.empty()) return;
  for (auto& h : hosts_) {
    host_collectors_.push_back(std::make_unique<unites::HostCollector>(repo_, *h, period));
  }
}

World::~World() {
  auto& prof = unites::Profiler::current();
  if (prof.clock() == &sched_) prof.bind_clock(nullptr);
  // Entities and transports unbind host ports on destruction; destroy them
  // before the hosts they reference.
  host_collectors_.clear();
  entities_.clear();
  transports_.clear();
  graphs_.clear();
  hosts_.clear();
}

}  // namespace adaptive
