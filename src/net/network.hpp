// The Network: topology container, route manager, and injection point.
//
// Owns every node and link, computes unicast routes and per-source
// multicast trees, reinstalls forwarding state when topology or membership
// changes, and exposes the path queries (MTU, idle latency, hop list) that
// MANTTS Stage II consults when turning a TSC into an SCS.
#pragma once

#include "net/link.hpp"
#include "net/monitor.hpp"
#include "net/multicast.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/random.hpp"

#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace adaptive::net {

class Network {
public:
  Network(sim::EventScheduler& sched, std::uint64_t seed = 1);

  // --- topology construction -------------------------------------------
  NodeId add_host(std::string name);
  NodeId add_switch(std::string name, const SwitchConfig& cfg = {});

  /// Create a bidirectional link (two unidirectional Links with the same
  /// config). Returns (a->b, b->a) link ids.
  std::pair<LinkId, LinkId> connect(NodeId a, NodeId b, const LinkConfig& cfg);

  /// Install forwarding state everywhere, now. Topology edits call this
  /// implicitly: before the first packet is injected, connect/join/leave
  /// only mark routes dirty and the single computation runs at the first
  /// inject or path query (DESIGN §13.6); afterwards every edit recomputes
  /// at once, so packets in flight always meet current tables.
  void recompute_routes();

  /// Run a deferred route computation now, if one is pending. Every
  /// routing-state read calls this first; World construction calls it so
  /// a built World has its tables installed. Path queries are logically
  /// const, hence the const_cast: the computation only materializes what
  /// eager routing would already have installed.
  void ensure_routes() const {
    if (routes_dirty_) const_cast<Network*>(this)->install_routes(pending_nodes_);
  }

  // --- dynamic behaviour -------------------------------------------------
  /// Take both directions of a bidirectional link up or down and reroute.
  void set_link_pair_up(LinkId forward_id, bool up);

  // --- multicast / broadcast ---------------------------------------------
  NodeId create_group() { return groups_.create_group(); }

  /// The all-hosts group (Section 2.1's "broadcast (distributed name
  /// resolution)" service): every host is a member automatically; a
  /// packet sent to this address reaches every other host.
  [[nodiscard]] NodeId broadcast_address() const { return broadcast_group_; }
  void join_group(NodeId group, NodeId host);
  void leave_group(NodeId group, NodeId host);
  [[nodiscard]] const std::vector<NodeId>& group_members(NodeId group) const {
    return groups_.members(group);
  }

  // --- traffic --------------------------------------------------------
  /// Inject a packet at its source host. For multicast destinations the
  /// packet is replicated along the source-rooted tree.
  void inject(Packet&& p);

  /// Attach the receive path of a host (its NIC).
  void set_host_rx(NodeId host, HostNode::RxFn fn);

  // --- queries ---------------------------------------------------------
  [[nodiscard]] Link& link(LinkId id);
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] std::vector<NodeId> hosts() const;

  /// Node sequence currently routing src -> dst (empty if unreachable).
  [[nodiscard]] std::vector<NodeId> path(NodeId src, NodeId dst) const;
  /// The same into a caller-owned vector, reusing its capacity.
  void path_into(NodeId src, NodeId dst, std::vector<NodeId>& out) const;

  /// Smallest MTU along the current src -> dst path (0 if unreachable).
  [[nodiscard]] std::size_t path_mtu(NodeId src, NodeId dst) const;

  /// Idle one-way latency of a `bytes`-sized packet along the path.
  [[nodiscard]] sim::SimTime path_idle_latency(NodeId src, NodeId dst, std::size_t bytes) const;

  /// Bottleneck (minimum) bandwidth along the path.
  [[nodiscard]] sim::Rate path_bottleneck(NodeId src, NodeId dst) const;

  /// Highest output-queue utilization along the current path, in [0,1] —
  /// the congestion signal the NMI samples.
  [[nodiscard]] double path_congestion(NodeId src, NodeId dst) const;

  /// Worst bit-error rate along the path.
  [[nodiscard]] double path_bit_error_rate(NodeId src, NodeId dst) const;

  [[nodiscard]] NetworkMonitor& monitor() { return monitor_; }
  [[nodiscard]] const NetworkMonitor& monitor() const { return monitor_; }

  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }

private:
  /// Cached route src -> dst: a slice of route_links_, filled on first use.
  struct Route {
    std::uint32_t first = 0;
    std::uint32_t len = 0;
    bool filled = false;
  };

  /// Record a topology change: recompute now once traffic has started,
  /// otherwise defer the computation to the next routing-state read.
  void topology_changed();
  /// Compute and install routes over the first `nodes` nodes: nodes added
  /// after a deferred change take no part, exactly as if the change had
  /// been computed when it happened.
  void install_routes(std::size_t nodes);
  void install_unicast_routes(std::size_t nodes);
  void install_multicast_routes(std::size_t nodes);
  /// The current src -> dst link sequence (empty if unreachable, unknown,
  /// or src == dst).
  [[nodiscard]] std::span<Link* const> path_links(NodeId src, NodeId dst) const;

  sim::EventScheduler& sched_;
  sim::Rng rng_;
  NetworkMonitor monitor_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  Adjacency adjacency_;
  MulticastGroups groups_;
  NodeId broadcast_group_ = 0;
  // Source-host forwarding state: unicast first-hop per (src, dst) is
  // resolved through per-node SPF snapshots.
  std::map<NodeId, SpfResult> spf_;                            // per source host
  std::map<std::pair<NodeId, NodeId>, std::vector<Link*>> host_mcast_;  // (group, src) -> first hops
  /// Route cache over spf_: route_nodes_^2 entries indexed src * n + dst,
  /// reset whenever routes are installed. Mutable: filling it is a
  /// memoization of the const path queries.
  std::size_t route_nodes_ = 0;
  mutable std::vector<Route> routes_;
  mutable std::vector<Link*> route_links_;
  bool routes_dirty_ = false;
  std::size_t pending_nodes_ = 0;  ///< node count at the deferred change
  bool traffic_started_ = false;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace adaptive::net
