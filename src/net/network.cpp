#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace adaptive::net {

Network::Network(sim::EventScheduler& sched, std::uint64_t seed) : sched_(sched), rng_(seed) {
  broadcast_group_ = groups_.create_group();
}

NodeId Network::add_host(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<HostNode>(id, std::move(name)));
  adjacency_[id];
  groups_.join(broadcast_group_, id);  // every host hears broadcasts
  return id;
}

NodeId Network::add_switch(std::string name, const SwitchConfig& cfg) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<SwitchNode>(id, std::move(name), cfg, sched_));
  adjacency_[id];
  return id;
}

std::pair<LinkId, LinkId> Network::connect(NodeId a, NodeId b, const LinkConfig& cfg) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  auto make = [&](NodeId from, NodeId to) -> LinkId {
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(std::make_unique<Link>(id, from, to, cfg, sched_, rng_.fork()));
    Link* l = links_.back().get();
    Node* n = nodes_[to].get();
    if (dynamic_cast<HostNode*>(n) != nullptr) {
      l->set_deliver([this, n](Packet&& p) {
        monitor_.record(NetEventKind::kDeliver, sched_.now(),
                        [&p] { return "deliver dst=" + to_string(p.dst); });
        n->receive(std::move(p));
      });
    } else {
      l->set_deliver([n](Packet&& p) { n->receive(std::move(p)); });
    }
    l->set_on_drop([this, id](const Packet& p, const char* reason) {
      monitor_.record(NetEventKind::kDrop, sched_.now(), [&] {
        return std::string(reason) + " link=" + std::to_string(id) + " dst=" + to_string(p.dst);
      });
    });
    l->set_on_change([this] { ensure_routes(); });
    adjacency_[from].push_back(l);
    return id;
  };
  const LinkId fwd = make(a, b);
  const LinkId rev = make(b, a);
  topology_changed();
  return {fwd, rev};
}

void Network::set_link_pair_up(LinkId forward_id, bool up) {
  if (forward_id + 1 >= links_.size()) {
    throw std::invalid_argument("Network::set_link_pair_up: unknown link");
  }
  // connect() always creates the pair adjacently: forward at even index.
  Link& f = *links_[forward_id];
  Link& r = *links_[forward_id ^ 1u];
  f.set_up(up);
  r.set_up(up);
  monitor_.record(up ? NetEventKind::kLinkUp : NetEventKind::kLinkDown, sched_.now(),
                  "link pair " + std::to_string(forward_id));
  recompute_routes();
}

void Network::join_group(NodeId group, NodeId host) {
  if (groups_.join(group, host)) topology_changed();
}

void Network::leave_group(NodeId group, NodeId host) {
  if (groups_.leave(group, host)) topology_changed();
}

void Network::recompute_routes() {
  install_routes(nodes_.size());
  monitor_.record(NetEventKind::kRouteChange, sched_.now(), "routes recomputed");
}

void Network::topology_changed() {
  // Before the first inject no packet is in a link or switch, so nothing
  // can observe stale tables: a World build's N connects cost one route
  // computation instead of N. The change record is kept per edit.
  if (traffic_started_) {
    install_routes(nodes_.size());
  } else {
    routes_dirty_ = true;
    pending_nodes_ = nodes_.size();
  }
  monitor_.record(NetEventKind::kRouteChange, sched_.now(), "routes recomputed");
}

void Network::install_routes(std::size_t nodes) {
  routes_dirty_ = false;
  install_unicast_routes(nodes);
  install_multicast_routes(nodes);
  route_nodes_ = nodes;
  routes_.assign(route_nodes_ * route_nodes_, Route{});
  route_links_.clear();
}

void Network::install_unicast_routes(std::size_t nodes) {
  spf_.clear();
  for (std::size_t i = 0; i < nodes; ++i) {
    spf_[nodes_[i]->id()] = shortest_paths(adjacency_, nodes_[i]->id());
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    auto* sw = dynamic_cast<SwitchNode*>(nodes_[i].get());
    if (sw == nullptr) continue;
    sw->clear_routes();
    const SpfResult& spf = spf_[sw->id()];
    for (std::size_t d = 0; d < nodes; ++d) {
      const NodeId dst = nodes_[d]->id();
      if (dst == sw->id()) continue;
      auto links = extract_path_links(spf, sw->id(), dst);
      if (!links.empty()) sw->set_unicast_route(dst, links.front());
    }
  }
}

void Network::install_multicast_routes(std::size_t nodes) {
  host_mcast_.clear();
  for (NodeId group : groups_.groups()) {
    const auto& members = groups_.members(group);
    // Any host may be a source; build a tree per (group, source-host).
    // Members added after the change being installed have no links yet,
    // so multicast_tree omits them as unreachable.
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto& src_node = nodes_[i];
      if (dynamic_cast<HostNode*>(src_node.get()) == nullptr) continue;
      const NodeId src = src_node->id();
      std::vector<NodeId> others;
      for (NodeId m : members) {
        if (m != src) others.push_back(m);
      }
      if (others.empty()) continue;
      auto tree = multicast_tree(adjacency_, src, others);
      for (auto& [node_id, outs] : tree) {
        if (node_id == src) {
          host_mcast_[{group, src}] = outs;
        } else if (auto* sw = dynamic_cast<SwitchNode*>(nodes_[node_id].get())) {
          sw->set_multicast_routes(group, src, outs);
        }
      }
    }
  }
}

void Network::inject(Packet&& p) {
  ensure_routes();
  traffic_started_ = true;
  p.id = next_packet_id_++;
  p.injected_at_ns = sched_.now().ns();
  const NodeId src = p.src.node;
  if (src >= nodes_.size()) throw std::invalid_argument("Network::inject: unknown source");
  if (is_multicast(p.dst.node)) {
    auto it = host_mcast_.find({p.dst.node, src});
    if (it == host_mcast_.end() || it->second.empty()) {
      monitor_.record(NetEventKind::kDrop, sched_.now(), "no-mcast-route dst=" + to_string(p.dst));
      return;
    }
    const auto& outs = it->second;
    for (std::size_t i = 0; i + 1 < outs.size(); ++i) outs[i]->transmit(Packet(p));
    outs.back()->transmit(std::move(p));
    return;
  }
  if (src >= route_nodes_) throw std::logic_error("Network::inject: routes not computed");
  const auto links = path_links(src, p.dst.node);
  if (links.empty()) {
    monitor_.record(NetEventKind::kDrop, sched_.now(),
                    [&p] { return "no-route dst=" + to_string(p.dst); });
    return;
  }
  links.front()->transmit(std::move(p));
}

void Network::set_host_rx(NodeId host, HostNode::RxFn fn) {
  auto* h = dynamic_cast<HostNode*>(nodes_.at(host).get());
  if (h == nullptr) throw std::invalid_argument("Network::set_host_rx: node is not a host");
  h->set_rx(std::move(fn));
}

Link& Network::link(LinkId id) { return *links_.at(id); }
const Link& Network::link(LinkId id) const { return *links_.at(id); }

Node& Network::node(NodeId id) { return *nodes_.at(id); }

std::vector<NodeId> Network::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (dynamic_cast<const HostNode*>(n.get()) != nullptr) out.push_back(n->id());
  }
  return out;
}

std::span<Link* const> Network::path_links(NodeId src, NodeId dst) const {
  ensure_routes();
  // Nodes added since the last computation have no SPF snapshot: they
  // route nowhere until the next topology change, as before the cache.
  if (src >= route_nodes_ || dst >= route_nodes_) return {};
  Route& r = routes_[src * route_nodes_ + dst];
  if (!r.filled) {
    const auto links = extract_path_links(spf_.at(src), src, dst);
    r.first = static_cast<std::uint32_t>(route_links_.size());
    r.len = static_cast<std::uint32_t>(links.size());
    r.filled = true;
    route_links_.insert(route_links_.end(), links.begin(), links.end());
  }
  return {route_links_.data() + r.first, r.len};
}

std::vector<NodeId> Network::path(NodeId src, NodeId dst) const {
  std::vector<NodeId> nodes;
  path_into(src, dst, nodes);
  return nodes;
}

void Network::path_into(NodeId src, NodeId dst, std::vector<NodeId>& out) const {
  out.clear();
  const auto links = path_links(src, dst);
  if (links.empty() && (src != dst || src >= route_nodes_)) return;
  out.push_back(src);
  for (const Link* l : links) out.push_back(l->to());
}

std::size_t Network::path_mtu(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  if (links.empty()) return 0;
  std::size_t mtu = SIZE_MAX;
  for (const Link* l : links) mtu = std::min(mtu, l->config().mtu_bytes);
  return mtu;
}

sim::SimTime Network::path_idle_latency(NodeId src, NodeId dst, std::size_t bytes) const {
  const auto links = path_links(src, dst);
  sim::SimTime t = sim::SimTime::zero();
  for (const Link* l : links) t += l->idle_latency(bytes);
  return t;
}

sim::Rate Network::path_bottleneck(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  if (links.empty()) return sim::Rate::bps(0);
  sim::Rate r = sim::Rate::gbps(1e9);
  for (const Link* l : links) r = std::min(r, l->config().bandwidth);
  return r;
}

double Network::path_congestion(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  double c = 0.0;
  for (const Link* l : links) c = std::max(c, l->queue_utilization());
  return c;
}

double Network::path_bit_error_rate(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  double b = 0.0;
  for (const Link* l : links) b = std::max(b, l->worst_case_ber());
  return b;
}

}  // namespace adaptive::net
