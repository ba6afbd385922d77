// MANTTS Network Monitor Interface (MANTTS-NMI, Section 4.1.1).
//
// Maintains the *network state descriptor*: a sampled, per-path estimate of
// the static and dynamic network characteristics Stage II reconciles the
// TSC against, and which the reconfiguration policies watch. In a
// deployment this comes from management agents and in-band probes; in the
// simulator it is sampled from the Network's own state — the same numbers
// a probe would measure, without probe traffic perturbing small
// experiments.
#pragma once

#include "net/network.hpp"
#include "tko/event.hpp"
#include "tko/sa/rtt_estimator.hpp"
#include "os/timer_facility.hpp"
#include "unites/conformance.hpp"

#include <functional>
#include <map>
#include <memory>

namespace adaptive::mantts {

struct NetworkStateDescriptor {
  sim::SimTime rtt = sim::SimTime::zero();
  sim::Rate bottleneck = sim::Rate::bps(0);
  std::size_t mtu = 0;
  double bit_error_rate = 0.0;
  double congestion = 0.0;      ///< worst queue utilization on the path, [0,1]
  double recent_loss_rate = 0.0;
  std::uint64_t route_version = 0;  ///< bumps when the path node-list changes
  bool reachable = false;
  /// The path is in a fault episode: unreachable, losing a large fraction
  /// of packets, saturated, or crossing a worst-case-BER line. MANTTS
  /// recovery machinery keys off transitions of this bit (fault detected /
  /// recovered) rather than re-deriving thresholds per policy.
  bool degraded = false;
};

/// Degraded-state thresholds (see NetworkStateDescriptor::degraded).
inline constexpr double kDegradedLossRate = 0.15;
inline constexpr double kDegradedCongestion = 0.95;
inline constexpr double kDegradedBer = 1e-5;

class NetworkMonitorInterface {
public:
  NetworkMonitorInterface(net::Network& network, net::NodeId local);

  /// Fresh snapshot of the path to `remote` (multicast destinations use
  /// the farthest member for RTT and the tightest MTU).
  [[nodiscard]] NetworkStateDescriptor sample(net::NodeId remote);

  /// Sample periodically and invoke `cb` with each new descriptor.
  using ChangeFn = std::function<void(net::NodeId remote, const NetworkStateDescriptor&)>;
  void watch(net::NodeId remote, os::TimerFacility& timers, sim::SimTime period, ChangeFn cb);
  void unwatch(net::NodeId remote);

  /// Feed a measured round-trip sample from an in-band PROBE exchange
  /// (MANTTS entities probe over the signaling channel). Once a remote has
  /// probe samples, sample() reports the measured smoothed RTT instead of
  /// the topology-derived idle estimate — measurement, not oracle.
  void record_probe_rtt(net::NodeId remote, sim::SimTime rtt);

  /// Number of probe samples recorded for `remote`.
  [[nodiscard]] std::uint32_t probe_samples(net::NodeId remote) const;

  [[nodiscard]] net::NodeId local() const { return local_; }

  /// Contract-health rung (DESIGN §16): the conformance plane's per-session
  /// verdict — in contract / burning / breached — surfaced through the NMI
  /// so reconfiguration policies observe QoS health the same way they
  /// observe path health. The provider is installed by whoever owns the
  /// ConformanceMonitor (the World, via the MANTTS entity).
  using ContractHealthFn = std::function<unites::ContractHealth(std::uint32_t session)>;
  void set_contract_health_provider(ContractHealthFn fn) { contract_health_ = std::move(fn); }
  [[nodiscard]] unites::ContractHealth contract_health(std::uint32_t session) const {
    return contract_health_ ? contract_health_(session) : unites::ContractHealth::kNone;
  }

private:
  [[nodiscard]] NetworkStateDescriptor sample_unicast(net::NodeId remote);

  net::Network& net_;
  net::NodeId local_;
  std::map<net::NodeId, tko::sa::RttEstimator> probe_rtt_;
  std::map<net::NodeId, std::vector<net::NodeId>> last_path_;
  std::vector<net::NodeId> path_scratch_;  ///< sample_unicast's path, capacity reused
  std::map<net::NodeId, std::uint64_t> route_version_;
  struct Watch {
    std::unique_ptr<tko::Event> timer;
    ChangeFn cb;
  };
  std::map<net::NodeId, Watch> watches_;
  ContractHealthFn contract_health_;
};

}  // namespace adaptive::mantts
