// Network monitor: the observation surface behind the MANTTS Network
// Monitor Interface (MANTTS-NMI, Section 4.1) and the UNITES traffic
// monitors (Section 4.3).
//
// It records drop/delivery/route-change events network-wide and answers
// state queries (queue occupancy along a path, recent loss rate). In the
// real system this information would come from switch management agents;
// in the simulator the monitor reads switch state directly — the data is
// the same either way.
#pragma once

#include "net/packet.hpp"
#include "sim/time.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaptive::net {

enum class NetEventKind : std::uint8_t { kDrop, kDeliver, kRouteChange, kLinkDown, kLinkUp, kFault };

struct NetEvent {
  NetEventKind kind;
  sim::SimTime when;
  std::string detail;
};

class NetworkMonitor {
public:
  explicit NetworkMonitor(std::size_t history = 4096) : kinds_(history) {}

  /// Count an event and publish it to subscribers. `detail` is a string
  /// or a callable returning one; a callable runs only when someone
  /// subscribes, so the per-delivery hot path formats nothing.
  template <typename Detail>
  void record(NetEventKind kind, sim::SimTime when, Detail&& detail) {
    note(kind);
    if (subscribers_.empty()) return;
    if constexpr (std::is_invocable_v<Detail&>) {
      publish(NetEvent{kind, when, std::string(detail())});
    } else {
      publish(NetEvent{kind, when, std::string(std::forward<Detail>(detail))});
    }
  }

  /// Subscribe to every event as it happens (MANTTS policies hook here).
  using Subscriber = std::function<void(const NetEvent&)>;
  void subscribe(Subscriber s) { subscribers_.push_back(std::move(s)); }

  [[nodiscard]] std::uint64_t total_drops() const { return drops_; }
  [[nodiscard]] std::uint64_t total_deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t route_changes() const { return route_changes_; }
  [[nodiscard]] std::uint64_t faults() const { return faults_; }

  /// Drop fraction over the most recent `window` drop+deliver events,
  /// looking back at most `history` events of any kind.
  [[nodiscard]] double recent_loss_rate(std::size_t window = 256) const;

private:
  /// Bump the kind's counter and append it to the kind ring.
  void note(NetEventKind kind);
  void publish(const NetEvent& e);

  /// The last kinds_.size() event kinds, oldest overwritten first.
  std::vector<NetEventKind> kinds_;
  std::size_t next_ = 0;  ///< ring slot the next event lands in
  std::size_t kept_ = 0;  ///< ring slots holding an event
  std::vector<Subscriber> subscribers_;
  std::uint64_t drops_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t route_changes_ = 0;
  std::uint64_t faults_ = 0;  ///< injected impairment applications
};

}  // namespace adaptive::net
