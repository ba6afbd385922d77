#include "net/monitor.hpp"

#include "unites/profiler.hpp"

namespace adaptive::net {

void NetworkMonitor::note(NetEventKind kind) {
  UNITES_PROF("net.monitor.record");
  switch (kind) {
    case NetEventKind::kDrop: ++drops_; break;
    case NetEventKind::kDeliver: ++deliveries_; break;
    case NetEventKind::kRouteChange: ++route_changes_; break;
    case NetEventKind::kFault: ++faults_; break;
    default: break;
  }
  if (kinds_.empty()) return;
  kinds_[next_] = kind;
  if (++next_ == kinds_.size()) next_ = 0;
  if (kept_ < kinds_.size()) ++kept_;
}

void NetworkMonitor::publish(const NetEvent& e) {
  for (const auto& s : subscribers_) s(e);
}

double NetworkMonitor::recent_loss_rate(std::size_t window) const {
  std::uint64_t drops = 0;
  std::uint64_t total = 0;
  std::size_t idx = next_;
  for (std::size_t seen = 0; seen < kept_ && total < window; ++seen) {
    idx = (idx == 0 ? kinds_.size() : idx) - 1;
    const NetEventKind k = kinds_[idx];
    if (k == NetEventKind::kDrop) {
      ++drops;
      ++total;
    } else if (k == NetEventKind::kDeliver) {
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(drops) / static_cast<double>(total);
}

}  // namespace adaptive::net
