#include "os/nic.hpp"

namespace adaptive::os {

Nic::Nic(net::Network& net, net::NodeId node, CpuModel& cpu, const NicConfig& cfg)
    : net_(net), node_(node), cpu_(cpu), cfg_(cfg) {
  net_.set_host_rx(node_, [this](net::Packet&& p) { on_wire_rx(std::move(p)); });
}

void Nic::send(net::Packet&& p) {
  ++tx_;
  p.src.node = node_;
  if (cfg_.interrupt_coalescing <= 1) {
    cpu_.run_interrupt([this, p = std::move(p)]() mutable { net_.inject(std::move(p)); });
    return;
  }
  tx_batch_.push_back(std::move(p));
  if (tx_batch_.size() >= cfg_.interrupt_coalescing) {
    tx_flush_timer_.cancel();
    flush_tx();
  } else if (!tx_flush_timer_.pending()) {
    tx_flush_timer_ =
        net_.scheduler().schedule_after(cfg_.coalesce_timeout, [this] { flush_tx(); });
  }
}

template <typename Deliver>
void Nic::flush(Batch& pending, Deliver deliver) {
  if (pending.empty()) return;
  Batch batch;
  if (!spare_.empty()) {
    batch = std::move(spare_.back());
    spare_.pop_back();
  }
  batch.swap(pending);
  // One interrupt covers the whole batch (descriptor-ring style).
  cpu_.run_interrupt([this, deliver, batch = std::move(batch)]() mutable {
    for (auto& p : batch) deliver(std::move(p));
    batch.clear();
    spare_.push_back(std::move(batch));
  });
}

void Nic::flush_tx() {
  flush(tx_batch_, [this](net::Packet&& p) { net_.inject(std::move(p)); });
}

void Nic::on_wire_rx(net::Packet&& p) {
  ++rx_count_;
  if (cfg_.interrupt_coalescing <= 1) {
    cpu_.run_interrupt([this, p = std::move(p)]() mutable {
      if (rx_) rx_(std::move(p));
    });
    return;
  }
  rx_batch_.push_back(std::move(p));
  if (rx_batch_.size() >= cfg_.interrupt_coalescing) {
    rx_flush_timer_.cancel();
    flush_rx();
  } else if (!rx_flush_timer_.pending()) {
    rx_flush_timer_ =
        net_.scheduler().schedule_after(cfg_.coalesce_timeout, [this] { flush_rx(); });
  }
}

void Nic::flush_rx() {
  flush(rx_batch_, [this](net::Packet&& p) {
    if (rx_) rx_(std::move(p));
  });
}

}  // namespace adaptive::os
