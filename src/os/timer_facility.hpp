// Per-host timer facility — the OS service behind TKO_Event.
//
// A thin, instrumented veneer over the event scheduler: protocol code sees
// only this interface, insulating TKO from the simulation kernel exactly as
// the TKO protocol architecture insulates it from a real OS (Section 4.2.1).
#pragma once

#include "sim/event_scheduler.hpp"
#include "sim/time.hpp"

#include <cstdint>

namespace adaptive::os {

class TimerFacility {
public:
  explicit TimerFacility(sim::EventScheduler& sched) : sched_(sched) {}

  using Callback = sim::Task;

  sim::EventHandle schedule(sim::SimTime delay, Callback&& cb) {
    ++scheduled_;
    return sched_.schedule_after(delay, std::move(cb));
  }

  [[nodiscard]] sim::SimTime now() const { return sched_.now(); }
  [[nodiscard]] std::uint64_t timers_scheduled() const { return scheduled_; }
  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }

private:
  sim::EventScheduler& sched_;
  std::uint64_t scheduled_ = 0;
};

}  // namespace adaptive::os
