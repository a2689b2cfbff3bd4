#include "sim/simulator.h"

namespace numfabric::sim {

void Simulator::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    ++events_executed_;
    fired.action();
  }
}

void Simulator::run_until(TimeNs until) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= until) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    ++events_executed_;
    fired.action();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace numfabric::sim
