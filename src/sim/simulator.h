// The discrete-event simulator facade: a clock plus an event queue.
//
// This replaces ns-3 used by the paper.  All network components hold a
// reference to one Simulator and drive themselves by scheduling callbacks.
// The schedule API is typed: any callable (lambda, std::function, function
// object) is stored directly in the event queue's inline small-buffer slots,
// so scheduling never heap-allocates for captures up to
// InlineEvent::kInlineBytes.
//
// Events fire in OrderKey order (event_queue.h): by time, and at one
// instant in the order they were scheduled.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace numfabric::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `action` to run `delay` from now.  Negative delays are an
  /// error (they would rewind the clock).
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& action) {
    if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
    return queue_.push(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at the absolute time `at` (must be >= now()).
  template <typename F>
  EventId schedule_at(TimeNs at, F&& action) {
    if (at < now_) throw std::invalid_argument("Simulator: schedule in the past");
    return queue_.push(at, std::forward<F>(action));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs events until the queue drains or `stop()` is called.
  void run();

  /// Runs events with time <= `until`, then sets the clock to `until`.
  void run_until(TimeNs until);

  /// Makes `run`/`run_until` return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for perf reporting).
  std::uint64_t events_executed() const { return events_executed_; }

  bool pending() const { return !queue_.empty(); }

 private:
  EventQueue queue_;
  TimeNs now_ = 0;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
};

}  // namespace numfabric::sim
