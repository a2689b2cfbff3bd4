// A cancellable priority queue of timed events.
//
// Events are totally ordered by OrderKey = (fire time, sequence): events
// that fire at the same instant run in the order they were scheduled (FIFO
// tie-break via a monotonically increasing sequence number), so simulations
// are reproducible independent of heap internals.
//
// Layout: an indexed 4-ary min-heap of 24-byte POD entries (time, sequence,
// slot) over a slab of slots holding the callables in small-buffer inline
// storage (InlineEvent — no std::function, no per-event heap allocation).
// Each slot carries a generation counter and its current heap position:
// EventIds pack (generation, slot), so a stale handle — the event already
// fired, was cancelled, or the slot was reused — fails the generation check
// and cancel() is a safe no-op, while a live handle cancels eagerly in
// O(log4 n) via the back-pointer.  No tombstones accumulate and there is no
// hash-set of live ids to maintain per push/pop.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inline_event.h"
#include "sim/substrate_stats.h"
#include "sim/time.h"
#include "util/dary_heap.h"

namespace numfabric::sim {

/// Handle returned by `push`, usable with `cancel`.  Opaque; packs the
/// target slot and its generation at scheduling time.
using EventId = std::uint64_t;

/// Never returned by `push`; the conventional "no event pending" sentinel.
inline constexpr EventId kNoEvent = 0;

/// Total execution order of events, compared lexicographically:
///   1. `at`  — fire time;
///   2. `seq` — push order (FIFO tie-break among events at one instant).
struct OrderKey {
  TimeNs at = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const OrderKey& a, const OrderKey& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
};

class EventQueue {
 public:
  /// Schedules `action` at absolute time `at`.  Returns a handle that can be
  /// passed to `cancel` as long as the event has not fired.
  template <typename F>
  EventId push(TimeNs at, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = InlineEvent(std::forward<F>(action));
    if (heap_.size() == heap_.capacity()) {
      ++substrate_stats().allocs_event_queue;
    }
    heap_.push_back(Entry{OrderKey{at, next_seq_++}, slot});
    sift_up(heap_.size() - 1);
    ++substrate_stats().events_scheduled;
    return make_id(slot, s.generation);
  }

  /// Cancels a pending event.  Cancelling an already-fired (or already
  /// cancelled) event is a harmless no-op: the handle's generation no longer
  /// matches the slot's.
  void cancel(EventId id);

  /// True if no runnable event remains.
  bool empty() const { return heap_.empty(); }

  /// Number of runnable events.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest runnable event.  Precondition: !empty().
  TimeNs next_time() const {
    assert(!heap_.empty());
    return heap_.front().key.at;
  }

  struct Fired {
    TimeNs at;
    InlineEvent action;
  };

  /// Pops and returns the earliest runnable event.  Precondition: !empty().
  Fired pop();

 private:
  struct Entry {
    OrderKey key;
    std::uint32_t slot;  // index into slots_
  };
  struct Slot {
    InlineEvent action;
    std::uint32_t generation = 1;  // bumped on fire/cancel; never 0
    std::uint32_t heap_pos = 0;    // current index in heap_
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  // A functor type (not a function pointer) so the sift loops inline it.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key < b.key;
    }
  };

  /// on_move hook for the heap primitives: keeps each slot's heap
  /// back-pointer in sync as entries change position.
  auto track_position() {
    return [this](const Entry& e, std::size_t pos) {
      slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
    };
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Removes the entry at heap position `pos`, restoring the heap property.
  void remove_entry(std::size_t pos);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace numfabric::sim
