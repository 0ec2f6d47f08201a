// Discrete-event simulation engine.
//
// Single-threaded event queue over simulated time (Seconds since world
// start). All facility behaviour in alsflow — queue waits, transfer
// durations, scheduled pruning, flow orchestration — executes as events on
// one Engine, making every experiment deterministic and allowing a full
// production day to simulate in milliseconds.
//
// Events scheduled for the same timestamp run in insertion order (stable),
// which keeps causality intuitive: "schedule A then B at t" runs A first.
//
// Storage (DESIGN.md §7): handlers live in a vector of slots recycled
// through a free list, so a steady stream of events allocates nothing but
// what a std::function needs for a large capture. An EventId is
// `generation << 32 | slot`; running or cancelling a handler bumps its
// slot's generation, so a stale id never reaches the slot's next occupant
// and a queue entry whose generation is stale is a tombstone.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace alsflow::sim {

// Never 0: callers use 0 to mean "no event".
using EventId = std::uint64_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Seconds now() const { return now_; }

  // Schedule `fn` at absolute simulated time `t` (clamped to now()).
  EventId schedule_at(Seconds t, std::function<void()> fn);
  // Schedule `fn` after a relative delay (clamped to 0).
  EventId schedule_in(Seconds dt, std::function<void()> fn);

  // Cancel a pending event. Returns false if it already ran, was
  // cancelled, or never existed.
  bool cancel(EventId id);

  // Execute the next pending event; returns false when the queue is empty.
  bool step();

  // Run until the queue drains.
  void run();

  // Run events with time <= t, then set now() = t (even if queue nonempty).
  void run_until(Seconds t);

  std::size_t pending_events() const {
    return slots_.size() - free_slots_.size();
  }

  // Total events executed (for diagnostics and engine tests).
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;  // empty while the slot is free
    std::uint32_t generation = 1;
  };

  bool is_live(const Entry& e) const {
    return slots_[e.slot].generation == e.generation;
  }
  // Takes the handler out of a live slot and frees the slot.
  std::function<void()> release(std::uint32_t slot);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace alsflow::sim
