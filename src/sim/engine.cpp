#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace alsflow::sim {

EventId Engine::schedule_at(Seconds t, std::function<void()> fn) {
  assert(fn && "an event needs a handler");
  t = std::max(t, now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = std::uint32_t(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_.push(Entry{t, next_seq_++, slot, s.generation});
  return EventId(s.generation) << 32 | slot;
}

EventId Engine::schedule_in(Seconds dt, std::function<void()> fn) {
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

std::function<void()> Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  // Generation 0 is skipped on wrap-around, so no EventId is ever 0.
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  return fn;
}

bool Engine::cancel(EventId id) {
  const auto slot = std::uint32_t(id);
  const auto generation = std::uint32_t(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation ||
      !slots_[slot].fn) {
    return false;
  }
  // The handler is destroyed after the slot is free: its captures may
  // re-enter the engine from their destructors.
  release(slot);
  return true;
}

bool Engine::step() {
  while (!queue_.empty()) {
    const Entry e = queue_.top();
    queue_.pop();
    if (!is_live(e)) continue;  // cancelled tombstone
    assert(e.time >= now_);
    now_ = e.time;
    // Move the handler out before invoking: the handler may schedule
    // events (growing the slot vector) or cancel others.
    std::function<void()> fn = release(e.slot);
    ++executed_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Seconds t) {
  while (!queue_.empty()) {
    // Skip over tombstones to find the real next event time.
    if (!is_live(queue_.top())) {
      queue_.pop();
      continue;
    }
    if (queue_.top().time > t) break;
    step();
  }
  now_ = std::max(now_, t);
}

}  // namespace alsflow::sim
