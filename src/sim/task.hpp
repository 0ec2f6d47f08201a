// Coroutine process layer over the discrete-event Engine (SimPy-style).
//
// Simulation activities are written as C++20 coroutines returning
// Future<T> (a value) or Proc (no value). Coroutines start eagerly and own
// their own frames; completion is published through a shared state that any
// number of other coroutines can `co_await`.
//
//   Proc acquire_scan(Engine& eng, ...) {
//     co_await delay(eng, 180.0);            // 3-minute acquisition
//     auto result = co_await run_recon(...); // join a child activity
//   }
//
// Rules of the model:
//  * Single-threaded: all coroutines run on the Engine's thread.
//  * Waiters are resumed synchronously, in registration order, when a
//    future resolves. Timed waits go through the Engine.
//  * Suspended coroutine frames are only destroyed by running to
//    completion, so nothing parks a coroutine at construction. A
//    long-lived activity (a message consumer, a periodic schedule, an
//    arrival process) is a handler or a chain of Engine timers, and a
//    destroyed world frees every frame it built; only work still in
//    flight when a run stops early (Engine::run_until) is stranded.
//  * Exceptions escaping a simulation coroutine terminate the process;
//    expected failures travel in Result<T> values instead.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace alsflow::sim {

struct Unit {};

// Waiters run in registration order when the value is set. The first
// coroutine to wait while nothing else is registered is kept inline, so
// the common case — one co_await on one future — allocates no callback
// list; every other registration goes through the list behind it.
template <typename T>
class SharedState {
 public:
  bool ready() const { return value_.has_value(); }

  const T& value() const {
    assert(ready());
    return *value_;
  }

  // The caller keeps the state alive for the call (a promise holds it in
  // its frame; Event::trigger holds a reference). A resumed waiter may
  // register or remove callbacks meanwhile: a removed callback that has
  // not run yet never runs, and one registered now never runs either.
  void set_value(T v) {
    assert(!ready() && "future resolved twice");
    value_ = std::move(v);
    if (first_waiter_) std::exchange(first_waiter_, nullptr).resume();
    const std::size_t n = callbacks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      std::function<void()> fn = std::move(callbacks_[i].second);
      if (fn) fn();
    }
    // Free the list: a resolved state can stay alive for a whole campaign.
    std::vector<std::pair<std::uint64_t, std::function<void()>>>().swap(
        callbacks_);
  }

  // Resume `h` once the value is set.
  void add_waiter(std::coroutine_handle<> h) {
    if (!first_waiter_ && callbacks_.empty()) {
      first_waiter_ = h;
    } else {
      add_callback([h] { h.resume(); });
    }
  }

  std::uint64_t add_callback(std::function<void()> fn) {
    const std::uint64_t token = next_token_++;
    callbacks_.emplace_back(token, std::move(fn));
    return token;
  }

  void remove_callback(std::uint64_t token) {
    for (auto it = callbacks_.begin(); it != callbacks_.end(); ++it) {
      if (it->first == token) {
        // While set_value walks the list, blank the entry in place.
        if (ready()) {
          it->second = nullptr;
        } else {
          callbacks_.erase(it);
        }
        return;
      }
    }
  }

 private:
  std::optional<T> value_;
  std::uint32_t next_token_ = 1;
  std::coroutine_handle<> first_waiter_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks_;
};

template <typename T>
struct StateAwaiter {
  std::shared_ptr<SharedState<T>> state;

  bool await_ready() const { return state->ready(); }
  void await_suspend(std::coroutine_handle<> h) { state->add_waiter(h); }
  T await_resume() const { return state->value(); }
};

// A value-producing simulation activity. Eagerly started; awaitable by any
// number of coroutines; the result is copied out to each waiter.
template <typename T>
class [[nodiscard]] Future {
 public:
  struct promise_type {
    std::shared_ptr<SharedState<T>> state = std::make_shared<SharedState<T>>();

    Future get_return_object() { return Future(state); }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { state->set_value(std::move(v)); }
    void unhandled_exception() { std::terminate(); }
  };

  explicit Future(std::shared_ptr<SharedState<T>> state)
      : state_(std::move(state)) {}

  bool done() const { return state_->ready(); }
  const T& value() const { return state_->value(); }
  std::shared_ptr<SharedState<T>> state() const { return state_; }

  StateAwaiter<T> operator co_await() const { return StateAwaiter<T>{state_}; }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

// A simulation activity with no result value.
class [[nodiscard]] Proc {
 public:
  struct promise_type {
    std::shared_ptr<SharedState<Unit>> state =
        std::make_shared<SharedState<Unit>>();

    Proc get_return_object() { return Proc(state); }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() { state->set_value(Unit{}); }
    void unhandled_exception() { std::terminate(); }
  };

  explicit Proc(std::shared_ptr<SharedState<Unit>> state)
      : state_(std::move(state)) {}

  bool done() const { return state_->ready(); }
  std::shared_ptr<SharedState<Unit>> state() const { return state_; }

  StateAwaiter<Unit> operator co_await() const {
    return StateAwaiter<Unit>{state_};
  }

  // Fire-and-forget: the coroutine frame owns itself; dropping the handle
  // is safe and explicit.
  void detach() const {}

 private:
  std::shared_ptr<SharedState<Unit>> state_;
};

// Suspend the current coroutine for `dt` simulated seconds.
struct DelayAwaiter {
  Engine& eng;
  Seconds dt;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    eng.schedule_in(dt, [h] { h.resume(); });
  }
  void await_resume() const {}
};

inline DelayAwaiter delay(Engine& eng, Seconds dt) { return {eng, dt}; }

// One-shot manually-triggered event carrying a value; awaitable like a
// Future. Used for service handshakes (e.g. "acquisition complete").
template <typename T = Unit>
class Event {
 public:
  Event() : state_(std::make_shared<SharedState<T>>()) {}

  bool triggered() const { return state_->ready(); }
  // Holds its own reference: a waiter resumed here may drop this Event's.
  void trigger(T v = T{}) {
    const std::shared_ptr<SharedState<T>> state = state_;
    state->set_value(std::move(v));
  }
  const T& value() const { return state_->value(); }
  std::shared_ptr<SharedState<T>> state() const { return state_; }

  StateAwaiter<T> operator co_await() const { return StateAwaiter<T>{state_}; }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

// Races N states against a timer from inside the awaiting frame: resumes
// with the index of the first state to resolve, or -1 if `window` elapses
// first (the activities keep running either way). Each Slot holds a
// `state` (a shared_ptr to a SharedState) and a `std::uint64_t token` the
// race fills with its callback on that state; the caller owns `racing` and
// leaves it untouched until the race resolves.
//
// Every callback captures only this awaiter and an index, which
// std::function stores inline, so a race allocates nothing of its own.
// Whichever fires first detaches every other callback and the timer before
// resuming, since resuming may destroy this awaiter; a state resolving in
// the same cascade drops the detached callback unrun (SharedState). On a
// tie at one tick, whichever of the resolving event and the timer was
// scheduled first wins.
template <typename Slot>
struct RaceAwaiter {
  RaceAwaiter(Engine& e, std::vector<Slot>& r, Seconds w)
      : eng(e), racing(r), window(w) {}

  Engine& eng;
  std::vector<Slot>& racing;
  Seconds window;
  int winner = -1;
  EventId timer = 0;
  std::coroutine_handle<> waiter;

  bool await_ready() {
    for (std::size_t i = 0; i < racing.size(); ++i) {
      if (racing[i].state->ready()) {
        winner = int(i);
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    waiter = h;
    for (std::size_t i = 0; i < racing.size(); ++i) {
      racing[i].token =
          racing[i].state->add_callback([this, i] { finish(int(i)); });
    }
    timer = eng.schedule_in(window, [this] { finish(-1); });
  }
  int await_resume() const { return winner; }

  void finish(int w) {
    winner = w;
    if (w >= 0) eng.cancel(timer);
    for (std::size_t i = 0; i < racing.size(); ++i) {
      if (int(i) != w) racing[i].state->remove_callback(racing[i].token);
    }
    waiter.resume();  // may destroy this awaiter; no member access after
  }
};

}  // namespace alsflow::sim
