#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"

namespace alsflow::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(10.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(Engine, SameTimeIsFifo) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(1.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine eng;
  double fired_at = -1.0;
  eng.schedule_at(3.0, [&] {
    eng.schedule_in(2.0, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool ran = false;
  auto id = eng.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // second cancel is a no-op
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(1.0, [&] { ++fired; });
  eng.schedule_at(5.0, [&] { ++fired; });
  eng.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastScheduleClampsToNow) {
  Engine eng;
  eng.run_until(10.0);
  double fired_at = -1.0;
  eng.schedule_at(2.0, [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine eng;
  int depth = 0;
  eng.schedule_at(1.0, [&] {
    ++depth;
    eng.schedule_in(1.0, [&] { ++depth; });
  });
  eng.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(eng.executed_events(), 2u);
}

TEST(Engine, StaleIdNeverCancelsAReusedSlot) {
  Engine eng;
  std::vector<int> ran;
  const EventId first = eng.schedule_at(1.0, [&] { ran.push_back(1); });
  EXPECT_NE(first, 0u);
  eng.run();
  // The next event takes the freed slot under a new generation.
  const EventId second = eng.schedule_at(2.0, [&] { ran.push_back(2); });
  EXPECT_NE(second, first);
  EXPECT_EQ(std::uint32_t(second), std::uint32_t(first));
  EXPECT_FALSE(eng.cancel(first));  // ran: its id is dead
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_TRUE(eng.cancel(second));
  const EventId third = eng.schedule_at(3.0, [&] { ran.push_back(3); });
  EXPECT_FALSE(eng.cancel(second));  // cancelled: dead too
  EXPECT_FALSE(eng.cancel(first));
  EXPECT_FALSE(eng.cancel(0));       // 0 is "no event", never an id
  eng.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_FALSE(eng.cancel(third));
  EXPECT_EQ(eng.pending_events(), 0u);
}

// The map-keyed engine this one replaced, kept as the oracle: handlers in
// a std::map by sequential id, the queue's tombstones found by lookup.
class MapEngine {
 public:
  Seconds now() const { return now_; }
  EventId schedule_at(Seconds t, std::function<void()> fn) {
    t = std::max(t, now_);
    const EventId id = next_id_++;
    queue_.push(Entry{t, next_seq_++, id});
    handlers_.emplace(id, std::move(fn));
    return id;
  }
  EventId schedule_in(Seconds dt, std::function<void()> fn) {
    return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
  }
  bool cancel(EventId id) { return handlers_.erase(id) > 0; }
  bool step() {
    while (!queue_.empty()) {
      const Entry e = queue_.top();
      queue_.pop();
      auto it = handlers_.find(e.id);
      if (it == handlers_.end()) continue;
      now_ = e.time;
      std::function<void()> fn = std::move(it->second);
      handlers_.erase(it);
      ++executed_;
      fn();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(Seconds t) {
    while (!queue_.empty()) {
      if (handlers_.find(queue_.top().id) == handlers_.end()) {
        queue_.pop();
        continue;
      }
      if (queue_.top().time > t) break;
      step();
    }
    now_ = std::max(now_, t);
  }
  std::size_t pending_events() const { return handlers_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::map<EventId, std::function<void()>> handlers_;
};

// One random program over engine E: schedules (tied times, relative
// delays), cancels of live, ran, cancelled and reused-slot ids, steps and
// partial runs, with handlers that schedule and cancel in turn. Returns
// every observation as text; two engines agree iff the texts match.
template <typename E>
std::string random_program(std::uint64_t seed) {
  E eng;
  Rng rng(seed);
  std::vector<EventId> ids;  // by label: this engine's id for each event
  std::string trace;
  auto note = [&](const std::string& what) {
    trace += what + " now=" + std::to_string(eng.now()) +
             " pending=" + std::to_string(eng.pending_events()) +
             " executed=" + std::to_string(eng.executed_events()) + "\n";
  };
  auto cancel_some = [&] {
    if (ids.empty()) return;
    const auto label =
        std::size_t(rng.uniform_int(0, std::int64_t(ids.size()) - 1));
    note("cancel " + std::to_string(label) + " -> " +
         (eng.cancel(ids[label]) ? "true" : "false"));
  };
  std::function<void()> schedule_one = [&] {
    const std::size_t label = ids.size();
    auto handler = [&, label] {
      note("ran " + std::to_string(label));
      if (rng.bernoulli(0.3)) schedule_one();
      if (rng.bernoulli(0.2)) cancel_some();
    };
    // Whole-second times tie often; schedule_in also goes relative.
    const bool absolute = rng.bernoulli(0.5);
    const double t = double(rng.uniform_int(0, absolute ? 20 : 5));
    ids.push_back(absolute ? eng.schedule_at(t, handler)
                           : eng.schedule_in(t, handler));
  };
  for (int op = 0; op < 400; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind < 4) {
      schedule_one();
      note("scheduled " + std::to_string(ids.size() - 1));
    } else if (kind < 7) {
      cancel_some();
    } else if (kind < 9) {
      note(std::string("step -> ") + (eng.step() ? "true" : "false"));
    } else {
      eng.run_until(eng.now() + double(rng.uniform_int(0, 4)));
      note("run_until");
    }
  }
  eng.run();
  note("drained");
  return trace;
}

TEST(Engine, SlotEngineMatchesMapOracleOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string slots = random_program<Engine>(seed);
    const std::string oracle = random_program<MapEngine>(seed);
    ASSERT_EQ(slots, oracle) << "seed " << seed;
  }
}

Proc simple_process(Engine& eng, double& finished_at) {
  co_await delay(eng, 5.0);
  co_await delay(eng, 3.0);
  finished_at = eng.now();
}

TEST(Coro, DelaysAccumulate) {
  Engine eng;
  double finished_at = -1.0;
  simple_process(eng, finished_at).detach();
  eng.run();
  EXPECT_DOUBLE_EQ(finished_at, 8.0);
}

Future<int> answer(Engine& eng) {
  co_await delay(eng, 2.0);
  co_return 42;
}

Proc consumer(Engine& eng, Future<int> fut, int& got, double& at) {
  got = co_await fut;
  at = eng.now();
}

TEST(Coro, FutureDeliversValueToWaiter) {
  Engine eng;
  int got = 0;
  double at = -1.0;
  auto fut = answer(eng);
  consumer(eng, fut, got, at).detach();
  eng.run();
  EXPECT_EQ(got, 42);
  EXPECT_DOUBLE_EQ(at, 2.0);
  EXPECT_TRUE(fut.done());
  EXPECT_EQ(fut.value(), 42);
}

TEST(Coro, MultipleWaitersAllResume) {
  Engine eng;
  int got1 = 0, got2 = 0;
  double at1 = -1, at2 = -1;
  auto fut = answer(eng);
  consumer(eng, fut, got1, at1).detach();
  consumer(eng, fut, got2, at2).detach();
  eng.run();
  EXPECT_EQ(got1, 42);
  EXPECT_EQ(got2, 42);
}

TEST(Coro, AwaitCompletedFutureResumesImmediately) {
  Engine eng;
  auto fut = answer(eng);
  eng.run();
  ASSERT_TRUE(fut.done());
  int got = 0;
  double at = -1.0;
  consumer(eng, fut, got, at).detach();
  eng.run();
  EXPECT_EQ(got, 42);
}

Proc wait_event(Engine& eng, Event<int> ev, int& got) {
  got = co_await ev;
  (void)eng;
}

TEST(Coro, EventTrigger) {
  Engine eng;
  Event<int> ev;
  int got = 0;
  wait_event(eng, ev, got).detach();
  eng.schedule_at(4.0, [&] { ev.trigger(7); });
  eng.run();
  EXPECT_EQ(got, 7);
  EXPECT_TRUE(ev.triggered());
}

// One entrant of a RaceAwaiter: the raced state and the race's token.
struct Entrant {
  std::shared_ptr<SharedState<int>> state;
  std::uint64_t token = 0;
};

// Races one state against a timeout, the way the scheduler races its
// attempts against a failover window.
Proc timeout_waiter(Engine& eng, std::shared_ptr<SharedState<int>> state,
                    Seconds timeout, bool& completed, double& at) {
  std::vector<Entrant> racing{{std::move(state)}};
  completed = (co_await RaceAwaiter{eng, racing, timeout}) == 0;
  at = eng.now();
}

Proc record_on_resolve(std::shared_ptr<SharedState<int>> state, int label,
                       std::vector<int>* order) {
  const Future<int> resolved(state);  // named, as DESIGN.md §7 (c) asks
  co_await resolved;
  order->push_back(label);
}

// Waiters resume in registration order whether they are coroutines (the
// first may be kept inline) or callbacks, with removals in between.
TEST(SharedState, WaitersRunInRegistrationOrderAcrossRemovals) {
  std::vector<int> order;
  auto callback = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };

  // Remove the first of three callbacks, then add a coroutine and a
  // callback behind the other two.
  auto a = std::make_shared<SharedState<int>>();
  const std::uint64_t first = a->add_callback(callback(1));
  a->add_callback(callback(2));
  a->add_callback(callback(3));
  a->remove_callback(first);
  record_on_resolve(a, 4, &order).detach();
  a->add_callback(callback(5));
  a->set_value(0);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5}));

  // The inline first coroutine stays first; remove the middle callback.
  order.clear();
  auto b = std::make_shared<SharedState<int>>();
  record_on_resolve(b, 1, &order).detach();
  const std::uint64_t middle = b->add_callback(callback(2));
  b->add_callback(callback(3));
  b->remove_callback(middle);
  record_on_resolve(b, 4, &order).detach();
  b->add_callback(callback(5));
  b->set_value(0);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 5}));

  // Everything removed: the next coroutine may go inline again, and still
  // runs before what is registered after it.
  order.clear();
  auto c = std::make_shared<SharedState<int>>();
  c->remove_callback(c->add_callback(callback(1)));
  record_on_resolve(c, 2, &order).detach();
  c->add_callback(callback(3));
  c->set_value(0);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

// A callback removed while the state is resolving, before its turn, never
// runs; this is what lets a race detach its losers mid-cascade.
TEST(SharedState, CallbackRemovedDuringResolutionNeverRuns) {
  std::vector<int> order;
  auto state = std::make_shared<SharedState<int>>();
  std::uint64_t later = 0;
  state->add_callback([&] {
    order.push_back(1);
    state->remove_callback(later);
  });
  later = state->add_callback([&] { order.push_back(2); });
  state->add_callback([&] { order.push_back(3); });
  state->set_value(0);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Coro, TimeoutFiresWhenFutureSlow) {
  Engine eng;
  bool completed = true;
  double at = -1.0;
  auto fut = answer(eng);  // resolves at t=2
  timeout_waiter(eng, fut.state(), 1.0, completed, at).detach();
  eng.run();
  EXPECT_FALSE(completed);
  EXPECT_DOUBLE_EQ(at, 1.0);
}

TEST(Coro, TimeoutNotFiredWhenFutureFast) {
  Engine eng;
  bool completed = false;
  double at = -1.0;
  auto fut = answer(eng);  // resolves at t=2
  timeout_waiter(eng, fut.state(), 5.0, completed, at).detach();
  eng.run();
  EXPECT_TRUE(completed);
  EXPECT_DOUBLE_EQ(at, 2.0);
  // The cancelled timer must not linger.
  EXPECT_EQ(eng.pending_events(), 0u);
}

// The state-resolves-at-the-timeout-tick tie. Whichever event was scheduled
// first wins the tick and detaches the loser before resuming the waiter, so
// the loser never touches the frame the winner may have destroyed. Both
// orders must be crash-free and deterministic (the ASan/TSan CI legs check
// the lifetime claim).
TEST(Coro, TimeoutTieCompletionScheduledFirstWins) {
  Engine eng;
  bool completed = false;
  double at = -1.0;
  Event<int> ev;
  // The producer's event enters the queue before the waiter arms its
  // timer for the same tick, so the completion runs first.
  eng.schedule_at(3.0, [ev]() mutable { ev.trigger(9); });
  timeout_waiter(eng, ev.state(), 3.0, completed, at).detach();
  eng.run();
  EXPECT_TRUE(completed);
  EXPECT_DOUBLE_EQ(at, 3.0);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(Coro, TimeoutTieTimerArmedFirstWins) {
  Engine eng;
  bool completed = true;
  double at = -1.0;
  Event<int> ev;
  // The waiter arms its timer first; the producer then schedules its
  // trigger for the same tick. The timer wins, the frame is resumed (and
  // destroyed) on the timeout path, and the late trigger must find no
  // listener left to poke.
  timeout_waiter(eng, ev.state(), 3.0, completed, at).detach();
  eng.schedule_at(3.0, [ev]() mutable { ev.trigger(9); });
  eng.run();
  EXPECT_FALSE(completed);
  EXPECT_DOUBLE_EQ(at, 3.0);
  EXPECT_TRUE(ev.triggered());
  EXPECT_EQ(eng.pending_events(), 0u);
}

Proc hold_sem(Engine& eng, Semaphore& sem, Seconds hold,
              std::vector<double>& acquired_at) {
  co_await sem.acquire();
  acquired_at.push_back(eng.now());
  co_await delay(eng, hold);
  sem.release();
}

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(2);
  std::vector<double> acquired_at;
  for (int i = 0; i < 4; ++i) hold_sem(eng, sem, 10.0, acquired_at).detach();
  eng.run();
  ASSERT_EQ(acquired_at.size(), 4u);
  // Two enter immediately; the next two at t=10 when slots free.
  EXPECT_DOUBLE_EQ(acquired_at[0], 0.0);
  EXPECT_DOUBLE_EQ(acquired_at[1], 0.0);
  EXPECT_DOUBLE_EQ(acquired_at[2], 10.0);
  EXPECT_DOUBLE_EQ(acquired_at[3], 10.0);
  EXPECT_EQ(sem.available(), 2);
}

Proc hold_sem_n(Engine& eng, Semaphore& sem, int n, Seconds hold) {
  co_await sem.acquire(n);
  co_await delay(eng, hold);
  sem.release(n);
}

Proc record_acquire(Engine& eng, Semaphore& sem, std::vector<double>& times) {
  co_await sem.acquire();
  times.push_back(eng.now());
  sem.release();
}

TEST(Semaphore, FifoFairnessForLargeRequest) {
  Engine eng;
  Semaphore sem(4);
  std::vector<double> small_times;
  // Big request (4 tokens) queued behind a holder of 2; a later small
  // request must not starve the big one... and the big one must not be
  // overtaken indefinitely.
  hold_sem_n(eng, sem, 2, 5.0).detach();   // holds 2 until t=5
  hold_sem_n(eng, sem, 4, 5.0).detach();   // needs all 4: waits until t=5
  record_acquire(eng, sem, small_times).detach();  // queued behind big
  eng.run();
  ASSERT_EQ(small_times.size(), 1u);
  EXPECT_DOUBLE_EQ(small_times[0], 10.0);  // after the big request finishes
}

Proc producer(Engine& eng, Queue<int>& q) {
  co_await delay(eng, 1.0);
  q.push(1);
  co_await delay(eng, 1.0);
  q.push(2);
}

Proc consumer_q(Engine& eng, Queue<int>& q, std::vector<std::pair<double, int>>& got) {
  for (int i = 0; i < 2; ++i) {
    int v = co_await q.pop();
    got.emplace_back(eng.now(), v);
  }
}

TEST(Queue, ProducerConsumerTiming) {
  Engine eng;
  Queue<int> q;
  std::vector<std::pair<double, int>> got;
  consumer_q(eng, q, got).detach();
  producer(eng, q).detach();
  eng.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<double, int>{1.0, 1}));
  EXPECT_EQ(got[1], (std::pair<double, int>{2.0, 2}));
}

TEST(Queue, TryPop) {
  Queue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(9);
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace alsflow::sim
