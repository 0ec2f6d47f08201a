// Corpus: blocking-in-coroutine. The simulation is single-threaded and
// event-driven; a thread-blocking primitive inside a sim-domain coroutine
// stalls every in-flight flow. Sleeps go through sim::delay, waits
// through co_await. Parsed, never compiled.
#include "corpus_stubs.hpp"

#include <chrono>
#include <thread>

namespace corpus {

struct Blocking {
  Mutex mu_;
  CondVar cv_;
  Cluster cluster_;

  // BAD: wall-clock sleep inside a sim coroutine.
  Future<int> bad_sleep() {
    std::this_thread::sleep_for(  // check:expect blocking-in-coroutine
        std::chrono::seconds(1));
    co_return 1;
  }

  // BAD: explicit mutex lock in a coroutine body.
  Future<int> bad_lock() {
    mu_.lock();  // check:expect blocking-in-coroutine
    co_await delay(1.0);
    mu_.unlock();
    co_return 1;
  }

  // BAD: bare condition-variable wait outside any co_await expression.
  Future<int> bad_bare_wait() {
    cv_.wait_for(mu_);  // check:expect blocking-in-coroutine
    co_return 1;
  }

  // GOOD: co_await'ing an awaitable that happens to be named wait().
  Future<int> good_awaited_wait(int id) {
    co_return co_await cluster_.wait(id);
  }

  // GOOD: sim-domain delay is the non-blocking clock.
  Future<int> good_sim_delay() {
    co_await delay(5.0);
    co_return 1;
  }

  // GOOD: blocking primitives in a plain worker thread are the
  // determinism lint's business, not this rule's.
  void good_plain_worker() {
    mu_.lock();
    mu_.unlock();
  }
};

}  // namespace corpus
