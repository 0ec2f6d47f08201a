// Minimal self-contained stand-ins for the alsflow types the astcheck
// corpus exercises, so every case reads as real C++20. Never compiled
// into the library and excluded from the header-hygiene check; any
// finding in this header is a false positive.
#pragma once

#include <coroutine>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace corpus {

template <typename T>
struct Future {
  struct promise_type {
    Future get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_value(T) {}
    void unhandled_exception() {}
  };
  bool await_ready() { return true; }
  void await_suspend(std::coroutine_handle<>) {}
  T await_resume() { return {}; }
};

struct Proc {
  struct promise_type {
    Proc get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  void detach() {}
};

Future<int> delay(double seconds);

struct Mutex {
  void lock();
  void unlock();
};
struct LockGuard {
  explicit LockGuard(Mutex&);
  ~LockGuard();
};
struct UniqueLock {
  explicit UniqueLock(Mutex&);
  ~UniqueLock();
};
struct CondVar {
  void wait(Mutex&);
  void wait_for(Mutex&);
  void wait_until(Mutex&);
};

struct Pool {
  void submit(std::function<void()> fn);
  template <typename F>
  void parallel_for(int begin, int end, F fn) {
    for (int i = begin; i < end; ++i) fn(i);
  }
};

struct Engine {
  void register_flow(std::string name, std::function<int(int)> fn);
  void schedule_periodic(std::string name, double interval,
                         std::function<void()> fn);
};

struct Cluster {
  Future<int> wait(int job_id);
};

}  // namespace corpus
