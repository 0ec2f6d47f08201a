#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/telemetry.hpp"

namespace alsflow::parallel {

namespace {

// Pool counters, resolved once. The registry guarantees instrument
// references stay valid for its lifetime (clear() zeroes, never frees), so
// caching keeps the enabled hot path at one relaxed fetch_add per chunk.
// The disabled path is a single relaxed load + branch at each site.
struct PoolMetrics {
  telemetry::Counter& invocations;   // parallel_for calls that fanned out
  telemetry::Counter& chunks;        // chunk bodies executed (any thread)
  telemetry::Counter& steals;        // chunks executed by pool workers
  telemetry::Counter& help_drains;   // chunks the submitting caller drained
  telemetry::Counter& posts;         // detached tasks executed
};

PoolMetrics& pool_metrics() {
  auto& m = telemetry::global().metrics();
  static PoolMetrics metrics{
      m.counter("alsflow_pool_invocations_total"),
      m.counter("alsflow_pool_chunks_total"),
      m.counter("alsflow_pool_steals_total"),
      m.counter("alsflow_pool_help_drains_total"),
      m.counter("alsflow_pool_posts_total"),
  };
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn one fewer.
  for (std::size_t i = 1; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
  // Workers drain the queue before exiting, so anything left here means
  // the pool never had workers (or a post raced teardown, which is a
  // contract violation). Run — don't drop — detached tasks so posters
  // waiting on their completion cannot hang; batch tasks cannot be left
  // (their submitter help-drains and blocks inside run_chunks).
  std::vector<Task> leftover;
  {
    LockGuard lock(mutex_);
    leftover.swap(queue_);
  }
  for (const auto& task : leftover) {
    if (task.detached != nullptr) run_task(task);
  }
}

// Execute a task: a detached post (owned closure, freed here) or a batch
// chunk. For chunks the decrement happens under the batch mutex so that
// the owning caller, which re-checks `remaining` under the same mutex,
// cannot race past the wait and destroy the Batch while we still touch it
// (see Batch comment in the header).
void ThreadPool::run_task(const Task& task) {
  if (task.detached != nullptr) {
    (*task.detached)();
    delete task.detached;
    return;
  }
  if (task.hot_region != nullptr) {
    // Re-enter the submitter's hot region for the body only; the batch
    // bookkeeping below (a tracked lock) is pool overhead, not kernel.
    hotguard::HotRegion region(task.hot_region);
    (*task.body)(task.chunk_begin, task.chunk_end);
  } else {
    (*task.body)(task.chunk_begin, task.chunk_end);
  }
  LockGuard lock(task.batch->m);
  if (--task.batch->remaining == 0) task.batch->cv.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      UniqueLock lock(mutex_);
      // Explicit predicate loop (not the lambda overload): the thread-safety
      // analysis treats a lambda as a separate function that does not hold
      // mutex_, so guarded fields must be read in this scope directly.
      while (!stop_ && queue_.empty()) cv_work_.wait(lock.native());
      if (stop_ && queue_.empty()) return;
      task = queue_.back();  // LIFO: innermost batches complete first
      queue_.pop_back();
    }
    if (telemetry::global().enabled()) {
      auto& pm = pool_metrics();
      if (task.detached != nullptr) {
        pm.posts.add();
      } else {
        pm.chunks.add();
        pm.steals.add();
      }
    }
    run_task(task);
  }
}

void ThreadPool::post(std::function<void()> fn) {
  if (workers_.empty()) {
    // Serial pool: no worker will ever pop the queue, so run inline.
    if (telemetry::global().enabled()) pool_metrics().posts.add();
    fn();
    return;
  }
  auto* owned = new std::function<void()>(std::move(fn));
  {
    LockGuard lock(mutex_);
    Task task;
    task.detached = owned;
    queue_.push_back(task);
  }
  cv_work_.notify_one();
}

void ThreadPool::run_chunks(
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t threads = size();
  // ~4 chunks per thread balances load without queue churn.
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, threads * 4));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  if (threads == 1 || chunks == 1) {
    body(begin, end);
    return;
  }

  // All chunks except the first are offered to the pool; the caller runs
  // the first itself. The batch lives on this stack frame: `remaining` is
  // fixed before the tasks become visible (publication ordered by mutex_).
  Batch batch;
  // Snapshot the caller's hot region (if any) so stolen chunks execute
  // under the same marker on the workers.
  const char* hot = hotguard::current_region();
  std::vector<Task> tasks;
  tasks.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t b = begin + c * chunk_size;
    if (b >= end) break;
    tasks.push_back(
        Task{&body, b, std::min(end, b + chunk_size), &batch, nullptr, hot});
  }
  if (tasks.empty()) {
    body(begin, end);
    return;
  }
  {
    // Uncontended (the tasks are not yet published); taken only so the
    // write to the guarded counter is lexically under its lock.
    LockGuard lock(batch.m);
    batch.remaining = tasks.size();
  }

  // Wall-clock span per fan-out (one branch when telemetry is off; the
  // per-chunk cost for workers is a relaxed counter increment). The clock
  // read is an argument, so it stays under the check.
  auto& tel = telemetry::global();
  telemetry::SpanId span = 0;
  if (tel.enabled()) {
    span = tel.begin("pool", "parallel_for", 0,
                     telemetry::Telemetry::wall_now(),
                     telemetry::ClockDomain::Wall);
    tel.attr(span, "iterations", std::uint64_t(n));
    tel.attr(span, "chunks", std::uint64_t(tasks.size() + 1));
    pool_metrics().invocations.add();
  }

  {
    LockGuard lock(mutex_);
    queue_.insert(queue_.end(), tasks.begin(), tasks.end());
  }
  cv_work_.notify_all();

  body(begin, std::min(end, begin + chunk_size));
  if (tel.enabled()) pool_metrics().chunks.add();

  // Help-drain tasks of *this* batch only. Running another caller's chunks
  // here would couple our latency to theirs and, for nested calls, could
  // recurse into unrelated work while our own chunks sit queued.
  for (;;) {
    Task task;
    {
      LockGuard lock(mutex_);
      if (!pop_batch_task_locked(batch, task)) break;
    }
    if (telemetry::global().enabled()) {
      auto& pm = pool_metrics();
      pm.chunks.add();
      pm.help_drains.add();
    }
    run_task(task);
  }

  // Whatever is left of our batch is currently executing on other threads;
  // each of those chunks finishes in finite time, so this wait cannot
  // deadlock even under arbitrary nesting.
  {
    UniqueLock lock(batch.m);
    while (batch.remaining != 0) batch.cv.wait(lock.native());
  }
  if (span != 0) tel.end(span, telemetry::Telemetry::wall_now());
}

bool ThreadPool::pop_batch_task_locked(const Batch& batch, Task& out) {
  auto it = std::find_if(queue_.rbegin(), queue_.rend(),
                         [&](const Task& t) { return t.batch == &batch; });
  if (it == queue_.rend()) return false;
  out = *it;
  queue_.erase(std::next(it).base());
  return true;
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  run_chunks(body, begin, end);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  std::function<void(std::size_t, std::size_t)> chunk_body =
      [&body](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(i);
      };
  run_chunks(chunk_body, begin, end);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ALSFLOW_NUM_THREADS")) {
      const long v = std::atol(env);
      if (v > 0) return std::size_t(v);
    }
    return std::size_t(0);  // hardware concurrency
  }());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for_chunks(begin, end, body);
}

}  // namespace alsflow::parallel
