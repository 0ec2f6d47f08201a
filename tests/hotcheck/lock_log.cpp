// Locking and logging from hot bodies: contended locks serialize the pool,
// and log/telemetry sinks take the sink mutex per call.
#include "support.hpp"

namespace alsflow {

class RowAccumulator {
 public:
  void add(double v) {
    LockGuard g(m_);
    total_ += v;
  }
  // Direct: a guard acquired inside the hot body.
  void run(std::size_t n) {
    parallel::parallel_for(0, n, [&](std::size_t i)
    {
      LockGuard g(m_);  // check:expect hot-lock
      total_ += double(i);
    });
  }
  // Transitive: the same-class method takes the lock.
  void run_transitive(std::size_t n) {
    parallel::parallel_for(0, n, [&](std::size_t i)
    {
      add(double(i));  // check:expect hot-lock
    });
  }

 private:
  Mutex m_;
  double total_ = 0.0;
};

void chatty(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    log_info("row", i);  // check:expect hot-log
  });
}

void metered(telemetry::Counter& c, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    c.emit(i);  // check:expect hot-log
  });
}

}  // namespace alsflow
