// Minimal stand-ins so the hotcheck corpus reads standalone without
// pulling in the real headers. Shapes mirror src/parallel/thread_pool.hpp,
// src/parallel/scratch.hpp and src/common/hot_guard.hpp; the analysis
// itself is name-based.
#pragma once

#include <complex>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef ALSFLOW_HOT
#define ALSFLOW_HOT
#endif

namespace alsflow {

class Mutex {
 public:
  void lock();
  void unlock();
};

class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
};

class UniqueLock {
 public:
  explicit UniqueLock(Mutex& m);
  std::unique_lock<std::mutex>& native();
};

void log_info(const char* msg, std::size_t value);

namespace telemetry {
class Counter {
 public:
  void emit(std::size_t value);
};
}  // namespace telemetry

namespace parallel {

template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  for (std::size_t i = begin; i < end; ++i) body(i);
}

template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end, Body&& body) {
  body(begin, end);
}

class WorkerScratch {
 public:
  enum ComplexSlot { kFft2Col, kFilterPad, kGridrecRow };
  static std::span<std::complex<double>> complex_buffer(ComplexSlot slot,
                                                        std::size_t n);
};

}  // namespace parallel

namespace hotguard {
class HotRegion {
 public:
  explicit HotRegion(const char* name);
  ~HotRegion();
};
}  // namespace hotguard

}  // namespace alsflow
