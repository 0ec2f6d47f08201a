// Minimal stand-ins so the lockcheck corpus reads standalone without
// pulling in the real headers. The rank names and values mirror
// src/common/lock_rank.hpp (the tool loads the authoritative table from
// the --root tree).
#pragma once

#include <functional>
#include <string>

#ifndef ALSFLOW_REQUIRES
#define ALSFLOW_REQUIRES(...)
#endif

namespace alsflow {

enum class LockRank : int {
  kLogSink = 110,
  kMetrics = 220,
  kTransferService = 410,
  kServeTicket = 540,
  kServeFrontend = 550,
  kHealthMonitor = 620,
};

class Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name);
  void lock();
  void unlock();
  bool try_lock();
};

class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
};

class UniqueLock {
 public:
  explicit UniqueLock(Mutex& m);
  void lock();
  void unlock();
};

namespace telemetry {
class Counter {
 public:
  void add(double v = 1.0);
};
class Gauge {
 public:
  void set(double v);
};
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
};
class Telemetry {
 public:
  MetricsRegistry& metrics();
};
Telemetry& global();
}  // namespace telemetry

}  // namespace alsflow
