// Bounded flight recorder: the recent past, kept on hand for incidents.
//
// Ring buffers of the latest monitor events and log records, plus a
// metrics watermark, fill continuously at negligible cost. When an alert
// fires, snapshot() freezes everything relevant into one self-contained
// JSON document — the alert, the event ring, the log ring, the tail of
// the span stream, and every metric series that moved since the previous
// snapshot — so each incident ships its own evidence instead of asking an
// operator to correlate four dump files after the fact.
//
// Thread-safe: rings are fed from the sim thread and (for serve events and
// logs) pool threads; HealthMonitor also snapshots from whatever thread
// the firing event arrived on.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "monitor/slo.hpp"

namespace alsflow::monitor {

class FlightRecorder {
 public:
  struct Config {
    std::size_t event_capacity = 256;  // monitor-event ring slots
    std::size_t log_capacity = 128;    // log-record ring slots
    std::size_t span_tail = 48;        // spans quoted per snapshot
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(Config cfg)
      : cfg_(cfg), events_(cfg.event_capacity), logs_(cfg.log_capacity) {}

  void record_event(const telemetry::MonitorEvent& ev);
  void record_log(const LogRecord& rec);

  // Freeze the current rings around `alert` into one JSON document. Spans
  // and metrics are read from telemetry::global(); metric deltas are
  // relative to the previous snapshot (all current values on the first).
  std::string snapshot(const Alert& alert, double now);

  std::size_t events_recorded() const;
  std::size_t logs_recorded() const;

 private:
  // Fixed-capacity ring: once full, a record is assigned over the oldest
  // entry, reusing its storage and string buffers.
  template <typename T>
  class Ring {
   public:
    explicit Ring(std::size_t capacity) : capacity_(capacity) {}
    void push(const T& item) {
      if (items_.size() < capacity_) {
        items_.push_back(item);
      } else if (capacity_ > 0) {
        items_[oldest_] = item;
        oldest_ = (oldest_ + 1) % capacity_;
      }
    }
    // Oldest first.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t k = 0; k < items_.size(); ++k) {
        fn(items_[(oldest_ + k) % items_.size()]);
      }
    }

   private:
    std::size_t capacity_;
    std::vector<T> items_;
    std::size_t oldest_ = 0;
  };

  Config cfg_;
  mutable Mutex m_{LockRank::kFlightRecorder, "monitor.flight_recorder"};
  Ring<telemetry::MonitorEvent> events_ ALSFLOW_GUARDED_BY(m_);
  Ring<LogRecord> logs_ ALSFLOW_GUARDED_BY(m_);
  std::map<std::string, double> last_metrics_ ALSFLOW_GUARDED_BY(m_);
  std::size_t events_seen_ ALSFLOW_GUARDED_BY(m_) = 0;
  std::size_t logs_seen_ ALSFLOW_GUARDED_BY(m_) = 0;
};

}  // namespace alsflow::monitor
