// HealthMonitor: the live consumer of the telemetry event channel.
//
// One object glues the monitor pieces together: it installs itself as the
// global telemetry::EventSink, feeds every MonitorEvent to the flight
// recorder and the SLO engine, checks watermark probes (monotone counters
// whose *drop* is itself an incident — e.g. run-database record count
// after a DatabaseLoss fault), and snapshots the flight recorder on every
// alert that fires, accumulating self-contained incident documents.
//
// Fully event-driven: evaluation happens at each event's own timestamp
// and the monitor never schedules anything on the sim engine, so it
// composes with Engine::run() (which drains the queue) and adds nothing
// to the event-queue interleaving — campaigns stay byte-deterministic
// with the monitor installed. Call sweep(now) once after the campaign to
// resolve alerts whose series went quiet.
//
// Thread-safe: orchestration events arrive on the sim thread, serve
// events on pool threads; one mutex serializes the SLO engine and
// incident list (the flight recorder has its own).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "monitor/flight_recorder.hpp"
#include "monitor/slo.hpp"

namespace alsflow::monitor {

class HealthMonitor final : public telemetry::EventSink {
 public:
  struct Config {
    FlightRecorder::Config recorder;
    // Install a log sink that records into the flight recorder and writes
    // through to stderr like the default sink; uninstall restores the
    // default. Leave off when the process manages its own log sink.
    bool capture_logs = true;
    // Snapshot the flight recorder when an alert fires.
    bool snapshot_on_alert = true;
  };

  HealthMonitor();
  explicit HealthMonitor(Config cfg);
  ~HealthMonitor() override;  // uninstalls if installed

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Declarative setup (before install()).
  void add_default_slos(const DefaultSloConfig& cfg = {});
  // Watermark probe: `probe()` is re-read whenever an event arrives; a
  // value below the highest seen raises an immediate Page attributed to
  // (name, target, stage) — the canary for silent data loss.
  void add_watermark(std::string name, std::string target, std::string stage,
                     std::function<double()> probe);

  // Register as telemetry::global()'s event sink (and log tee).
  void install();
  void uninstall();

  // telemetry::EventSink
  void on_event(const telemetry::MonitorEvent& ev) override;

  // Final evaluation at campaign end: resolves alerts whose series
  // recovered but saw no further events.
  void sweep(Seconds now);

  std::vector<Alert> alerts() const;
  std::vector<Alert> active_alerts() const;
  double health(const std::string& target, Seconds now) const;
  std::map<std::string, double> health_scores(Seconds now) const;
  // Bound health getter for one target, in the shape the scheduler's
  // FacilityDirectory consumes (sched::FacilityInfo::health): callable on
  // every placement decision, capturing this monitor by pointer — the
  // monitor must outlive the directory it feeds.
  std::function<double(Seconds)> health_probe(std::string target) const;
  std::string slo_summary(Seconds now) const;

  // Incident snapshots (flight-recorder JSON), in alert-fire order.
  std::vector<std::string> incidents() const;

  std::size_t events_seen() const;
  FlightRecorder& recorder() { return recorder_; }

 private:
  struct Watermark {
    std::string name;
    std::string target;
    std::string stage;
    std::function<double()> probe;
    double high = 0.0;
    bool tripped = false;  // one alert per drop episode
  };

  // Re-read every watermark probe and apply its value at `now`. Probes are
  // user callbacks, so each runs with m_ released: a probe that reads this
  // monitor — or any lower-ranked service — would otherwise self-deadlock
  // or invert the lock order.
  void check_watermarks(Seconds now) ALSFLOW_EXCLUDES(m_);

  Config cfg_;
  FlightRecorder recorder_;
  bool installed_ = false;

  mutable Mutex m_{LockRank::kHealthMonitor, "monitor.health"};
  SloEngine slos_ ALSFLOW_GUARDED_BY(m_);
  // A deque, so a watermark stays put while add_watermark appends: its
  // probe (never written once added) runs outside m_.
  std::deque<Watermark> watermarks_ ALSFLOW_GUARDED_BY(m_);
  std::vector<std::string> incidents_ ALSFLOW_GUARDED_BY(m_);
  std::size_t events_seen_ ALSFLOW_GUARDED_BY(m_) = 0;
};

}  // namespace alsflow::monitor
