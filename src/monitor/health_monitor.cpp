#include "monitor/health_monitor.hpp"

#include <cstdio>
#include <utility>

#include "common/log.hpp"

namespace alsflow::monitor {

HealthMonitor::HealthMonitor() : HealthMonitor(Config()) {}

HealthMonitor::HealthMonitor(Config cfg)
    : cfg_(cfg), recorder_(cfg.recorder) {}

HealthMonitor::~HealthMonitor() { uninstall(); }

void HealthMonitor::add_default_slos(const DefaultSloConfig& cfg) {
  LockGuard lock(m_);
  for (SloSpec& spec : default_slos(cfg)) slos_.add(std::move(spec));
}

void HealthMonitor::add_watermark(std::string name, std::string target,
                                  std::string stage,
                                  std::function<double()> probe) {
  Watermark w;
  w.name = std::move(name);
  w.target = std::move(target);
  w.stage = std::move(stage);
  w.probe = std::move(probe);
  // Baseline the probe before taking m_ — it is user code and may read
  // services (or this monitor) whose locks must stay below ours.
  w.high = w.probe ? w.probe() : 0.0;
  LockGuard lock(m_);
  watermarks_.push_back(std::move(w));
}

void HealthMonitor::install() {
  if (installed_) return;
  telemetry::global().set_event_sink(this);
  if (cfg_.capture_logs) {
    FlightRecorder* rec = &recorder_;
    set_log_sink([rec](const LogRecord& r) {
      rec->record_log(r);
      std::fprintf(stderr, "%s\n", format_log_line(r).c_str());
    });
  }
  installed_ = true;
}

void HealthMonitor::uninstall() {
  if (!installed_) return;
  telemetry::global().set_event_sink(nullptr);
  if (cfg_.capture_logs) set_log_sink(nullptr);
  installed_ = false;
}

void HealthMonitor::check_watermarks(Seconds now) {
  UniqueLock lock(m_);
  for (std::size_t i = 0; i < watermarks_.size(); ++i) {
    Watermark& w = watermarks_[i];
    if (!w.probe) continue;
    lock.unlock();
    const double cur = w.probe();
    lock.lock();
    if (cur < w.high) {
      if (!w.tripped) {
        w.tripped = true;
        char detail[96];
        std::snprintf(detail, sizeof detail, "watermark_drop(%.0f -> %.0f)",
                      w.high, cur);
        const Alert a = slos_.raise(w.name, w.target, w.stage,
                                    Severity::Page, now, detail);
        if (cfg_.snapshot_on_alert) {
          incidents_.push_back(recorder_.snapshot(a, now));
        }
      }
      // Re-arm from the degraded level so a second loss episode is a
      // fresh alert, not a suppressed repeat of this one.
      w.high = cur;
    } else if (cur > w.high) {
      w.high = cur;
      w.tripped = false;
    }
  }
}

void HealthMonitor::on_event(const telemetry::MonitorEvent& ev) {
  recorder_.record_event(ev);
  check_watermarks(ev.t);
  LockGuard lock(m_);
  ++events_seen_;
  for (const Alert& a : slos_.ingest(ev)) {
    if (cfg_.snapshot_on_alert) {
      incidents_.push_back(recorder_.snapshot(a, ev.t));
    }
  }
}

void HealthMonitor::sweep(Seconds now) {
  check_watermarks(now);
  LockGuard lock(m_);
  slos_.sweep(now);
}

std::vector<Alert> HealthMonitor::alerts() const {
  LockGuard lock(m_);
  return slos_.alerts();
}

std::vector<Alert> HealthMonitor::active_alerts() const {
  LockGuard lock(m_);
  return slos_.active_alerts();
}

double HealthMonitor::health(const std::string& target, Seconds now) const {
  LockGuard lock(m_);
  return slos_.health(target, now);
}

std::map<std::string, double> HealthMonitor::health_scores(
    Seconds now) const {
  LockGuard lock(m_);
  return slos_.health_scores(now);
}

std::function<double(Seconds)> HealthMonitor::health_probe(
    std::string target) const {
  return [this, target = std::move(target)](Seconds now) {
    return health(target, now);
  };
}

std::string HealthMonitor::slo_summary(Seconds now) const {
  LockGuard lock(m_);
  return slos_.summary(now);
}

std::vector<std::string> HealthMonitor::incidents() const {
  LockGuard lock(m_);
  return incidents_;
}

std::size_t HealthMonitor::events_seen() const {
  LockGuard lock(m_);
  return events_seen_;
}

}  // namespace alsflow::monitor
