#include "monitor/flight_recorder.hpp"

#include <utility>

namespace alsflow::monitor {

namespace {

using telemetry::fmt_double;

const char* domain_name(telemetry::ClockDomain d) {
  return d == telemetry::ClockDomain::Sim ? "sim" : "wall";
}

}  // namespace

void FlightRecorder::record_event(const telemetry::MonitorEvent& ev) {
  LockGuard lock(m_);
  events_.push(ev);
  ++events_seen_;
}

void FlightRecorder::record_log(const LogRecord& rec) {
  LockGuard lock(m_);
  logs_.push(rec);
  ++logs_seen_;
}

std::size_t FlightRecorder::events_recorded() const {
  LockGuard lock(m_);
  return events_seen_;
}

std::size_t FlightRecorder::logs_recorded() const {
  LockGuard lock(m_);
  return logs_seen_;
}

std::string FlightRecorder::snapshot(const Alert& alert, double now) {
  using telemetry::json_escape;
  // Pull the global views before taking our own lock (the tracer and
  // registry have their own locks; never nest them inside ours).
  std::vector<telemetry::SpanRecord> spans =
      telemetry::global().tracer().spans();
  std::vector<std::pair<std::string, double>> metrics =
      telemetry::global().metrics().numeric_values();

  LockGuard lock(m_);
  std::string out = "{\n";
  out += "  \"now\": " + fmt_double(now) + ",\n";
  out += "  \"alert\": " + alert.json() + ",\n";

  out += "  \"events\": [";
  bool first = true;
  events_.for_each([&](const telemetry::MonitorEvent& ev) {
    out += std::string(first ? "\n" : ",\n") + "    {\"t\": " +
           fmt_double(ev.t) + ", \"component\": \"" +
           json_escape(ev.component) + "\", \"kind\": \"" +
           json_escape(ev.kind) + "\", \"target\": \"" +
           json_escape(ev.target) + "\", \"value\": " + fmt_double(ev.value) +
           ", \"ok\": " + (ev.ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(ev.detail) + "\"}";
    first = false;
  });
  out += "\n  ],\n";

  out += "  \"logs\": [";
  first = true;
  logs_.for_each([&](const LogRecord& rec) {
    out += std::string(first ? "\n" : ",\n") + "    \"" +
           json_escape(format_log_line(rec)) + "\"";
    first = false;
  });
  out += "\n  ],\n";

  // The tail of the span stream (begin order), span ids elided: ids are
  // allocation-order artifacts and wall-domain spans make them vary run to
  // run, while the component/name/timing tail is the useful evidence.
  out += "  \"spans\": [";
  first = true;
  const std::size_t from =
      spans.size() > cfg_.span_tail ? spans.size() - cfg_.span_tail : 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out += std::string(first ? "\n" : ",\n") + "    {\"component\": \"" +
           json_escape(s.component) + "\", \"name\": \"" +
           json_escape(s.name) + "\", \"domain\": \"" +
           domain_name(s.domain) + "\", \"start\": " + fmt_double(s.start) +
           ", \"end\": " + fmt_double(s.end) + "}";
    first = false;
  }
  out += "\n  ],\n";

  // Metric deltas since the previous snapshot; every series on the first.
  out += "  \"metric_deltas\": {";
  first = true;
  for (const auto& [name, value] : metrics) {
    auto it = last_metrics_.find(name);
    const double delta = it == last_metrics_.end() ? value : value - it->second;
    if (delta == 0.0) continue;
    out += std::string(first ? "\n" : ",\n") + "    \"" + json_escape(name) +
           "\": " + fmt_double(delta);
    first = false;
  }
  out += "\n  }\n}\n";

  last_metrics_.clear();
  for (const auto& [name, value] : metrics) last_metrics_[name] = value;
  return out;
}

}  // namespace alsflow::monitor
