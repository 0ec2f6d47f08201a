#include "common/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace alsflow::telemetry {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

SpanId Tracer::begin(std::string_view component, std::string_view name,
                     SpanId parent, ClockDomain domain, double t) {
  LockGuard lock(m_);
  SpanRecord rec;
  rec.id = next_++;
  rec.parent = parent;
  rec.domain = domain;
  rec.component = component;
  rec.name = name;
  rec.start = t;
  index_[rec.id] = spans_.size();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

SpanRecord* Tracer::find_locked(SpanId id) {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

void Tracer::end(SpanId id, double t) {
  if (id == 0) return;
  LockGuard lock(m_);
  if (SpanRecord* rec = find_locked(id)) rec->end = t;
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (id == 0) return;
  LockGuard lock(m_);
  if (SpanRecord* rec = find_locked(id)) {
    rec->attrs.emplace_back(std::string(key), std::string(value));
  }
}

void Tracer::attr(SpanId id, std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  attr(id, key, std::string_view(buf));
}

void Tracer::attr(SpanId id, std::string_view key, std::uint64_t value) {
  attr(id, key, std::string_view(std::to_string(value)));
}

std::vector<SpanRecord> Tracer::spans() const {
  LockGuard lock(m_);
  return spans_;
}

std::size_t Tracer::span_count() const {
  LockGuard lock(m_);
  return spans_.size();
}

void Tracer::clear() {
  LockGuard lock(m_);
  spans_.clear();
  index_.clear();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  std::string s(buf);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> snapshot = spans();

  // chrome://tracing nests "X" events by time containment within one
  // (pid, tid) track. Give every root span its own tid so concurrent flow
  // runs render as separate rows with their children nested inside.
  std::unordered_map<SpanId, SpanId> root_of;
  std::unordered_map<SpanId, const SpanRecord*> by_id;
  for (const auto& s : snapshot) by_id[s.id] = &s;
  for (const auto& s : snapshot) {
    SpanId root = s.id;
    for (const SpanRecord* cur = &s; cur->parent != 0;) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
      root = cur->id;
    }
    root_of[s.id] = root;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"sim-time\"}},\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"wall-time\"}}";
  for (const auto& s : snapshot) {
    const int pid = s.domain == ClockDomain::Sim ? 0 : 1;
    const double start_us = s.start * 1e6;
    const double end = s.end >= s.start ? s.end : s.start;
    const double dur_us = (end - s.start) * 1e6;
    out += ",\n{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(s.component) + "\",\"ph\":\"X\",\"ts\":" +
           fmt_double(start_us) + ",\"dur\":" + fmt_double(dur_us) +
           ",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
           std::to_string(root_of[s.id]) + ",\"args\":{\"span_id\":\"" +
           std::to_string(s.id) + "\",\"parent\":\"" +
           std::to_string(s.parent) + "\"";
    for (const auto& [k, v] : s.attrs) {
      out += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

namespace {

void atomic_add_double(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(double v) {
  // Prometheus semantics: bucket i counts v <= bounds[i]; overflow lands in
  // the +Inf bucket.
  const std::size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  atomic_add_double(sumsq_, v * v);
  if (prev == 0) {
    // First observation seeds min/max; racing observers fix up via CAS.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  atomic_min_double(min_, v);
  atomic_max_double(max_, v);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  assert(i <= bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::quantile_from_buckets(double q, std::uint64_t total) const {
  if (total == 0) return 0.0;
  const double min_seen = min_.load(std::memory_order_relaxed);
  const double max_seen = max_.load(std::memory_order_relaxed);
  const double target = q * double(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (double(cumulative + in_bucket) >= target && in_bucket > 0) {
      const double lo = i == 0 ? std::min(0.0, min_seen) : bounds_[i - 1];
      const double hi = i == bounds_.size() ? max_seen : bounds_[i];
      const double frac =
          in_bucket == 0 ? 0.0 : (target - double(cumulative)) / double(in_bucket);
      // A bucket edge can lie outside the samples it holds; the estimate
      // never may. (max/min, not std::clamp: a racing first observe() can
      // briefly publish min > max.)
      const double est = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::max(min_seen, std::min(est, max_seen));
    }
    cumulative += in_bucket;
  }
  return max_seen;
}

double Histogram::quantile(double q) const {
  return quantile_from_buckets(std::clamp(q, 0.0, 1.0), count());
}

Summary Histogram::summary() const {
  Summary s;
  s.n = count();
  if (s.n == 0) return s;
  s.mean = sum() / double(s.n);
  if (s.n > 1) {
    const double var =
        (sumsq_.load(std::memory_order_relaxed) - double(s.n) * s.mean * s.mean) /
        double(s.n - 1);
    s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.median = quantile_from_buckets(0.5, s.n);
  s.p05 = quantile_from_buckets(0.05, s.n);
  s.p95 = quantile_from_buckets(0.95, s.n);
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sumsq_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels) {
  LockGuard lock(m_);
  auto& slot = counters_[{name, labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels) {
  LockGuard lock(m_);
  auto& slot = gauges_[{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const std::string& labels) {
  LockGuard lock(m_);
  auto& slot = histograms_[{name, labels}];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

namespace {

std::string series(const std::string& name, const std::string& labels,
                   const std::string& extra_label = "") {
  std::string all = labels;
  if (!extra_label.empty()) {
    if (!all.empty()) all += ",";
    all += extra_label;
  }
  return all.empty() ? name : name + "{" + all + "}";
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  LockGuard lock(m_);
  std::string out;
  std::string last_type_for;
  auto type_line = [&](const std::string& name, const char* type) {
    if (name != last_type_for) {
      out += "# TYPE " + name + " " + type + "\n";
      last_type_for = name;
    }
  };
  for (const auto& [key, c] : counters_) {
    type_line(key.first, "counter");
    out += series(key.first, key.second) + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [key, g] : gauges_) {
    type_line(key.first, "gauge");
    out += series(key.first, key.second) + " " + fmt_double(g->value()) + "\n";
  }
  for (const auto& [key, h] : histograms_) {
    type_line(key.first, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += h->bucket_count(i);
      out += series(key.first + "_bucket", key.second,
                    "le=\"" + fmt_double(h->bounds()[i]) + "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    cumulative += h->bucket_count(h->bounds().size());
    out += series(key.first + "_bucket", key.second, "le=\"+Inf\"") + " " +
           std::to_string(cumulative) + "\n";
    out += series(key.first + "_sum", key.second) + " " +
           fmt_double(h->sum()) + "\n";
    out += series(key.first + "_count", key.second) + " " +
           std::to_string(h->count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::json() const {
  LockGuard lock(m_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    out += std::string(first ? "\n" : ",\n") + "    \"" +
           json_escape(series(key.first, key.second)) +
           "\": " + std::to_string(c->value());
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [key, g] : gauges_) {
    out += std::string(first ? "\n" : ",\n") + "    \"" +
           json_escape(series(key.first, key.second)) +
           "\": " + fmt_double(g->value());
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [key, h] : histograms_) {
    out += std::string(first ? "\n" : ",\n") + "    \"" +
           json_escape(series(key.first, key.second)) + "\": {\"count\": " +
           std::to_string(h->count()) + ", \"sum\": " + fmt_double(h->sum()) +
           ", \"buckets\": [";
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h->bucket_count(i));
    }
    out += "], \"bounds\": [";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      if (i) out += ", ";
      out += fmt_double(h->bounds()[i]);
    }
    out += "]}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::report() const {
  LockGuard lock(m_);
  std::string out;
  char line[256];
  for (const auto& [key, c] : counters_) {
    std::snprintf(line, sizeof line, "  %-58s %14llu\n",
                  series(key.first, key.second).c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [key, g] : gauges_) {
    std::snprintf(line, sizeof line, "  %-58s %14s\n",
                  series(key.first, key.second).c_str(),
                  fmt_double(g->value()).c_str());
    out += line;
  }
  for (const auto& [key, h] : histograms_) {
    std::snprintf(line, sizeof line, "  %-58s %s\n",
                  series(key.first, key.second).c_str(),
                  h->summary().row(1).c_str());
    out += line;
  }
  return out;
}

void MetricsRegistry::clear() {
  LockGuard lock(m_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::numeric_values()
    const {
  LockGuard lock(m_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + gauges_.size() + 2 * histograms_.size());
  for (const auto& [key, c] : counters_) {
    out.emplace_back(series(key.first, key.second), double(c->value()));
  }
  for (const auto& [key, g] : gauges_) {
    out.emplace_back(series(key.first, key.second), g->value());
  }
  for (const auto& [key, h] : histograms_) {
    out.emplace_back(series(key.first + "_count", key.second),
                     double(h->count()));
    out.emplace_back(series(key.first + "_sum", key.second), h->sum());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Telemetry facade
// ---------------------------------------------------------------------------

double Telemetry::wall_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

void Telemetry::send_event(double t, std::string_view component,
                           std::string_view kind, std::string_view target,
                           double value, bool ok, std::string_view detail) {
  if (EventSink* s = sink_.load(std::memory_order_acquire)) {
    s->on_event(MonitorEvent{t, std::string(component), std::string(kind),
                             std::string(target), value, ok,
                             std::string(detail)});
  }
}

Telemetry& global() {
  static Telemetry instance;
  return instance;
}

}  // namespace alsflow::telemetry
