// End-to-end telemetry: span tracer, metrics registry, exporters.
//
// The observability substrate behind the paper's operational story (Table 2
// per-flow durations, Grafana-style bandwidth panels, Prefect run
// introspection). Three pieces:
//
//  * Tracer — nested spans (component, name, key/value attributes) with
//    explicit parent links, so one flow run yields a full tree:
//    flow -> task -> transfer / HPC-job child spans. Spans carry *explicit*
//    timestamps in one of two clock domains: Sim (simulated seconds, passed
//    in from the event engine — deterministic) or Wall (real seconds since
//    process start, for actual compute such as thread-pool batches and
//    recon kernels). Explicit timestamps also allow retroactive spans
//    (e.g. a queue-wait span recorded once the job reports when it
//    started), and keep this layer free of any clock dependency.
//
//  * MetricsRegistry — named counters, gauges and fixed-bucket histograms.
//    Instruments are atomics: increments on the thread-pool hot path are a
//    relaxed fetch_add. References returned by the registry stay valid for
//    the registry's lifetime (clear() zeroes values, never deallocates), so
//    hot paths may cache them.
//
//  * Exporters — Chrome trace_event JSON (open in chrome://tracing or
//    https://ui.perfetto.dev) for span trees; Prometheus text exposition
//    and a JSON snapshot for the registry; a human report() table that
//    reuses Summary::row for histograms.
//
// Everything hangs off a Telemetry instance; global() is the process-wide
// default used by the instrumented services. Telemetry is *disabled* by
// default. Instrumented sites go through Telemetry's two forms — emit()
// for a monitor event, begin()/attr()/end() for a span — which check their
// channel inline first, so the disabled path is one relaxed atomic load
// and a branch, and the sim stays byte-for-byte deterministic with or
// without it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/stats.hpp"
#include "common/thread_safety.hpp"

namespace alsflow::telemetry {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum class ClockDomain { Sim, Wall };

using SpanId = std::uint64_t;  // 0 = "no span" (absent parent / disabled)

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  ClockDomain domain = ClockDomain::Sim;
  std::string component;  // "flow", "task", "transfer", "hpc", ...
  std::string name;
  double start = 0.0;  // seconds in the span's clock domain
  double end = -1.0;   // < 0 while the span is still open
  std::vector<std::pair<std::string, std::string>> attrs;

  double duration() const { return end >= start ? end - start : 0.0; }
};

// Records spans with explicit timestamps. Thread-safe (wall-domain spans
// are begun/ended from pool threads); sim-domain spans are recorded from
// the single engine thread in deterministic order.
class Tracer {
 public:
  // Begin a span at time `t` (in `domain`'s clock). Returns its id.
  SpanId begin(std::string_view component, std::string_view name,
               SpanId parent, ClockDomain domain, double t);
  // Close a span at time `t`. Unknown ids (including 0) are ignored.
  void end(SpanId id, double t);

  void attr(SpanId id, std::string_view key, std::string_view value);
  void attr(SpanId id, std::string_view key, double value);
  void attr(SpanId id, std::string_view key, std::uint64_t value);

  std::vector<SpanRecord> spans() const;  // snapshot, in begin order
  std::size_t span_count() const;
  void clear();

  // Chrome trace_event JSON ("X" complete events; each root span gets its
  // own track so children nest by time containment; sim and wall domains
  // export as separate processes).
  std::string chrome_trace_json() const;

 private:
  // Locate an open span by id; nullptr for unknown ids (and id 0).
  SpanRecord* find_locked(SpanId id) ALSFLOW_REQUIRES(m_);

  mutable Mutex m_{LockRank::kTracer, "telemetry.tracer"};
  std::vector<SpanRecord> spans_ ALSFLOW_GUARDED_BY(m_);
  std::unordered_map<SpanId, std::size_t> index_ ALSFLOW_GUARDED_BY(m_);
  SpanId next_ ALSFLOW_GUARDED_BY(m_) = 1;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram, Prometheus semantics: bucket i counts samples
// with value <= bounds[i]; one implicit +Inf bucket at the end.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) count; i in [0, bounds().size()] where the
  // last index is the +Inf bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  // Approximate Summary for report(): mean = sum/count, exact min/max,
  // median/p05/p95 linearly interpolated within buckets.
  Summary summary() const;

  // Linearly interpolated quantile estimate from the bucket counts — the
  // same estimator summary() uses for its median/p05/p95. q is clamped to
  // [0, 1]; an empty histogram returns 0. The first bucket interpolates
  // from min(0, observed min) and the +Inf bucket toward the exact max,
  // and the estimate is clamped to the observed [min, max].
  double quantile(double q) const;

  void reset();

 private:
  double quantile_from_buckets(double q, std::uint64_t total) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> sumsq_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Named instruments, optionally tagged with a pre-rendered Prometheus label
// string (e.g. labels = "route=\"als-data->nersc-cfs\""). Instruments are
// created on first lookup and live as long as the registry; clear() zeroes
// values but never invalidates references.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const std::string& labels = "");

  // Prometheus text exposition format.
  std::string prometheus_text() const;
  // JSON snapshot { "counters": {...}, "gauges": {...}, "histograms": {...} }.
  std::string json() const;
  // Human-readable table; histogram rows reuse Summary::row.
  std::string report() const;

  void clear();  // zero all values (references stay valid)

  // Flat numeric snapshot in deterministic series order: counters and
  // gauges by value, histograms as <name>_count / <name>_sum. The flight
  // recorder diffs two of these to attach metric deltas to an incident.
  std::vector<std::pair<std::string, double>> numeric_values() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)
  mutable Mutex m_{LockRank::kMetrics, "telemetry.metrics"};
  std::map<Key, std::unique_ptr<Counter>> counters_ ALSFLOW_GUARDED_BY(m_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ ALSFLOW_GUARDED_BY(m_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_
      ALSFLOW_GUARDED_BY(m_);
};

// ---------------------------------------------------------------------------
// Monitor events
// ---------------------------------------------------------------------------

// One health observation pushed by an instrumented component the moment an
// operation concludes: a file landed (or didn't), a job left the queue, a
// link delivered, a flow run reached a terminal state. Unlike spans and
// metrics — which are pull-side artifacts dumped after a run — these feed
// the live SLO engine in src/monitor, which needs attribution (which
// facility, which route, which stage) at event time.
struct MonitorEvent {
  double t = 0.0;          // seconds on the emitter's clock (sim for the
                           // orchestration stack, injected clock for serve)
  std::string component;   // emitting subsystem: "net", "transfer", "hpc",
                           // "flow", "scan", "streaming", "serve"
  std::string kind;        // event type within the component, e.g.
                           // "delivery", "file_attempt", "queue_wait"
  std::string target;      // attribution: link / route / facility /
                           // endpoint / tenant name
  double value = 0.0;      // kind-specific measurement (seconds, bytes/s,
                           // slowdown ratio, ...)
  bool ok = true;          // success flag for availability-style SLOs
  std::string detail;      // failure cause / extra context, e.g.
                           // "checksum_mismatch", "permission_denied"
};

// Consumer of the live event stream (monitor::HealthMonitor). on_event is
// called synchronously from the emitting thread: the single sim thread for
// orchestration events, serve pool threads for serving events — sinks must
// be thread-safe.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const MonitorEvent& ev) = 0;
};

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

class Telemetry {
 public:
  // Disabled by default; begin() checks it, and instrumented services check
  // it before touching the registry.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Wall-clock seconds since process start (steady, monotonic). The time
  // base for ClockDomain::Wall spans.
  static double wall_now();

  // Live health-event channel, orthogonal to enabled(): installing a sink
  // switches emission on; with none installed every emit site costs one
  // relaxed load and a branch, exactly like the enabled() gate. The sink
  // must outlive its installation (uninstall with set_event_sink(nullptr)).
  bool observing() const {
    return sink_.load(std::memory_order_relaxed) != nullptr;
  }
  void set_event_sink(EventSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }

  // The instrumentation forms: an instrumented site emits an event with one
  // emit() call and records a span with one begin()/attr()/end() trio. Each
  // checks its channel inline before touching an argument, and strings pass
  // as views, so with the channel off a call is one relaxed load (emit,
  // begin) or one compare of the span id (attr, end) and allocates nothing.
  // A site that must *build* a string argument or read a clock does so
  // under its own check of the channel.

  // One monitor event; does nothing while no sink is installed.
  void emit(double t, std::string_view component, std::string_view kind,
            std::string_view target, double value, bool ok = true,
            std::string_view detail = {}) {
    if (observing()) send_event(t, component, kind, target, value, ok, detail);
  }
  // ok and detail from a Status: a failure's detail is its error code.
  void emit(double t, std::string_view component, std::string_view kind,
            std::string_view target, double value, const Status& status) {
    if (!observing()) return;
    send_event(t, component, kind, target, value, status.ok(),
               status.ok() ? std::string_view() : status.error().code);
  }

  // Opens a span at `t`; returns 0 while tracing is off, and attr()/end()
  // ignore span 0.
  SpanId begin(std::string_view component, std::string_view name,
               SpanId parent, double t,
               ClockDomain domain = ClockDomain::Sim) {
    return enabled() ? tracer_.begin(component, name, parent, domain, t) : 0;
  }
  void attr(SpanId id, std::string_view key, std::string_view value) {
    if (id != 0) tracer_.attr(id, key, value);
  }
  void attr(SpanId id, std::string_view key, double value) {
    if (id != 0) tracer_.attr(id, key, value);
  }
  void attr(SpanId id, std::string_view key, std::uint64_t value) {
    if (id != 0) tracer_.attr(id, key, value);
  }
  void end(SpanId id, double t) {
    if (id != 0) tracer_.end(id, t);
  }

  void clear() {
    tracer_.clear();
    metrics_.clear();
  }

 private:
  // emit()'s slow path: builds the MonitorEvent and hands it to the sink.
  void send_event(double t, std::string_view component, std::string_view kind,
                  std::string_view target, double value, bool ok,
                  std::string_view detail);

  std::atomic<bool> enabled_{false};
  std::atomic<EventSink*> sink_{nullptr};
  Tracer tracer_;
  MetricsRegistry metrics_;
};

// Process-wide default instance used by the instrumented stack.
Telemetry& global();

// Escape a string for embedding in a JSON string literal (used by the
// exporters; exposed for tests).
std::string json_escape(const std::string& s);

// `%.6f` with trailing zeros (and a bare trailing point) trimmed: fixed
// format keeps exporter output deterministic across platforms.
std::string fmt_double(double v);

}  // namespace alsflow::telemetry
