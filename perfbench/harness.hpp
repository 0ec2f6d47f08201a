// perfbench harness: run options, timing series, the benchmark's own span
// log, and the result record every workload fills.
//
// The benchmark measures alsflow from outside: it times calls into the
// public functions of each src/ module and never edits the program. A
// traced run (--trace 1) additionally records one span per such call in a
// SpanLog (name, start, end, parent, one op id per scan or request); the
// per-layer metrics are computed from those spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // per-layer run instead of the end-to-end run
  bool tiny = false;      // small sizes: self-tests of the benchmark
  // scan_recon single-thread baseline: traced phase only, one warm-up.
  bool baseline = false;
  std::string span_path;  // traced run: where the spans are written
};

// Monotonic wall clock in seconds.
double now_s();

// Samples of one quantity; quantiles are exact order statistics.
class Series {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Series& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t count() const { return v_.size(); }
  double median() const { return quantile(0.5); }
  double quantile(double q) const;  // 0 when empty
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

// In-memory span recorder for the traced run. Thread-safe; disabled logs
// cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t begin(std::string_view layer, std::string_view name,
                      std::uint64_t parent, std::uint64_t op);
  void end(std::uint64_t id);

  // Durations of every closed span named `layer`.`name`.
  Series durations(std::string_view layer, std::string_view name) const;
  std::size_t size() const;
  // Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id = 0, parent = 0, op = 0;
    std::string layer, name;
    double start = 0.0, end = -1.0;
    std::size_t thread = 0;
  };
  const bool enabled_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::map<std::size_t, std::size_t> thread_ids_;
};

// Times one call; records it as a span when the log is enabled.
class Scope {
 public:
  Scope(SpanLog& log, std::string_view layer, std::string_view name,
        std::uint64_t parent = 0, std::uint64_t op = 0)
      : log_(log),
        id_(log.enabled() ? log.begin(layer, name, parent, op) : 0),
        t0_(now_s()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }
  // Close the span (idempotent); returns its wall seconds.
  double stop();

 private:
  SpanLog& log_;
  std::uint64_t id_;
  double t0_;
  double elapsed_ = -1.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// What one invocation reports: metrics, operation counts, correctness
// gates and run facts. Printed as the last line of stdout (JSON).
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  // A timing: median under `name`, with its sample count.
  void set_median(const std::string& name, const Series& s,
                  const std::string& unit = "s");
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(std::size_t n = 1) { failed_ += n; }
  // A correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what);
  void fact(const std::string& key, const std::string& value) {
    facts_[key] = value;
  }

  bool correct() const { return gate_failures_.empty() && failed_ == 0; }
  std::string json() const;
  void print_table() const;  // human-readable, one metric per line

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> facts_;
  std::vector<std::string> gate_failures_;
  std::size_t gates_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// Peak resident set of this process so far, MB (10^6 bytes).
double peak_rss_mb();

// Stable 64-bit hash of a float buffer (byte-equality checks).
std::uint64_t hash_floats(const float* data, std::size_t n);

// Derive an independent 64-bit seed for stream `k` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

// Workloads (one translation unit each).
Result run_scan_recon(const Options& opt, SpanLog& spans);
Result run_viewer_mix(const Options& opt, SpanLog& spans);
Result run_beamline_shift(const Options& opt, SpanLog& spans);
Result run_fleet_campaign(const Options& opt, SpanLog& spans);

}  // namespace perfbench
