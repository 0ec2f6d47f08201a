#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "common/stats.hpp"
#include "common/telemetry.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Series::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  return alsflow::percentile_sorted(sorted, q);
}

std::uint64_t SpanLog::begin(std::string_view layer, std::string_view name,
                             std::uint64_t parent, std::uint64_t op) {
  const double t = now_s();
  const std::size_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(m_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.layer = layer;
  s.name = name;
  s.start = t;
  s.thread = thread_ids_.emplace(tid, thread_ids_.size()).first->second;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(m_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end = t;
}

Series SpanLog::durations(std::string_view layer, std::string_view name) const {
  Series out;
  std::lock_guard<std::mutex> lock(m_);
  for (const Span& s : spans_) {
    if (s.end >= s.start && s.layer == layer && s.name == name) {
      out.add(s.end - s.start);
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(m_);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f",
                  s.thread, (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    f << (first ? "" : ",") << "\n{\"name\":\""
      << alsflow::telemetry::json_escape(s.name) << "\",\"cat\":\""
      << alsflow::telemetry::json_escape(s.layer) << "\"," << buf
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << "}}";
    first = false;
  }
  f << "\n]}\n";
  return bool(f);
}

double Scope::stop() {
  if (elapsed_ < 0.0) {
    elapsed_ = now_s() - t0_;
    if (id_ != 0) log_.end(id_);
  }
  return elapsed_;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Result::set_median(const std::string& name, const Series& s,
                        const std::string& unit) {
  set(name, s.median(), unit, s.count());
}

void Result::gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) gate_failures_.push_back(what);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + alsflow::telemetry::json_escape(s) + "\"";
}

}  // namespace

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"gates\": " + std::to_string(gates_);
  out += ", \"gate_failures\": [";
  for (std::size_t i = 0; i < gate_failures_.size(); ++i) {
    out += (i ? ", " : "") + quoted(gate_failures_[i]);
  }
  out += "], \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : facts_) {
    out += (first ? "" : ", ") + quoted(k) + ": " + quoted(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + quoted(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + quoted(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "}}";
  return out;
}

void Result::print_table() const {
  for (const auto& [k, v] : facts_) {
    std::printf("  %-34s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-34s %-14.6g %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& g : gate_failures_) {
    std::printf("  GATE FAILED: %s\n", g.c_str());
  }
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

std::uint64_t hash_floats(const float* data, std::size_t n) {
  // Four independent multiply-xor lanes over the bit patterns (so -0.0 and
  // NaN payloads differ), folded at the end: byte-equality checks of
  // served slices stay cheap next to the request they verify.
  std::uint64_t lane[4] = {0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull,
                           0x94D049BB133111EBull, 0xD6E8FEB86659FD93ull};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t w;
      std::memcpy(&w, data + i + 2 * k, sizeof w);
      lane[k] = (lane[k] ^ w) * 0x100000001B3ull;
    }
  }
  std::uint64_t h = std::uint64_t(n);
  for (; i < n; ++i) {
    std::uint32_t w;
    std::memcpy(&w, data + i, sizeof w);
    h = (h ^ w) * 0x100000001B3ull;
  }
  for (std::uint64_t l : lane) h = (h ^ (l ^ (l >> 29))) * 0x9E3779B97F4A7C15ull;
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 finalizer over (seed, k).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (k + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
