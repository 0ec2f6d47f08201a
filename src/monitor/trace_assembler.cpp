#include "monitor/trace_assembler.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace alsflow::monitor {

const char* const kStages[6] = {"acquisition", "transfer", "facility_queue",
                                "recon",       "publish",  "orchestrate"};

namespace {

using telemetry::fmt_double;

const std::string* find_attr(const telemetry::SpanRecord& span,
                             const char* key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

// Scan id a *root* span is attributed to; "" = not scan-related.
std::string scan_key_of_root(const telemetry::SpanRecord& root) {
  if (root.component == "flow") {
    if (const std::string* p = find_attr(root, "parameters")) return *p;
    return "";
  }
  if (root.component == "streaming" &&
      root.name.rfind("stream:", 0) == 0) {
    return root.name.substr(7);
  }
  if (root.component == "scan") {
    if (const std::string* p = find_attr(root, "scan_id")) return *p;
    return root.name;
  }
  return "";
}

}  // namespace

Seconds ScanTrace::stage_seconds(const std::string& stage) const {
  auto it = stages.find(stage);
  return it == stages.end() ? 0.0 : it->second;
}

std::string ScanTraceAssembler::stage_of(const telemetry::SpanRecord& span) {
  if (span.component == "transfer") return "transfer";
  if (span.component == "hpc") {
    if (span.name == "queue_wait") return "facility_queue";
    if (span.name == "execute") return "recon";
    return "orchestrate";  // job-span residue: submit, poll, report-back
  }
  if (span.component == "streaming") {
    if (span.name == "gpu_backprojection") return "recon";
    if (span.name == "preview_return") return "transfer";
    // Session residue: frames arriving while the detector integrates.
    return "acquisition";
  }
  if (span.component == "scan") {
    if (span.name == "acquisition") return "acquisition";
    // The umbrella span's self time overlaps its flows; charging it would
    // double count.
    return "";
  }
  if (span.component == "flow") return "orchestrate";
  if (span.component == "task") {
    if (span.name.rfind("scicat_", 0) == 0 || span.name == "publish_volume") {
      return "publish";
    }
    return "orchestrate";  // real work lives in transfer/hpc child spans
  }
  return "";
}

ScanTraceAssembler::ScanTraceAssembler(
    const std::vector<telemetry::SpanRecord>& spans) {
  // Sim-domain spans only; see the header for why wall spans are excluded.
  std::unordered_map<telemetry::SpanId, const telemetry::SpanRecord*> by_id;
  for (const auto& s : spans) {
    if (s.domain == telemetry::ClockDomain::Sim) by_id[s.id] = &s;
  }

  // Root resolution + self time (duration minus sim-domain children).
  std::unordered_map<telemetry::SpanId, telemetry::SpanId> root_of;
  std::unordered_map<telemetry::SpanId, double> child_time;
  for (const auto& s : spans) {
    if (s.domain != telemetry::ClockDomain::Sim) continue;
    telemetry::SpanId root = s.id;
    for (const telemetry::SpanRecord* cur = &s; cur->parent != 0;) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
      root = cur->id;
    }
    root_of[s.id] = root;
    if (s.parent != 0 && by_id.count(s.parent) != 0) {
      child_time[s.parent] += s.duration();
    }
  }

  auto trace_for = [this](const std::string& scan_id) -> ScanTrace& {
    auto it = by_scan_.find(scan_id);
    if (it == by_scan_.end()) {
      it = by_scan_.emplace(scan_id, traces_.size()).first;
      traces_.emplace_back();
      traces_.back().scan_id = scan_id;
      traces_.back().started = -1.0;
    }
    return traces_[it->second];
  };

  // Pass 1 (span order = begin order, deterministic): roots establish the
  // traces and the flow legs.
  std::unordered_map<telemetry::SpanId, std::string> scan_of_root;
  for (const auto& s : spans) {
    if (s.domain != telemetry::ClockDomain::Sim || s.parent != 0) continue;
    const std::string key = scan_key_of_root(s);
    if (key.empty()) continue;
    scan_of_root[s.id] = key;
    ScanTrace& t = trace_for(key);
    if (s.component == "flow") {
      FlowLeg leg;
      leg.flow = s.name;
      if (const std::string* r = find_attr(s, "run_id")) leg.run_id = *r;
      leg.start = s.start;
      leg.end = s.end >= s.start ? s.end : s.start;
      if (!leg.run_id.empty()) {
        by_run_[leg.run_id] = by_scan_.at(key);
      }
      t.legs.push_back(std::move(leg));
    }
  }

  // Pass 2: every span charges its self time to its root's scan and stage,
  // and stretches the scan's [started, finished] envelope.
  for (const auto& s : spans) {
    if (s.domain != telemetry::ClockDomain::Sim) continue;
    auto rit = root_of.find(s.id);
    if (rit == root_of.end()) continue;
    auto kit = scan_of_root.find(rit->second);
    if (kit == scan_of_root.end()) continue;
    ScanTrace& t = trace_for(kit->second);
    const double end = s.end >= s.start ? s.end : s.start;
    if (t.started < 0.0 || s.start < t.started) t.started = s.start;
    t.finished = std::max(t.finished, end);
    const std::string stage = stage_of(s);
    if (stage.empty()) continue;
    double self = s.duration();
    auto ct = child_time.find(s.id);
    if (ct != child_time.end()) self -= ct->second;
    t.stages[stage] += std::max(self, 0.0);
  }
  for (ScanTrace& t : traces_) {
    if (t.started < 0.0) t.started = 0.0;
  }
}

const ScanTrace* ScanTraceAssembler::scan(const std::string& scan_id) const {
  auto it = by_scan_.find(scan_id);
  return it == by_scan_.end() ? nullptr : &traces_[it->second];
}

const ScanTrace* ScanTraceAssembler::run(const std::string& run_id) const {
  auto it = by_run_.find(run_id);
  return it == by_run_.end() ? nullptr : &traces_[it->second];
}

std::string ScanTraceAssembler::render(const ScanTrace& t) const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-12s e2e %8.1fs |", t.scan_id.c_str(),
                t.end_to_end());
  std::string out = buf;
  for (const char* stage : kStages) {
    std::snprintf(buf, sizeof buf, " %s %.1f", stage, t.stage_seconds(stage));
    out += buf;
  }
  out += " | flows:";
  for (const FlowLeg& leg : t.legs) {
    std::snprintf(buf, sizeof buf, " %s:%s %.1fs", leg.flow.c_str(),
                  leg.run_id.c_str(), leg.duration());
    out += buf;
  }
  return out;
}

std::string ScanTraceAssembler::json() const {
  using telemetry::json_escape;
  std::string out = "[";
  bool first_trace = true;
  for (const ScanTrace& t : traces_) {
    out += std::string(first_trace ? "\n" : ",\n") + "  {\"scan_id\": \"" +
           json_escape(t.scan_id) + "\", \"started\": " +
           fmt_double(t.started) + ", \"finished\": " +
           fmt_double(t.finished) + ", \"end_to_end\": " +
           fmt_double(t.end_to_end()) + ",\n   \"stages\": {";
    bool first = true;
    for (const char* stage : kStages) {
      out += std::string(first ? "" : ", ") + "\"" + stage +
             "\": " + fmt_double(t.stage_seconds(stage));
      first = false;
    }
    out += "},\n   \"flows\": [";
    first = true;
    for (const FlowLeg& leg : t.legs) {
      out += std::string(first ? "" : ", ") + "{\"flow\": \"" +
             json_escape(leg.flow) + "\", \"run_id\": \"" +
             json_escape(leg.run_id) + "\", \"start\": " +
             fmt_double(leg.start) + ", \"end\": " + fmt_double(leg.end) + "}";
      first = false;
    }
    out += "]}";
    first_trace = false;
  }
  out += "\n]\n";
  return out;
}

}  // namespace alsflow::monitor
