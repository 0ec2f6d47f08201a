#include "monitor/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

namespace alsflow::monitor {

const char* severity_name(Severity s) {
  return s == Severity::Page ? "PAGE" : "TICKET";
}

namespace {

using telemetry::fmt_double;

bool more_severe(Severity a, Severity b) {
  return a == Severity::Page && b == Severity::Ticket;
}

}  // namespace

std::string Alert::render() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[%-6s] %-24s target=%-24s stage=%-14s fired %8.1fs  "
                "burn %.1fx/%.1fx over %.0fs%s%s%s  %s",
                severity_name(severity), slo.c_str(), target.c_str(),
                stage.c_str(), fired_at, burn_long, burn_short, window,
                detail.empty() ? "" : "  (", detail.c_str(),
                detail.empty() ? "" : ")",
                active() ? "[active]"
                         : ("[resolved " + fmt_double(resolved_at) + "s]")
                               .c_str());
  return buf;
}

std::string Alert::json() const {
  using telemetry::json_escape;
  std::string out = "{";
  out += "\"id\": " + std::to_string(id);
  out += ", \"slo\": \"" + json_escape(slo) + "\"";
  out += ", \"target\": \"" + json_escape(target) + "\"";
  out += ", \"stage\": \"" + json_escape(stage) + "\"";
  out += ", \"severity\": \"" + std::string(severity_name(severity)) + "\"";
  out += ", \"fired_at\": " + fmt_double(fired_at);
  out += ", \"resolved_at\": " + fmt_double(resolved_at);
  out += ", \"window_s\": " + fmt_double(window);
  out += ", \"burn_long\": " + fmt_double(burn_long);
  out += ", \"burn_short\": " + fmt_double(burn_short);
  out += ", \"detail\": \"" + json_escape(detail) + "\"";
  out += "}";
  return out;
}

void SloEngine::add(SloSpec spec) {
  if (spec.value_buckets.empty()) {
    // Derive summary buckets around the objective (or an indicator scale
    // for ok-flag specs, whose values are 0/1 success indicators).
    if (spec.use_ok_flag || spec.objective <= 0.0) {
      spec.value_buckets = {0.5, 1.0};
    } else {
      const double o = spec.objective;
      spec.value_buckets = {o * 0.125, o * 0.25, o * 0.5, o,
                            o * 2.0,   o * 4.0,  o * 8.0};
    }
  }
  // Samples live as long as the longest window anyone reads: rule windows
  // for alerting, and health()'s one-hour floor.
  Seconds retention = 3600.0;
  for (const BurnRule& r : spec.rules) {
    retention = std::max(retention, r.window);
  }
  LockGuard lock(m_);
  slos_.push_back(Slo{std::move(spec), retention, {}});
}

std::vector<SloSpec> SloEngine::specs() const {
  LockGuard lock(m_);
  std::vector<SloSpec> out;
  for (const Slo& slo : slos_) out.push_back(slo.spec);
  return out;
}

std::vector<Alert> SloEngine::alerts() const {
  LockGuard lock(m_);
  return history_;
}

SloEngine::Series::Series(const SloSpec& spec)
    : cursors(2 * spec.rules.size(), 0),
      values(std::make_unique<telemetry::Histogram>(spec.value_buckets)) {}

void SloEngine::Series::add(Seconds t, bool good, const std::string& detail,
                            Seconds retention) {
  // Samples arrive in time order but for a few stragglers (a delivery
  // stamped before one already seen), which go in at their time. One older
  // than the retention horizon is aged out below at once.
  std::size_t pos = samples.size();
  if (!samples.empty() && t < samples.back().t) {
    const auto it = std::upper_bound(
        samples.begin() + std::ptrdiff_t(head), samples.end(), t,
        [](Seconds v, const Sample& sm) { return v < sm.t; });
    pos = std::size_t(it - samples.begin());
  }
  const std::uint64_t ordinal = bad_before_at(pos);
  samples.insert(samples.begin() + std::ptrdiff_t(pos), Sample{t, ordinal});
  if (!good) {
    for (std::size_t i = pos + 1; i < samples.size(); ++i) {
      ++samples[i].bad_before;
    }
    details.insert(details.begin() + std::ptrdiff_t(ordinal - details_base),
                   detail);
    ++bad;
  }
  // Age out the front. The newest sample never goes, so samples[head]
  // exists, and its bad_before is the first live bad sample's ordinal.
  const Seconds horizon = samples.back().t - retention;
  while (samples[head].t < horizon) ++head;
  for (; details_base < samples[head].bad_before; ++details_base) {
    details.pop_front();
  }
  if (head >= 64 && 2 * head >= samples.size()) {
    samples.erase(samples.begin(), samples.begin() + std::ptrdiff_t(head));
    for (std::size_t& c : cursors) c = c > head ? c - head : 0;
    head = 0;
  }
}

std::uint64_t SloEngine::Series::bad_before_at(std::size_t i) const {
  return i < samples.size() ? samples[i].bad_before : bad;
}

std::size_t SloEngine::Series::first_at(Seconds from,
                                        std::size_t* cursor) const {
  if (cursor == nullptr) {
    const auto it = std::partition_point(
        samples.begin() + std::ptrdiff_t(head), samples.end(),
        [from](const Sample& sm) { return sm.t < from; });
    return std::size_t(it - samples.begin());
  }
  std::size_t c = std::clamp(*cursor, head, samples.size());
  while (c < samples.size() && samples[c].t < from) ++c;
  while (c > head && samples[c - 1].t >= from) --c;
  return *cursor = c;
}

SloEngine::Series::Window SloEngine::Series::window(std::size_t first) const {
  return {samples.size() - first, std::size_t(bad - bad_before_at(first))};
}

std::string SloEngine::Series::dominant_detail(std::size_t first) const {
  std::map<std::string_view, std::size_t> counts;
  for (std::uint64_t k = bad_before_at(first); k < bad; ++k) {
    ++counts[details[std::size_t(k - details_base)]];
  }
  std::string_view best;
  std::size_t best_n = 0;
  for (const auto& [detail, n] : counts) {
    if (n > best_n) {
      best_n = n;
      best = detail;
    }
  }
  return std::string(best);
}

std::optional<SloEngine::Firing> SloEngine::firing(const Slo& slo,
                                                   const Series& s,
                                                   Seconds now,
                                                   std::size_t* cursors) {
  const SloSpec& spec = slo.spec;
  const double budget = std::max(1.0 - spec.target_fraction, 1e-9);
  auto burn = [budget](Series::Window w) {
    return w.n > 0 ? (double(w.bad) / double(w.n)) / budget : 0.0;
  };
  std::optional<Firing> out;
  for (std::size_t i = 0; i < spec.rules.size(); ++i) {
    const BurnRule& rule = spec.rules[i];
    std::size_t* cursor = cursors != nullptr ? cursors + 2 * i : nullptr;
    const std::size_t first_long = s.first_at(now - rule.window, cursor);
    const Series::Window wl = s.window(first_long);
    if (wl.n < std::max<std::size_t>(spec.min_samples, 1)) continue;
    const double burn_long = burn(wl);
    if (burn_long < rule.burn_threshold) continue;
    const double burn_short = burn(s.window(
        s.first_at(now - rule.window / kShortDivisor,
                   cursor != nullptr ? cursor + 1 : nullptr)));
    if (burn_short < rule.burn_threshold) continue;
    if (!out || more_severe(rule.severity, out->rule->severity)) {
      out = Firing{&rule, burn_long, burn_short, first_long};
    }
  }
  return out;
}

void SloEngine::evaluate(const Slo& slo, const std::string& target,
                         Series& s, Seconds now, std::vector<Alert>* fired) {
  auto f = firing(slo, s, now, s.cursors.data());
  if (!f) {
    if (s.active_alert >= 0) {
      history_[std::size_t(s.active_alert)].resolved_at = now;
      s.active_alert = -1;
    }
    return;
  }
  if (s.active_alert >= 0) {
    Alert& cur = history_[std::size_t(s.active_alert)];
    if (!more_severe(f->rule->severity, cur.severity)) return;
    // Escalation (Ticket -> Page): close the ticket, open a page.
    cur.resolved_at = now;
    s.active_alert = -1;
  }
  Alert a;
  a.id = history_.size() + 1;
  a.slo = slo.spec.name;
  a.target = target;
  a.stage = slo.spec.stage;
  a.severity = f->rule->severity;
  a.fired_at = now;
  a.window = f->rule->window;
  a.burn_long = f->burn_long;
  a.burn_short = f->burn_short;
  a.detail = s.dominant_detail(f->first_long);
  s.active_alert = std::int64_t(history_.size());
  history_.push_back(a);
  if (fired != nullptr) fired->push_back(a);
}

std::vector<Alert> SloEngine::ingest(const telemetry::MonitorEvent& ev) {
  std::vector<Alert> fired;
  LockGuard lock(m_);
  for (Slo& slo : slos_) {
    const SloSpec& spec = slo.spec;
    if (spec.component != ev.component || spec.kind != ev.kind) continue;
    const auto it = slo.series.try_emplace(
        spec.per_target ? ev.target : spec.service_target, spec).first;
    Series& s = it->second;
    bool good = ev.ok;
    if (!spec.use_ok_flag) {
      good = spec.higher_is_better ? ev.value >= spec.objective
                                   : ev.value <= spec.objective;
    }
    s.add(ev.t, good, ev.detail, slo.retention);
    s.values->observe(ev.value);
    evaluate(slo, it->first, s, ev.t, &fired);
  }
  return fired;
}

Alert SloEngine::raise(std::string slo, std::string target,
                       std::string stage, Severity severity, Seconds at,
                       std::string detail) {
  LockGuard lock(m_);
  Alert a;
  a.id = history_.size() + 1;
  a.slo = std::move(slo);
  a.target = std::move(target);
  a.stage = std::move(stage);
  a.severity = severity;
  a.fired_at = at;
  a.detail = std::move(detail);
  history_.push_back(std::move(a));
  return history_.back();
}

void SloEngine::sweep(Seconds now) {
  LockGuard lock(m_);
  for (Slo& slo : slos_) {
    for (auto& [target, s] : slo.series) {
      if (s.active_alert < 0) continue;
      if (!firing(slo, s, now, nullptr)) {
        history_[std::size_t(s.active_alert)].resolved_at = now;
        s.active_alert = -1;
      }
    }
  }
}

std::vector<Alert> SloEngine::active_alerts() const {
  LockGuard lock(m_);
  std::vector<Alert> out;
  for (const Alert& a : history_) {
    if (a.active()) out.push_back(a);
  }
  return out;
}

double SloEngine::health(const std::string& target, Seconds now) const {
  LockGuard lock(m_);
  return health_locked(target, now);
}

double SloEngine::health_locked(const std::string& target,
                                Seconds now) const {
  double worst = 1.0;
  for (const Slo& slo : slos_) {
    auto it = slo.series.find(target);
    if (it == slo.series.end()) continue;
    const Series& s = it->second;
    const Series::Window w =
        s.window(s.first_at(now - slo.retention, nullptr));
    if (w.n > 0) worst = std::min(worst, double(w.n - w.bad) / double(w.n));
  }
  for (const Alert& a : history_) {
    if (!a.active() || a.target != target) continue;
    worst *= a.severity == Severity::Page ? 0.5 : 0.75;
  }
  return std::max(worst, 0.0);
}

std::map<std::string, double> SloEngine::health_scores(Seconds now) const {
  LockGuard lock(m_);
  std::map<std::string, double> out;
  for (const Slo& slo : slos_) {
    for (const auto& [target, s] : slo.series) out[target] = 0.0;
  }
  for (const Alert& a : history_) {
    if (a.active()) out[a.target] = 0.0;
  }
  for (auto& [target, score] : out) score = health_locked(target, now);
  return out;
}

std::string SloEngine::summary(Seconds now) const {
  LockGuard lock(m_);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "  %-24s %-24s %6s %6s %10s %10s %10s  %s\n",
                "slo", "target", "n", "good%", "p50", "p95", "p99", "state");
  out += line;
  for (const Slo& slo : slos_) {
    Seconds window = 0.0;
    for (const BurnRule& r : slo.spec.rules) {
      window = std::max(window, r.window);
    }
    if (window <= 0.0) window = 3600.0;
    for (const auto& [target, s] : slo.series) {
      const Series::Window w = s.window(s.first_at(now - window, nullptr));
      const char* state = "ok";
      if (s.active_alert >= 0) {
        state = severity_name(history_[std::size_t(s.active_alert)].severity);
      }
      std::snprintf(line, sizeof line,
                    "  %-24s %-24s %6zu %5.1f%% %10.3g %10.3g %10.3g  %s\n",
                    slo.spec.name.c_str(), target.c_str(), w.n,
                    w.n > 0 ? 100.0 * double(w.n - w.bad) / double(w.n)
                            : 100.0,
                    s.values->quantile(0.50), s.values->quantile(0.95),
                    s.values->quantile(0.99), state);
      out += line;
    }
  }
  return out;
}

std::vector<SloSpec> default_slos(const DefaultSloConfig& cfg) {
  const std::vector<BurnRule> rules = {
      {cfg.fast_window, cfg.fast_burn, Severity::Page},
      {cfg.slow_window, cfg.slow_burn, Severity::Ticket},
  };
  std::vector<SloSpec> out;

  SloSpec s;
  s.name = "link_delivery_slowdown";
  s.component = "net";
  s.kind = "delivery";
  s.stage = "transfer";
  s.objective = cfg.link_slowdown_objective;
  s.target_fraction = cfg.link_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {1, 2, 4, 8, 16, 32, 64, 128};
  out.push_back(s);

  s = SloSpec{};
  s.name = "transfer_goodput";
  s.component = "transfer";
  s.kind = "transfer_done";
  s.stage = "transfer";
  s.objective = cfg.goodput_floor_bps;
  s.higher_is_better = true;
  s.target_fraction = cfg.goodput_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {1e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9};
  out.push_back(s);

  s = SloSpec{};
  s.name = "transfer_reliability";
  s.component = "transfer";
  s.kind = "file_attempt";
  s.stage = "transfer";
  s.use_ok_flag = true;
  s.target_fraction = cfg.file_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  out.push_back(s);

  s = SloSpec{};
  s.name = "endpoint_availability";
  s.component = "transfer";
  s.kind = "endpoint_write";
  s.stage = "transfer";
  s.use_ok_flag = true;
  s.target_fraction = cfg.endpoint_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  out.push_back(s);

  s = SloSpec{};
  s.name = "facility_queue_wait";
  s.component = "hpc";
  s.kind = "queue_wait";
  s.stage = "facility_queue";
  s.objective = cfg.queue_wait_objective;
  s.target_fraction = cfg.queue_wait_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {5, 15, 30, 60, 120, 300, 600, 1800, 3600};
  out.push_back(s);

  s = SloSpec{};
  s.name = "flow_completion";
  s.component = "flow";
  s.kind = "run_done";
  s.stage = "orchestrate";
  s.per_target = false;
  s.service_target = "orchestrator";
  s.use_ok_flag = true;
  s.target_fraction = cfg.flow_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {60, 120, 300, 600, 1200, 2400, 4800};
  out.push_back(s);

  s = SloSpec{};
  s.name = "scan_e2e_latency";
  s.component = "scan";
  s.kind = "e2e";
  s.stage = "end_to_end";
  s.per_target = false;
  s.service_target = "beamline";
  s.objective = cfg.scan_e2e_objective;
  s.target_fraction = cfg.scan_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  out.push_back(s);

  s = SloSpec{};
  s.name = "time_to_first_slice";
  s.component = "streaming";
  s.kind = "first_slice";
  s.stage = "streaming";
  s.per_target = false;
  s.service_target = "beamline";
  s.objective = cfg.first_slice_objective;
  s.target_fraction = cfg.first_slice_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {1, 5, 10, 20, 40, 60, 120, 300};
  out.push_back(s);

  s = SloSpec{};
  s.name = "sched_turnaround";
  s.component = "sched";
  s.kind = "turnaround";
  s.stage = "placement";
  // Per-target: the event target is the winning facility, so burn is
  // attributed to the site that actually served the scan.
  s.objective = cfg.sched_turnaround_objective;
  s.target_fraction = cfg.sched_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {60, 120, 300, 600, 1200, 2400, 4800, 9600};
  out.push_back(s);

  s = SloSpec{};
  s.name = "serve_queue_wait";
  s.component = "serve";
  s.kind = "queue_wait";
  s.stage = "serve";
  s.objective = cfg.serve_wait_objective;
  s.target_fraction = cfg.serve_target_fraction;
  s.min_samples = cfg.min_samples;
  s.rules = rules;
  s.value_buckets = {0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 1.0};
  out.push_back(s);

  return out;
}

}  // namespace alsflow::monitor
