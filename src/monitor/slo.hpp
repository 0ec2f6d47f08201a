// Declarative SLOs over the live monitor-event stream, with multi-window
// error-budget burn-rate alerting.
//
// Each SloSpec selects a slice of the MonitorEvent stream (component +
// kind), classifies every sample good or bad (success flag, or value vs
// an objective), and keeps a sliding window of samples per attribution
// target (facility, link, route, endpoint, tenant — or one service-wide
// series). Alerting follows SRE practice: the burn rate is
//
//     burn = bad_fraction / (1 - target_fraction)
//
// i.e. how many times faster than "exactly on SLO" the error budget is
// being spent; burn 1.0 spends a window's budget in exactly one window.
// A rule fires only when the burn exceeds its threshold over BOTH a long
// window and a short companion window (long / kShortDivisor): the long
// window keeps one old blip from paging, the short window confirms the
// problem is still happening right now. Fast rules page (Severity::Page),
// slow rules open tickets.
//
// Everything runs on the caller's clock — events carry their own
// timestamps and the engine never schedules anything, so it composes with
// sim::Engine::run() (which drains the queue) and stays byte-deterministic
// for a fixed seed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "common/units.hpp"

namespace alsflow::monitor {

enum class Severity { Page, Ticket };
const char* severity_name(Severity s);

// One burn-rate rule. The companion short window is window / kShortDivisor.
struct BurnRule {
  Seconds window = 3600.0;
  double burn_threshold = 2.0;
  Severity severity = Severity::Ticket;
};

struct SloSpec {
  std::string name;        // e.g. "transfer_goodput"
  std::string component;   // MonitorEvent.component to match
  std::string kind;        // MonitorEvent.kind to match
  std::string stage;       // pipeline stage for alert attribution
                           // ("transfer", "facility_queue", "recon", ...)

  // One sliding window per event target, or a single service-wide series
  // labelled service_target when per_target is false.
  bool per_target = true;
  std::string service_target = "service";

  // Good-sample predicate: the event's ok flag, or value vs objective.
  bool use_ok_flag = false;
  double objective = 0.0;
  bool higher_is_better = false;  // value >= objective is good

  double target_fraction = 0.99;  // SLO: fraction of samples good
  std::size_t min_samples = 3;    // required in the long window to fire
  std::vector<BurnRule> rules;    // evaluated per sample; empty = no alerts

  // Bucket bounds for the per-series value histogram backing the summary
  // table's p50/p95/p99 columns; defaults derived from the objective.
  std::vector<double> value_buckets;
};

struct Alert {
  std::uint64_t id = 0;
  std::string slo;
  std::string target;
  std::string stage;
  Severity severity = Severity::Ticket;
  Seconds fired_at = 0.0;
  Seconds resolved_at = -1.0;  // < 0 while still active
  Seconds window = 0.0;        // long window of the rule that fired
  double burn_long = 0.0;      // burn rate over that window at fire time
  double burn_short = 0.0;     // over the short companion window
  std::string detail;          // dominant bad-sample detail in-window

  bool active() const { return resolved_at < 0.0; }
  std::string render() const;  // one human-readable line
  std::string json() const;    // one JSON object (no trailing newline)
};

// Internally synchronized behind its own ranked mutex (kMonitorSlo, just
// below HealthMonitor's, so the monitor may call in while holding m_).
// Standalone use from tests or a bare exporter thread is safe too.
class SloEngine {
 public:
  static constexpr double kShortDivisor = 6.0;

  void add(SloSpec spec);
  std::vector<SloSpec> specs() const;

  // Feed one event. Returns the alerts that fired *on this sample* (also
  // appended to the history); resolves alerts whose series recovered.
  // Events matching no spec are ignored.
  std::vector<Alert> ingest(const telemetry::MonitorEvent& ev);

  // Record an externally detected incident (e.g. a watermark-probe drop)
  // in the same alert history. Stays active until resolve() or forever.
  // Returns a copy of the recorded alert.
  Alert raise(std::string slo, std::string target, std::string stage,
              Severity severity, Seconds at, std::string detail);

  // Re-evaluate every series with an active alert at `now`, resolving any
  // whose burn dropped below threshold. Never fires new alerts (firing
  // requires a fresh bad sample).
  void sweep(Seconds now);

  std::vector<Alert> alerts() const;  // fire order
  std::vector<Alert> active_alerts() const;

  // Health score in [0, 1] for one attribution target at `now`: the worst
  // good-fraction across that target's series, scaled down while alerts
  // are active (x0.5 per Page, x0.75 per Ticket). 1.0 with no data.
  double health(const std::string& target, Seconds now) const;
  // Scores for every target that has a series or an alert.
  std::map<std::string, double> health_scores(Seconds now) const;

  // Human table: one row per (slo, target) with window sample counts,
  // good fraction, value p50/p95/p99 and alert state.
  std::string summary(Seconds now) const;

 private:
  // One attribution target's samples in time order, pruned to the spec's
  // retention. Each sample carries the number of bad samples stored before
  // it, so a window's bad count is the difference of two running counters
  // at the window boundary (DESIGN.md §14).
  struct Series {
    struct Sample {
      Seconds t = 0.0;
      std::uint64_t bad_before = 0;
    };
    // A window from `first` (an index into samples) to the newest sample.
    struct Window {
      std::size_t n = 0;
      std::size_t bad = 0;
    };

    explicit Series(const SloSpec& spec);

    // Store one sample in time order, then age out every sample more than
    // `retention` older than the newest (a straggler that old goes at once).
    void add(Seconds t, bool good, const std::string& detail,
             Seconds retention);
    // Index of the first live sample with t >= from. Given a cursor, walk
    // it there from where the last call left it (O(1) amortized while
    // `from` follows the clock); otherwise binary-search.
    std::size_t first_at(Seconds from, std::size_t* cursor) const;
    Window window(std::size_t first) const;
    // Bad samples stored before index i (all of them at i == size).
    std::uint64_t bad_before_at(std::size_t i) const;
    // Most frequent detail among the window's bad samples, ties broken
    // lexicographically; "" when none is bad.
    std::string dominant_detail(std::size_t first) const;

    std::vector<Sample> samples;  // live from `head`, sorted by t
    std::size_t head = 0;
    std::uint64_t bad = 0;  // bad samples ever stored
    // Detail of each live bad sample, in sample order; the front one is
    // the bad sample whose bad_before is details_base.
    std::deque<std::string> details;
    std::uint64_t details_base = 0;
    std::vector<std::size_t> cursors;  // per rule: long, short boundary
    std::unique_ptr<telemetry::Histogram> values;  // all-time, for summary
    std::int64_t active_alert = -1;  // index into history_, -1 = none
  };
  // One spec and its series, by target.
  struct Slo {
    SloSpec spec;
    Seconds retention = 0.0;  // longest window anyone reads
    std::map<std::string, Series> series;
  };
  struct Firing {
    const BurnRule* rule = nullptr;
    double burn_long = 0.0;
    double burn_short = 0.0;
    std::size_t first_long = 0;  // the rule's long window starts here
  };

  // Highest-severity rule over its threshold on both windows at `now`, if
  // any. `cursors` (two per rule) is the series' own on the ingest path,
  // null for queries at arbitrary times.
  static std::optional<Firing> firing(const Slo& slo, const Series& s,
                                      Seconds now, std::size_t* cursors);
  void evaluate(const Slo& slo, const std::string& target, Series& s,
                Seconds now, std::vector<Alert>* fired) ALSFLOW_REQUIRES(m_);
  double health_locked(const std::string& target, Seconds now) const
      ALSFLOW_REQUIRES(m_);

  mutable Mutex m_{LockRank::kMonitorSlo, "monitor.slo"};
  std::vector<Slo> slos_ ALSFLOW_GUARDED_BY(m_);
  std::vector<Alert> history_ ALSFLOW_GUARDED_BY(m_);
};

// Tunables for the stock SLO set; the defaults fit the shipped Facility
// world (ESnet-class links, production scan cadence). Tests tighten the
// objectives and shrink the windows to match their small rigs.
struct DefaultSloConfig {
  // net: per-delivery slowdown (actual time / contention-free time).
  double link_slowdown_objective = 8.0;
  double link_target_fraction = 0.80;
  // transfer: whole-task goodput floor and per-file reliability.
  double goodput_floor_bps = 1e7;
  double goodput_target_fraction = 0.80;
  double file_target_fraction = 0.95;
  // storage: endpoint write availability.
  double endpoint_target_fraction = 0.95;
  // hpc: facility queue wait.
  Seconds queue_wait_objective = 600.0;
  double queue_wait_target_fraction = 0.70;
  // flow: orchestrator run completion.
  double flow_target_fraction = 0.95;
  // pipeline: scan end-to-end latency and time-to-first-slice.
  Seconds scan_e2e_objective = 3600.0;
  double scan_target_fraction = 0.90;
  Seconds first_slice_objective = 60.0;
  double first_slice_target_fraction = 0.90;
  // serve: per-tenant queue wait (the p99 objective as a good/bad floor).
  Seconds serve_wait_objective = 0.25;
  double serve_target_fraction = 0.99;
  // sched: federated-scheduler scan turnaround (submit -> winning
  // placement completed, failovers and hedges included).
  Seconds sched_turnaround_objective = 7200.0;
  double sched_target_fraction = 0.90;
  // Burn windows shared by every spec.
  Seconds fast_window = 600.0;   // pages
  double fast_burn = 3.0;
  Seconds slow_window = 3600.0;  // tickets
  double slow_burn = 1.5;
  std::size_t min_samples = 3;
};

std::vector<SloSpec> default_slos(const DefaultSloConfig& cfg = {});

}  // namespace alsflow::monitor
