// src/monitor test suite.
//
// Three layers:
//  * unit tests for the SLO engine (burn-rate math, escalation, resolve),
//    the scan-trace assembler (stage taxonomy, synthetic span trees) and
//    the flight recorder (ring bounds, snapshot JSON, metric deltas);
//  * the chaos -> alert matrix: one test per FaultKind, each asserting the
//    HealthMonitor raises a correctly *attributed* alert (right SLO, right
//    link/route/facility/endpoint) when that fault is injected into the
//    golden campaign rig from test_chaos.cpp;
//  * the two system invariants: a fault-free campaign with the monitor
//    installed raises zero alerts (no false positives), and a monitored
//    chaos campaign is byte-deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/scenario.hpp"
#include "common/checksum.hpp"
#include "common/telemetry.hpp"
#include "monitor/flight_recorder.hpp"
#include "monitor/health_monitor.hpp"
#include "monitor/slo.hpp"
#include "monitor/trace_assembler.hpp"
#include "pipeline/facility.hpp"

namespace alsflow::monitor {
namespace {

using chaos::ChaosEngine;
using chaos::FaultKind;
using chaos::Scenario;
using pipeline::Facility;
using pipeline::FacilityConfig;
using pipeline::ScanOptions;
using pipeline::ScanOutcome;

telemetry::MonitorEvent mk(double t, const char* component, const char* kind,
                           const char* target, double value, bool ok = true,
                           const char* detail = "") {
  telemetry::MonitorEvent ev;
  ev.t = t;
  ev.component = component;
  ev.kind = kind;
  ev.target = target;
  ev.value = value;
  ev.ok = ok;
  ev.detail = detail;
  return ev;
}

bool has_alert(const std::vector<Alert>& alerts, const std::string& slo,
               const std::string& target = "",
               const std::string& detail_sub = "") {
  for (const Alert& a : alerts) {
    if (a.slo != slo) continue;
    if (!target.empty() && a.target != target) continue;
    if (!detail_sub.empty() &&
        a.detail.find(detail_sub) == std::string::npos) {
      continue;
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// SloEngine unit tests
// ---------------------------------------------------------------------------

SloSpec flag_spec(double target_fraction, std::size_t min_samples,
                  std::vector<BurnRule> rules) {
  SloSpec s;
  s.name = "availability";
  s.component = "svc";
  s.kind = "op";
  s.stage = "transfer";
  s.use_ok_flag = true;
  s.target_fraction = target_fraction;
  s.min_samples = min_samples;
  s.rules = std::move(rules);
  return s;
}

TEST(SloEngineUnit, BurnRateNeedsBothWindowsAndFires) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 3, {{600.0, 2.0, Severity::Ticket}}));
  // Eight good samples: no alert, healthy series.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(eng.ingest(mk(10.0 * i, "svc", "op", "a", 1.0)).empty());
  }
  // One bad sample: burn_long = (1/9)/0.1 = 1.1 < 2.0 — still quiet.
  EXPECT_TRUE(eng.ingest(mk(100.0, "svc", "op", "a", 0.0, false,
                            "timeout")).empty());
  EXPECT_TRUE(eng.active_alerts().empty());
  // Two more bad samples push both windows over 2x budget burn.
  eng.ingest(mk(110.0, "svc", "op", "a", 0.0, false, "timeout"));
  eng.ingest(mk(120.0, "svc", "op", "a", 0.0, false, "timeout"));
  auto active = eng.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].slo, "availability");
  EXPECT_EQ(active[0].target, "a");
  EXPECT_EQ(active[0].stage, "transfer");
  EXPECT_EQ(active[0].severity, Severity::Ticket);
  EXPECT_EQ(active[0].detail, "timeout");  // dominant bad-sample cause
  EXPECT_GE(active[0].burn_long, 2.0);
  EXPECT_GE(active[0].burn_short, 2.0);
}

TEST(SloEngineUnit, MinSamplesGatesSparseSeries) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 5, {{600.0, 2.0, Severity::Ticket}}));
  // Three all-bad samples burn far over threshold but cannot fire: the
  // long window holds fewer than min_samples observations.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        eng.ingest(mk(10.0 * i, "svc", "op", "a", 0.0, false)).empty());
  }
  EXPECT_TRUE(eng.alerts().empty());
}

TEST(SloEngineUnit, TargetsKeepIndependentSeries) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 3, {{600.0, 2.0, Severity::Ticket}}));
  for (int i = 0; i < 5; ++i) {
    eng.ingest(mk(10.0 * i, "svc", "op", "healthy", 1.0));
    eng.ingest(mk(10.0 * i, "svc", "op", "broken", 0.0, false));
  }
  auto alerts = eng.alerts();
  EXPECT_TRUE(has_alert(alerts, "availability", "broken"));
  EXPECT_FALSE(has_alert(alerts, "availability", "healthy"));
}

TEST(SloEngineUnit, ValueObjectiveClassifiesBothDirections) {
  SloEngine eng;
  SloSpec latency;
  latency.name = "latency";
  latency.component = "svc";
  latency.kind = "lat";
  latency.objective = 10.0;  // value <= 10 is good
  latency.target_fraction = 0.5;
  latency.min_samples = 2;
  latency.rules = {{600.0, 1.5, Severity::Ticket}};
  eng.add(latency);
  SloSpec goodput;
  goodput.name = "goodput";
  goodput.component = "svc";
  goodput.kind = "bps";
  goodput.objective = 100.0;  // value >= 100 is good
  goodput.higher_is_better = true;
  goodput.target_fraction = 0.5;
  goodput.min_samples = 2;
  goodput.rules = {{600.0, 1.5, Severity::Ticket}};
  eng.add(goodput);

  for (int i = 0; i < 4; ++i) {
    eng.ingest(mk(10.0 * i, "svc", "lat", "a", 50.0));   // bad: too slow
    eng.ingest(mk(10.0 * i, "svc", "bps", "a", 20.0));   // bad: too little
  }
  EXPECT_TRUE(has_alert(eng.alerts(), "latency", "a"));
  EXPECT_TRUE(has_alert(eng.alerts(), "goodput", "a"));

  SloEngine quiet;
  quiet.add(latency);
  quiet.add(goodput);
  for (int i = 0; i < 4; ++i) {
    quiet.ingest(mk(10.0 * i, "svc", "lat", "a", 5.0));    // good
    quiet.ingest(mk(10.0 * i, "svc", "bps", "a", 500.0));  // good
  }
  EXPECT_TRUE(quiet.alerts().empty());
}

TEST(SloEngineUnit, TicketEscalatesToPageAndClosesTicket) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 3,
                    {{60.0, 10.0, Severity::Page},      // all-bad minute
                     {600.0, 2.0, Severity::Ticket}}));  // sustained burn
  for (int i = 0; i < 8; ++i) {
    eng.ingest(mk(10.0 * i, "svc", "op", "a", 1.0));
  }
  // Moderate failure rate opens the slow-window ticket.
  eng.ingest(mk(80.0, "svc", "op", "a", 0.0, false));
  eng.ingest(mk(90.0, "svc", "op", "a", 0.0, false));
  auto active = eng.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].severity, Severity::Ticket);

  // A dense all-bad burst saturates the fast window: escalation closes the
  // ticket and opens a page on the same series.
  for (int i = 0; i < 7; ++i) {
    eng.ingest(mk(200.0 + double(i), "svc", "op", "a", 0.0, false));
  }
  active = eng.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].severity, Severity::Page);
  auto all = eng.alerts();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].severity, Severity::Ticket);
  EXPECT_FALSE(all[0].active());  // closed at escalation time
  EXPECT_EQ(all[1].severity, Severity::Page);
}

TEST(SloEngineUnit, RecoveryResolvesOnIngestAndSweep) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 3, {{100.0, 2.0, Severity::Ticket}}));
  for (int i = 0; i < 5; ++i) {
    eng.ingest(mk(double(i), "svc", "op", "a", 0.0, false));
  }
  ASSERT_EQ(eng.active_alerts().size(), 1u);
  // Good samples dilute the window until the burn clears: resolution
  // happens on ingest, stamped with the recovering sample's time.
  for (int i = 0; i < 40; ++i) {
    eng.ingest(mk(10.0 + double(i), "svc", "op", "a", 1.0));
  }
  EXPECT_TRUE(eng.active_alerts().empty());
  auto all = eng.alerts();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_GE(all[0].resolved_at, 10.0);

  // sweep(): a series that merely goes quiet resolves once its samples age
  // out of the window.
  SloEngine idle;
  idle.add(flag_spec(0.9, 3, {{100.0, 2.0, Severity::Ticket}}));
  for (int i = 0; i < 5; ++i) {
    idle.ingest(mk(double(i), "svc", "op", "a", 0.0, false));
  }
  ASSERT_EQ(idle.active_alerts().size(), 1u);
  idle.sweep(500.0);
  EXPECT_TRUE(idle.active_alerts().empty());
}

TEST(SloEngineUnit, RaiseRecordsExternalIncidentAndScalesHealth) {
  SloEngine eng;
  const Alert& a = eng.raise("db_watermark", "run_db", "orchestrate",
                             Severity::Page, 42.0, "watermark_drop(10 -> 0)");
  EXPECT_EQ(a.id, 1u);
  EXPECT_TRUE(a.active());
  ASSERT_EQ(eng.active_alerts().size(), 1u);
  // No series data: health is 1.0 scaled by the active page.
  EXPECT_DOUBLE_EQ(eng.health("run_db", 100.0), 0.5);
  EXPECT_DOUBLE_EQ(eng.health("elsewhere", 100.0), 1.0);
  auto scores = eng.health_scores(100.0);
  ASSERT_EQ(scores.count("run_db"), 1u);
  EXPECT_DOUBLE_EQ(scores["run_db"], 0.5);
}

TEST(SloEngineUnit, HealthReflectsWindowGoodFraction) {
  SloEngine eng;
  eng.add(flag_spec(0.9, 3, {}));  // no rules: health only, never alerts
  eng.ingest(mk(0.0, "svc", "op", "a", 1.0));
  eng.ingest(mk(1.0, "svc", "op", "a", 0.0, false));
  EXPECT_TRUE(eng.alerts().empty());
  EXPECT_DOUBLE_EQ(eng.health("a", 2.0), 0.5);
  EXPECT_DOUBLE_EQ(eng.health("a", 10000.0), 1.0);  // aged out
}

TEST(SloEngineUnit, DefaultServeSpecAlertsPerTenant) {
  SloEngine eng;
  DefaultSloConfig cfg;
  cfg.min_samples = 3;
  for (SloSpec& s : default_slos(cfg)) eng.add(std::move(s));
  // Four queue waits far over the 0.25 s objective for one tenant; a
  // healthy tenant interleaved.
  for (int i = 0; i < 4; ++i) {
    eng.ingest(mk(double(i), "serve", "queue_wait", "tenant-slow", 2.0));
    eng.ingest(mk(double(i), "serve", "queue_wait", "tenant-fast", 0.001));
  }
  EXPECT_TRUE(has_alert(eng.alerts(), "serve_queue_wait", "tenant-slow"));
  EXPECT_FALSE(has_alert(eng.alerts(), "serve_queue_wait", "tenant-fast"));
}

TEST(SloEngineUnit, SummaryListsSeriesWithQuantiles) {
  SloEngine eng;
  DefaultSloConfig cfg;
  for (SloSpec& s : default_slos(cfg)) eng.add(std::move(s));
  for (int i = 0; i < 10; ++i) {
    eng.ingest(mk(double(i), "hpc", "queue_wait", "nersc", 30.0 + i));
  }
  const std::string table = eng.summary(10.0);
  EXPECT_NE(table.find("facility_queue_wait"), std::string::npos);
  EXPECT_NE(table.find("nersc"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScanTraceAssembler unit tests
// ---------------------------------------------------------------------------

telemetry::SpanRecord span(
    telemetry::SpanId id, telemetry::SpanId parent, const char* component,
    const char* name, double start, double end,
    std::vector<std::pair<std::string, std::string>> attrs = {},
    telemetry::ClockDomain domain = telemetry::ClockDomain::Sim) {
  telemetry::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.component = component;
  s.name = name;
  s.start = start;
  s.end = end;
  s.attrs = std::move(attrs);
  s.domain = domain;
  return s;
}

TEST(TraceAssemblerUnit, StageTaxonomy) {
  using A = ScanTraceAssembler;
  EXPECT_EQ(A::stage_of(span(1, 0, "transfer", "raw_to_cfs", 0, 1)),
            "transfer");
  EXPECT_EQ(A::stage_of(span(1, 0, "hpc", "queue_wait", 0, 1)),
            "facility_queue");
  EXPECT_EQ(A::stage_of(span(1, 0, "hpc", "execute", 0, 1)), "recon");
  EXPECT_EQ(A::stage_of(span(1, 0, "hpc", "nersc:recon", 0, 1)),
            "orchestrate");
  EXPECT_EQ(A::stage_of(span(1, 0, "streaming", "gpu_backprojection", 0, 1)),
            "recon");
  EXPECT_EQ(A::stage_of(span(1, 0, "streaming", "preview_return", 0, 1)),
            "transfer");
  EXPECT_EQ(A::stage_of(span(1, 0, "streaming", "stream:scan-1", 0, 1)),
            "acquisition");
  EXPECT_EQ(A::stage_of(span(1, 0, "scan", "acquisition", 0, 1)),
            "acquisition");
  EXPECT_EQ(A::stage_of(span(1, 0, "scan", "scan-001", 0, 1)), "");
  EXPECT_EQ(A::stage_of(span(1, 0, "flow", "nersc_recon_flow", 0, 1)),
            "orchestrate");
  EXPECT_EQ(A::stage_of(span(1, 0, "task", "scicat_ingest", 0, 1)),
            "publish");
  EXPECT_EQ(A::stage_of(span(1, 0, "task", "publish_volume", 0, 1)),
            "publish");
  EXPECT_EQ(A::stage_of(span(1, 0, "task", "reconstruct", 0, 1)),
            "orchestrate");
  EXPECT_EQ(A::stage_of(span(1, 0, "pool", "parallel_for", 0, 1)), "");
}

TEST(TraceAssemblerUnit, AssemblesSyntheticSpanTree) {
  std::vector<telemetry::SpanRecord> spans;
  // Flow root (parameters carries the scan id) with a task -> hpc subtree.
  spans.push_back(span(1, 0, "flow", "nersc_recon_flow", 0.0, 100.0,
                       {{"run_id", "run-1"}, {"parameters", "scan-001"}}));
  spans.push_back(span(2, 1, "task", "reconstruct", 10.0, 90.0));
  spans.push_back(span(3, 2, "hpc", "nersc:recon", 20.0, 80.0));
  spans.push_back(span(4, 3, "hpc", "queue_wait", 20.0, 50.0));
  spans.push_back(span(5, 3, "hpc", "execute", 50.0, 80.0));
  // Scan umbrella span with the detector acquisition.
  spans.push_back(span(6, 0, "scan", "scan-001", 0.0, 120.0,
                       {{"scan_id", "scan-001"}}));
  spans.push_back(span(7, 6, "scan", "acquisition", 0.0, 10.0));
  // Wall-domain span: excluded from attribution entirely.
  spans.push_back(span(8, 0, "pool", "parallel_for", 0.0, 5.0, {},
                       telemetry::ClockDomain::Wall));

  ScanTraceAssembler asm_(spans);
  ASSERT_EQ(asm_.traces().size(), 1u);
  const ScanTrace& t = asm_.traces()[0];
  EXPECT_EQ(t.scan_id, "scan-001");
  EXPECT_DOUBLE_EQ(t.started, 0.0);
  EXPECT_DOUBLE_EQ(t.finished, 120.0);
  EXPECT_DOUBLE_EQ(t.end_to_end(), 120.0);
  ASSERT_EQ(t.legs.size(), 1u);
  EXPECT_EQ(t.legs[0].flow, "nersc_recon_flow");
  EXPECT_EQ(t.legs[0].run_id, "run-1");
  EXPECT_DOUBLE_EQ(t.legs[0].duration(), 100.0);
  // Self-time attribution: flow 100-80=20, task 80-60=20, hpc residue 0,
  // queue 30, execute 30, acquisition 10; scan umbrella charges nothing.
  EXPECT_DOUBLE_EQ(t.stage_seconds("orchestrate"), 40.0);
  EXPECT_DOUBLE_EQ(t.stage_seconds("facility_queue"), 30.0);
  EXPECT_DOUBLE_EQ(t.stage_seconds("recon"), 30.0);
  EXPECT_DOUBLE_EQ(t.stage_seconds("acquisition"), 10.0);
  EXPECT_DOUBLE_EQ(t.stage_seconds("transfer"), 0.0);
  // Lookups: by scan id and by flow run id land on the same trace.
  EXPECT_EQ(asm_.scan("scan-001"), &t);
  EXPECT_EQ(asm_.run("run-1"), &t);
  EXPECT_EQ(asm_.scan("scan-999"), nullptr);
  EXPECT_EQ(asm_.run("run-999"), nullptr);
  // Render and JSON both carry the scan id and every stage.
  const std::string line = asm_.render(t);
  EXPECT_NE(line.find("scan-001"), std::string::npos);
  for (const char* stage : kStages) {
    EXPECT_NE(line.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(asm_.json().find("\"scan_id\": \"scan-001\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// FlightRecorder unit tests
// ---------------------------------------------------------------------------

std::size_t count_occurrences(const std::string& hay, const std::string& n) {
  std::size_t count = 0;
  for (std::size_t at = hay.find(n); at != std::string::npos;
       at = hay.find(n, at + n.size())) {
    ++count;
  }
  return count;
}

TEST(FlightRecorderUnit, RingsAreBoundedButCountEverything) {
  FlightRecorder::Config cfg;
  cfg.event_capacity = 4;
  cfg.log_capacity = 2;
  FlightRecorder rec(cfg);
  for (int i = 0; i < 10; ++i) {
    rec.record_event(mk(double(i), "svc", "op", "a", double(i)));
  }
  LogRecord lr;
  lr.component = "test";
  for (int i = 0; i < 5; ++i) {
    lr.message = "line " + std::to_string(i);
    rec.record_log(lr);
  }
  EXPECT_EQ(rec.events_recorded(), 10u);
  EXPECT_EQ(rec.logs_recorded(), 5u);
  Alert a;
  a.slo = "availability";
  const std::string snap = rec.snapshot(a, 10.0);
  // Only the newest 4 events and 2 log lines survive in the ring.
  EXPECT_EQ(count_occurrences(snap, "\"kind\": \"op\""), 4u);
  EXPECT_NE(snap.find("\"t\": 9"), std::string::npos);
  EXPECT_EQ(snap.find("\"t\": 0"), std::string::npos);
  EXPECT_EQ(count_occurrences(snap, "line "), 2u);
  EXPECT_NE(snap.find("line 4"), std::string::npos);
}

TEST(FlightRecorderUnit, SnapshotCarriesAlertAndMetricDeltas) {
  auto& tel = telemetry::global();
  tel.clear();
  tel.metrics().counter("fr_test_total").add(7);

  FlightRecorder rec;
  Alert a;
  a.slo = "endpoint_availability";
  a.target = "nersc-cfs";
  a.severity = Severity::Page;
  a.fired_at = 12.5;
  const std::string first = rec.snapshot(a, 12.5);
  EXPECT_NE(first.find("\"slo\": \"endpoint_availability\""),
            std::string::npos);
  EXPECT_NE(first.find("\"severity\": \"PAGE\""), std::string::npos);
  EXPECT_NE(first.find("\"fr_test_total\": 7"), std::string::npos);

  // Second snapshot: only series that moved appear, as deltas.
  tel.metrics().counter("fr_test_total").add(3);
  const std::string second = rec.snapshot(a, 20.0);
  EXPECT_NE(second.find("\"fr_test_total\": 3"), std::string::npos);

  // Third snapshot with no movement: the series is omitted.
  const std::string third = rec.snapshot(a, 30.0);
  EXPECT_EQ(third.find("fr_test_total"), std::string::npos);
  tel.clear();
}

// ---------------------------------------------------------------------------
// Chaos -> alert matrix
// ---------------------------------------------------------------------------

data::ScanMetadata small_scan(std::size_t index) {
  data::ScanMetadata m;
  char id[32];
  std::snprintf(id, sizeof id, "scan-%03zu", index);
  m.scan_id = id;
  m.sample_name = "monitor-sample";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.rows = 512;
  m.cols = 2560;
  m.n_angles = 500;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

// SLO tuning for the cropped campaign rig: tighter objectives than the
// production defaults (the rig's healthy queue waits and deliveries are
// near-instant) and a slow window sized to the ~20 min campaign. The
// fault-free test below proves this exact config raises nothing.
DefaultSloConfig rig_slo_config() {
  DefaultSloConfig cfg;
  cfg.link_slowdown_objective = 4.0;
  cfg.link_target_fraction = 0.75;
  cfg.goodput_floor_bps = 100.0;  // cropped transfers: goodput SLO off
  cfg.queue_wait_objective = 60.0;
  cfg.queue_wait_target_fraction = 0.70;
  cfg.scan_e2e_objective = 3600.0;
  cfg.fast_window = 600.0;
  cfg.fast_burn = 2.0;
  cfg.slow_window = 1800.0;
  cfg.slow_burn = 1.0;
  cfg.min_samples = 3;
  return cfg;
}

constexpr int kScans = 4;
constexpr Seconds kInterval = 120.0;

// The golden chaos rig plus an installed HealthMonitor: default SLO set
// (rig-tuned) and a run-database watermark probe.
struct MonitorRig {
  Facility fac;
  ChaosEngine chaos;
  HealthMonitor mon;

  explicit MonitorRig(std::uint64_t seed = 42)
      : fac(make_config(seed)), chaos(fac.engine()), mon(mon_config()) {
    fac.bind_chaos(chaos);
    mon.add_default_slos(rig_slo_config());
    mon.add_watermark("run_db_task_records", "run_db", "orchestrate", [this] {
      return double(fac.run_db().task_records().size());
    });
    mon.install();
  }

  static FacilityConfig make_config(std::uint64_t seed) {
    FacilityConfig cfg;
    cfg.seed = seed;
    cfg.background_utilization = 0.0;
    return cfg;
  }

  static HealthMonitor::Config mon_config() {
    HealthMonitor::Config cfg;
    cfg.capture_logs = false;  // tests keep the default stderr log sink
    return cfg;
  }

  std::vector<ScanOutcome> run_scans(int n, Seconds interval) {
    std::vector<sim::Future<ScanOutcome>> futs;
    futs.reserve(std::size_t(n));
    ScanOptions options;
    options.streaming = false;
    options.archive = false;
    for (int i = 0; i < n; ++i) {
      fac.engine().schedule_at(double(i) * interval,
                               [this, &futs, i, options] {
        futs.push_back(
            fac.process_scan(small_scan(std::size_t(i)), options));
      });
    }
    fac.engine().run();
    mon.sweep(fac.engine().now());
    std::vector<ScanOutcome> out;
    for (auto& f : futs) {
      if (f.done()) out.push_back(f.value());
    }
    return out;
  }
};

TEST(ChaosAlertMatrix, FaultFreeCampaignRaisesNothing) {
  MonitorRig rig;
  rig.run_scans(kScans, kInterval);
  EXPECT_GT(rig.mon.events_seen(), 0u);
  const auto alerts = rig.mon.alerts();
  EXPECT_TRUE(alerts.empty()) << rig.mon.slo_summary(rig.fac.engine().now())
                              << (alerts.empty() ? ""
                                                 : alerts[0].render().c_str());
  EXPECT_TRUE(rig.mon.incidents().empty());
  // Healthy world: every scored target sits at 1.0.
  for (const auto& [target, score] :
       rig.mon.health_scores(rig.fac.engine().now())) {
    EXPECT_DOUBLE_EQ(score, 1.0) << target;
  }
}

TEST(ChaosAlertMatrix, FacilityOutageAlertsQueueWaitAtThatFacility) {
  MonitorRig rig;
  Scenario s;
  s.name = "nersc_maintenance";
  s.events = {{FaultKind::FacilityOutage, 60.0, 600.0, "nersc", 0.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  const auto alerts = rig.mon.alerts();
  EXPECT_TRUE(has_alert(alerts, "facility_queue_wait", "nersc"))
      << rig.mon.slo_summary(rig.fac.engine().now());
  EXPECT_FALSE(has_alert(alerts, "facility_queue_wait", "alcf"));
  EXPECT_FALSE(rig.mon.incidents().empty());
}

TEST(ChaosAlertMatrix, LinkDegradationAlertsSlowdownOnThatLink) {
  MonitorRig rig;
  Scenario s;
  s.name = "esnet_degraded";
  s.events = {{FaultKind::LinkDegradation, 30.0, 600.0, "esnet-alcf", 0.2}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  const auto alerts = rig.mon.alerts();
  EXPECT_TRUE(has_alert(alerts, "link_delivery_slowdown", "esnet-alcf"))
      << rig.mon.slo_summary(rig.fac.engine().now());
  EXPECT_FALSE(has_alert(alerts, "link_delivery_slowdown", "esnet-nersc"));
}

TEST(ChaosAlertMatrix, LinkBlackoutAlertsSlowdownOnThatLink) {
  MonitorRig rig;
  Scenario s;
  s.name = "esnet_routing_flap";
  s.events = {{FaultKind::LinkBlackout, 60.0, 300.0, "esnet-nersc", 0.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  const auto alerts = rig.mon.alerts();
  EXPECT_TRUE(has_alert(alerts, "link_delivery_slowdown", "esnet-nersc"))
      << rig.mon.slo_summary(rig.fac.engine().now());
  EXPECT_FALSE(has_alert(alerts, "link_delivery_slowdown", "esnet-alcf"));
}

TEST(ChaosAlertMatrix, TransientBurstAlertsFileReliability) {
  MonitorRig rig;
  Scenario s;
  s.name = "globus_transient_burst";
  s.events = {{FaultKind::TransientBurst, 30.0, 400.0, "", 0.3}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  EXPECT_TRUE(has_alert(rig.mon.alerts(), "transfer_reliability", "",
                        "transient"))
      << rig.mon.slo_summary(rig.fac.engine().now());
}

TEST(ChaosAlertMatrix, CorruptionBurstAlertsFileReliability) {
  MonitorRig rig;
  Scenario s;
  s.name = "globus_corruption_burst";
  s.events = {{FaultKind::CorruptionBurst, 30.0, 400.0, "", 0.3}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  EXPECT_TRUE(has_alert(rig.mon.alerts(), "transfer_reliability", "",
                        "checksum_mismatch"))
      << rig.mon.slo_summary(rig.fac.engine().now());
}

TEST(ChaosAlertMatrix, PermissionBurstAlertsEndpointAvailability) {
  MonitorRig rig;
  Scenario s;
  s.name = "cfs_permission_incident";
  s.events = {{FaultKind::PermissionBurst, 40.0, 120.0, "nersc-cfs", 0.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  const auto alerts = rig.mon.alerts();
  EXPECT_TRUE(has_alert(alerts, "endpoint_availability", "nersc-cfs",
                        "permission_denied"))
      << rig.mon.slo_summary(rig.fac.engine().now());
  EXPECT_FALSE(has_alert(alerts, "endpoint_availability",
                         rig.fac.eagle().name()));
}

TEST(ChaosAlertMatrix, RecallLatencySpikeAlertsSlowdownOnThatLink) {
  MonitorRig rig;
  Scenario s;
  s.name = "hpss_recall_queue";
  s.events = {{FaultKind::RecallLatencySpike, 30.0, 600.0, "esnet-nersc",
               45.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  EXPECT_TRUE(
      has_alert(rig.mon.alerts(), "link_delivery_slowdown", "esnet-nersc"))
      << rig.mon.slo_summary(rig.fac.engine().now());
}

TEST(ChaosAlertMatrix, EngineCrashAlertsFlowCompletion) {
  MonitorRig rig;
  Scenario s;
  s.name = "orchestrator_crash";
  s.events = {{FaultKind::EngineCrash, 300.0, 120.0, "", 0.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  EXPECT_TRUE(has_alert(rig.mon.alerts(), "flow_completion", "orchestrator",
                        "interrupted_by_crash"))
      << rig.mon.slo_summary(rig.fac.engine().now());
}

TEST(ChaosAlertMatrix, DatabaseLossTripsWatermarkPage) {
  MonitorRig rig;
  Scenario s;
  s.name = "db_volume_loss";
  s.events = {{FaultKind::DatabaseLoss, 290.0, 0.0, "", 0.0}};
  rig.chaos.arm(s);
  rig.run_scans(kScans, kInterval);
  const auto alerts = rig.mon.alerts();
  bool found = false;
  for (const Alert& a : alerts) {
    if (a.slo == "run_db_task_records" && a.target == "run_db" &&
        a.severity == Severity::Page &&
        a.detail.find("watermark_drop") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << rig.mon.slo_summary(rig.fac.engine().now());
  // The incident snapshot is a self-contained document: alert + evidence.
  const std::vector<std::string> incidents = rig.mon.incidents();
  ASSERT_FALSE(incidents.empty());
  const std::string& snap = incidents.front();
  EXPECT_NE(snap.find("\"alert\""), std::string::npos);
  EXPECT_NE(snap.find("run_db_task_records"), std::string::npos);
  EXPECT_NE(snap.find("\"events\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// System invariants: trace assembly over a real campaign + determinism
// ---------------------------------------------------------------------------

TEST(MonitorSystem, CampaignAssemblesPerScanTraces) {
  auto& tel = telemetry::global();
  tel.clear();
  tel.set_enabled(true);
  MonitorRig rig;
  rig.run_scans(kScans, kInterval);
  ScanTraceAssembler asm_(tel.tracer().spans());
  tel.set_enabled(false);
  tel.clear();

  ASSERT_EQ(asm_.traces().size(), std::size_t(kScans));
  for (const ScanTrace& t : asm_.traces()) {
    EXPECT_GT(t.end_to_end(), 0.0) << t.scan_id;
    // Every scan crosses the WAN and reconstructs at both facilities.
    EXPECT_GT(t.stage_seconds("transfer"), 0.0) << t.scan_id;
    EXPECT_GT(t.stage_seconds("recon"), 0.0) << t.scan_id;
    EXPECT_GT(t.stage_seconds("acquisition"), 0.0) << t.scan_id;
    // new_file + nersc recon + alcf recon legs at minimum.
    EXPECT_GE(t.legs.size(), 3u) << t.scan_id;
    for (const FlowLeg& leg : t.legs) {
      ASSERT_FALSE(leg.run_id.empty());
      EXPECT_EQ(asm_.run(leg.run_id), &t) << leg.run_id;
    }
  }
  EXPECT_NE(asm_.scan("scan-000"), nullptr);
  EXPECT_EQ(asm_.scan("scan-000")->scan_id, "scan-000");
}

// Sits in front of the HealthMonitor: renders every event, all seven
// fields, then hands it on.
class EventTap final : public telemetry::EventSink {
 public:
  explicit EventTap(telemetry::EventSink& next) : next_(next) {}

  void on_event(const telemetry::MonitorEvent& ev) override {
    char buf[96];
    std::snprintf(buf, sizeof buf, "E|%.17g|", ev.t);
    rendered += buf;
    rendered += ev.component + "|" + ev.kind + "|" + ev.target;
    std::snprintf(buf, sizeof buf, "|%.17g|%d|", ev.value, int(ev.ok));
    rendered += buf;
    rendered += ev.detail + "\n";
    next_.on_event(ev);
  }

  std::string rendered;

 private:
  telemetry::EventSink& next_;
};

// The Chrome trace of `spans` with span ids renumbered from 1 in begin
// order, as a fresh process would write it: the global tracer's ids keep
// counting across clear(), so raw ids depend on what ran before.
std::string chrome_trace_from_one(
    const std::vector<telemetry::SpanRecord>& spans) {
  telemetry::Tracer fresh;
  std::map<telemetry::SpanId, telemetry::SpanId> renumbered{{0, 0}};
  for (const telemetry::SpanRecord& s : spans) {
    const telemetry::SpanId id = fresh.begin(
        s.component, s.name, renumbered.at(s.parent), s.domain, s.start);
    renumbered[s.id] = id;
    for (const auto& [key, value] : s.attrs) fresh.attr(id, key, value);
    if (s.end >= 0.0) fresh.end(id, s.end);
  }
  return fresh.chrome_trace_json();
}

// Everything a seeded, monitored chaos campaign records — alerts, SLO
// summary, scan traces, health scores, every monitor event and the Chrome
// trace — is the same on every run, and the same as when the digest below
// was taken: a change to any emit or span site shows here.
TEST(MonitorSystem, MonitoredChaosCampaignIsByteDeterministic) {
  auto run_once = [] {
    auto& tel = telemetry::global();
    tel.clear();
    tel.set_enabled(true);
    MonitorRig rig(1234);
    EventTap tap(rig.mon);
    tel.set_event_sink(&tap);
    Scenario s;
    s.name = "determinism_probe";
    s.events = {{FaultKind::TransientBurst, 30.0, 300.0, "", 0.25},
                {FaultKind::LinkDegradation, 100.0, 300.0, "esnet-nersc",
                 0.25}};
    rig.chaos.arm(s);
    rig.run_scans(kScans, kInterval);
    std::string out;
    for (const Alert& a : rig.mon.alerts()) out += a.render() + "\n";
    out += rig.mon.slo_summary(rig.fac.engine().now());
    out += ScanTraceAssembler(tel.tracer().spans()).json();
    char buf[96];
    for (const auto& [target, score] :
         rig.mon.health_scores(rig.fac.engine().now())) {
      std::snprintf(buf, sizeof buf, "H|%s|%.9g\n", target.c_str(), score);
      out += buf;
    }
    tel.set_event_sink(nullptr);
    out += tap.rendered;
    out += chrome_trace_from_one(tel.tracer().spans());
    tel.set_enabled(false);
    tel.clear();
    return out;
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(fnv1a64(a), 0xa6bb0ba2c7274613ull) << "digest 0x" << std::hex << fnv1a64(a);
  // The probe scenario really alerted (and the digest recorded it).
  EXPECT_NE(a.find("link_delivery_slowdown"), std::string::npos);
}

}  // namespace
}  // namespace alsflow::monitor
