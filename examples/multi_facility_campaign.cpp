// A full beamtime shift through the multi-facility world.
//
// Simulates eight hours at the microtomography beamline: scans every few
// minutes, streaming previews for the users watching live, dual-facility
// file-based reconstruction for every dataset, scheduled pruning, and a
// loaded Perlmutter in the background. Ends with the operations report a
// beamline scientist would pull up the next morning — and, with telemetry
// enabled, dumps the whole shift as a Chrome trace (open
// campaign_trace.json in chrome://tracing or https://ui.perfetto.dev to
// see the Fig. 1 pipeline as a flame chart) plus Prometheus/JSON metric
// snapshots.
#include <cstdio>
#include <fstream>

#include "common/telemetry.hpp"
#include "monitor/health_monitor.hpp"
#include "monitor/trace_assembler.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;

int main() {
  std::printf("=== one shift at beamline 8.3.2 (simulated) ===\n\n");

  telemetry::global().set_enabled(true);

  pipeline::FacilityConfig config;
  config.seed = 2026;
  pipeline::Facility facility(config);

  // Pre-flight flow-graph validation: cycles, unreachable tasks, missing
  // retry policies / idempotency keys, undeclared pools — all rejected in
  // milliseconds, before a single scan commits beam time to a bad graph.
  auto issues = facility.flows().validate();
  if (!issues.empty()) {
    for (const auto& iss : issues) {
      std::fprintf(stderr, "flow validation: %s\n", iss.render().c_str());
    }
    return 1;
  }
  std::printf("pre-flight: %zu flows validated clean\n\n",
              facility.flows().registered_flows());

  // Live health monitoring for the shift: the stock SLO set (link
  // slowdown, transfer goodput/reliability, queue wait, flow completion,
  // scan end-to-end, first-slice latency) plus a watermark canary on the
  // run database. Installing the sink is all the wiring there is — every
  // instrumented service emits MonitorEvents once observing() is true.
  monitor::HealthMonitor::Config mon_cfg;
  mon_cfg.capture_logs = false;  // the example owns its stderr
  monitor::HealthMonitor mon(mon_cfg);
  mon.add_default_slos();
  mon.add_watermark("run_db_task_records", "run_db", "orchestrate", [&] {
    return double(facility.run_db().task_records().size());
  });
  mon.install();

  facility.start_background_load(hours(20));
  facility.start_pruning(hours(12));

  pipeline::CampaignConfig campaign;
  campaign.duration = hours(8);
  campaign.scan_interval_mean = 270.0;
  campaign.streaming_fraction = 0.7;
  campaign.seed = 99;
  auto report = pipeline::run_campaign(facility, campaign);

  std::printf("shift summary\n");
  std::printf("  scans: %zu started, %zu completed end-to-end\n",
              report.scans_started, report.scans_completed);
  std::printf("  raw data: %s\n", human_bytes(report.raw_bytes).c_str());
  std::printf("  streaming previews: %zu, median latency %.1f s\n\n",
              facility.streaming().previews_delivered(),
              report.streaming_latency.median);

  std::printf("flow performance (seconds; N mean+/-sd median [min,max])\n");
  std::printf("  new_file_832:     %s\n", report.new_file.row(0).c_str());
  std::printf("  nersc_recon_flow: %s\n",
              report.recon.at("nersc_recon_flow").duration.row(0).c_str());
  std::printf("  alcf_recon_flow:  %s\n\n",
              report.recon.at("alcf_recon_flow").duration.row(0).c_str());

  // Stage-level breakdown (the view whole-flow durations hide): where the
  // time goes inside each flow run.
  auto& db = facility.run_db();
  for (const char* flow :
       {"new_file_832", "nersc_recon_flow", "alcf_recon_flow"}) {
    std::printf("per-task breakdown: %s\n", flow);
    for (const auto& task : db.task_names(flow)) {
      auto q = db.task_duration_quantiles(flow, task);
      std::printf("  %-24s %s  p50/p95/p99 %.1f/%.1f/%.1f\n", task.c_str(),
                  db.task_duration_summary(flow, task).row(0).c_str(), q.p50,
                  q.p95, q.p99);
    }
  }
  std::printf("\n");

  std::printf("per-facility compute\n");
  std::size_t rt = 0;
  for (const auto& j : facility.perlmutter().all_jobs()) {
    if (j.spec.qos == hpc::Qos::Realtime) ++rt;
  }
  std::printf("  perlmutter realtime jobs: %zu (busy nodes now: %d/%d)\n",
              rt, facility.perlmutter().busy_nodes(),
              facility.perlmutter().total_nodes());
  std::printf("  polaris functions: %zu (warm workers now: %d/%d)\n\n",
              facility.polaris().history().size(),
              facility.polaris().warm_workers(),
              facility.polaris().n_workers());

  std::printf("data at rest\n");
  for (const auto* ep :
       {&facility.beamline_data(), &facility.cfs(), &facility.eagle()}) {
    std::printf("  %-12s %10s in %4zu files\n", ep->name().c_str(),
                human_bytes(ep->used()).c_str(), ep->file_count());
  }
  std::printf("  catalogue: %zu datasets (raw + derived, with provenance)\n",
              facility.scicat().size());

  // A user pulls up one of their scans.
  auto raws = facility.scicat().search("user", "visiting-user");
  if (!raws.empty()) {
    const auto& rec = raws.front();
    auto derived = facility.scicat().derived_from(rec.pid);
    std::printf("\nexample lineage: %s (%s)\n", rec.pid.c_str(),
                rec.fields.count("scan_id") ? rec.fields.at("scan_id").c_str()
                                            : "?");
    for (const auto& d : derived) {
      std::printf("  -> %s via %s\n", d.source_path.c_str(),
                  d.fields.count("pipeline") ? d.fields.at("pipeline").c_str()
                                             : "?");
    }
  }

  // Operations view: per-scan provenance traces and the shift's SLO
  // scoreboard. Everything below is derived from the same sim-domain
  // span/event stream, so it is byte-identical across re-runs of the same
  // seeds.
  const Seconds shift_end = facility.engine().now();
  mon.sweep(shift_end);

  monitor::ScanTraceAssembler traces(telemetry::global().tracer().spans());
  std::printf("\nper-scan traces (%zu scans; full set in scan_traces.json)\n",
              traces.traces().size());
  std::size_t shown = 0;
  for (const auto& t : traces.traces()) {
    if (shown++ == 5) {
      std::printf("  ... %zu more\n", traces.traces().size() - 5);
      break;
    }
    std::printf("  %s\n", traces.render(t).c_str());
  }
  std::ofstream("scan_traces.json") << traces.json();

  std::printf("\nhealth scores at end of shift\n");
  for (const auto& [target, score] : mon.health_scores(shift_end)) {
    std::printf("  %-16s %.2f\n", target.c_str(), score);
  }
  std::printf("\nSLO summary\n%s", mon.slo_summary(shift_end).c_str());
  auto alerts = mon.alerts();
  std::printf("\nalerts this shift: %zu (%zu still active)\n", alerts.size(),
              mon.active_alerts().size());
  for (const auto& a : alerts) std::printf("  %s\n", a.render().c_str());
  const auto incidents = mon.incidents();
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    char path[64];
    std::snprintf(path, sizeof(path), "incident_%03zu.json", i);
    std::ofstream(path) << incidents[i];
  }
  if (!incidents.empty()) {
    std::printf("  flight-recorder snapshots: incident_000.json .. "
                "incident_%03zu.json\n",
                incidents.size() - 1);
  }

  // Telemetry export: the shift as a span tree + metrics snapshot.
  auto& tel = telemetry::global();
  std::ofstream("campaign_trace.json") << tel.tracer().chrome_trace_json();
  std::ofstream("campaign_metrics.prom") << tel.metrics().prometheus_text();
  std::ofstream("campaign_metrics.json") << tel.metrics().json();
  std::printf("\nmetrics snapshot\n%s", tel.metrics().report().c_str());
  std::printf(
      "\ntelemetry written: campaign_trace.json (%zu spans; open in "
      "chrome://tracing or https://ui.perfetto.dev), "
      "campaign_metrics.prom, campaign_metrics.json, scan_traces.json\n",
      tel.tracer().span_count());
  mon.uninstall();
  return 0;
}
