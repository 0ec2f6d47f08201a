// Chaos campaign benchmark: latency inflation under injected faults.
//
// Runs the same fixed campaign (N scans at production cadence) once
// fault-free and once per golden chaos scenario, and reports per scenario:
//   - mean and p95 per-scan latency, and mean latency inflation
//   - the worst per-scan delay: the largest increase of one scan's latency
//     over the same scan in the fault-free baseline
//   - scans completed (must always equal the offered count — chaos may
//     slow the campaign, never lose work)
//   - duplicate completions: Completed runs of a branch flow for a scan
//     after its first (after an EngineCrash, replay and the scheduler's
//     relaunch can both finish the interrupted flow)
//
// A branch counts as done at its first Completed run, so a duplicate never
// sets a scan's latency.
//
// Everything runs on the simulation clock with seeded randomness, so the
// numbers are exactly reproducible. Results land in
// BENCH_chaos_campaign.json for machine consumption.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/scenario.hpp"
#include "common/stats.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;
using chaos::FaultEvent;
using chaos::FaultKind;
using chaos::Scenario;

namespace {

constexpr int kScans = 8;
constexpr Seconds kInterval = 180.0;  // 20 scans/hour, paper cadence

data::ScanMetadata make_scan(std::size_t index) {
  data::ScanMetadata m;
  char id[32];
  std::snprintf(id, sizeof id, "scan-%03zu", index);
  m.scan_id = id;
  m.sample_name = "chaos-bench";
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

struct CampaignResult {
  std::size_t completed = 0;
  std::size_t duplicate_completions = 0;
  Seconds makespan = 0.0;
  // finished_at - submit time per scan index; -1 for a scan that did not
  // complete.
  std::vector<double> scan_latencies = std::vector<double>(kScans, -1.0);

  std::vector<double> completed_latencies() const {
    std::vector<double> xs;
    for (double x : scan_latencies) {
      if (x >= 0.0) xs.push_back(x);
    }
    return xs;
  }
  double mean_latency() const {
    const std::vector<double> xs = completed_latencies();
    if (xs.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs) s += x;
    return s / double(xs.size());
  }
  double p95_latency() const {
    std::vector<double> xs = completed_latencies();
    std::sort(xs.begin(), xs.end());
    return percentile_sorted(xs, 0.95);
  }
  // Largest increase of one scan's latency over the same scan in `base`
  // (0 when no scan is slower).
  double worst_delay(const CampaignResult& base) const {
    double worst = 0.0;
    for (std::size_t i = 0; i < scan_latencies.size(); ++i) {
      if (scan_latencies[i] >= 0.0 && base.scan_latencies[i] >= 0.0) {
        worst = std::max(worst, scan_latencies[i] - base.scan_latencies[i]);
      }
    }
    return worst;
  }
};

CampaignResult run_campaign(const Scenario* scenario) {
  pipeline::FacilityConfig cfg;
  cfg.seed = 42;
  cfg.background_utilization = 0.0;
  pipeline::Facility fac(cfg);

  chaos::ChaosEngine chaos_eng(fac.engine());
  fac.bind_chaos(chaos_eng);
  if (scenario != nullptr) chaos_eng.arm(*scenario);

  std::vector<sim::Future<pipeline::ScanOutcome>> futs;
  futs.reserve(kScans);
  pipeline::ScanOptions options;
  options.streaming = false;
  options.archive = false;
  for (int i = 0; i < kScans; ++i) {
    fac.engine().schedule_at(double(i) * kInterval, [&fac, &futs, i,
                                                     options] {
      futs.push_back(fac.process_scan(make_scan(std::size_t(i)), options));
    });
  }
  fac.engine().run();

  CampaignResult r;
  // A crash scenario resolves the original futures non-terminal and the
  // replayed runs finish in the database, so completion is counted there:
  // a scan is complete when every branch flow has a Completed run for it,
  // and each branch finishes at its first one.
  auto& db = fac.run_db();
  for (int i = 0; i < kScans; ++i) {
    char id[32];
    std::snprintf(id, sizeof id, "scan-%03d", i);
    Seconds done_at = -1.0;
    bool all = true;
    for (const char* flow_name :
         {"new_file_832", "nersc_recon_flow", "alcf_recon_flow"}) {
      Seconds branch = -1.0;
      std::size_t runs = 0;
      for (const auto& run : db.runs(flow_name)) {
        if (run.parameters == id &&
            run.state == flow::RunState::Completed) {
          branch = runs++ == 0 ? run.finished_at
                               : std::min(branch, run.finished_at);
        }
      }
      if (runs > 1) r.duplicate_completions += runs - 1;
      if (branch < 0.0) all = false;
      done_at = std::max(done_at, branch);
    }
    if (all) {
      ++r.completed;
      r.makespan = std::max(r.makespan, done_at);
      r.scan_latencies[std::size_t(i)] = done_at - double(i) * kInterval;
    }
  }
  return r;
}

struct NamedScenario {
  std::string key;
  Scenario scenario;
};

std::vector<NamedScenario> golden_scenarios() {
  std::vector<NamedScenario> out;
  out.push_back({"facility_outage",
                 {"nersc_maintenance",
                  {{FaultKind::FacilityOutage, 120.0, 900.0, "nersc", 0.0}}}});
  out.push_back({"link_blackout",
                 {"esnet_routing_flap",
                  {{FaultKind::LinkBlackout, 120.0, 300.0, "esnet-nersc",
                    0.0}}}});
  out.push_back({"wan_degradation",
                 {"esnet_degraded",
                  {{FaultKind::LinkDegradation, 60.0, 900.0, "esnet-alcf",
                    0.2}}}});
  out.push_back(
      {"fault_burst",
       {"globus_fault_burst",
        {{FaultKind::TransientBurst, 60.0, 600.0, "", 0.3},
         {FaultKind::CorruptionBurst, 60.0, 600.0, "", 0.3}}}});
  out.push_back({"permission_burst",
                 {"cfs_permission_incident",
                  {{FaultKind::PermissionBurst, 60.0, 120.0, "nersc-cfs",
                    0.0}}}});
  out.push_back({"recall_spike",
                 {"hpss_recall_queue",
                  {{FaultKind::RecallLatencySpike, 60.0, 900.0,
                    "esnet-nersc", 45.0}}}});
  out.push_back({"engine_crash",
                 {"orchestrator_crash",
                  {{FaultKind::EngineCrash, 400.0, 120.0, "", 0.0}}}});
  return out;
}

}  // namespace

int main() {
  std::printf("=== chaos campaign benchmark (%d scans @ %.0fs cadence) ===\n\n",
              kScans, kInterval);

  const CampaignResult base = run_campaign(nullptr);
  std::printf("%-18s completed %zu/%d  makespan %8.1fs  "
              "mean latency %7.1fs  p95 %7.1fs\n",
              "baseline", base.completed, kScans, base.makespan,
              base.mean_latency(), base.p95_latency());

  struct Row {
    std::string key;
    CampaignResult r;
  };
  std::vector<Row> rows;
  for (const auto& ns : golden_scenarios()) {
    Row row{ns.key, run_campaign(&ns.scenario)};
    std::printf("%-18s completed %zu/%d  makespan %8.1fs  "
                "mean latency %7.1fs  p95 %7.1fs  inflation %.2fx  "
                "worst delay %6.1fs  duplicates %zu  %s\n",
                row.key.c_str(), row.r.completed, kScans, row.r.makespan,
                row.r.mean_latency(), row.r.p95_latency(),
                base.mean_latency() > 0.0
                    ? row.r.mean_latency() / base.mean_latency()
                    : 0.0,
                row.r.worst_delay(base), row.r.duplicate_completions,
                row.r.completed == std::size_t(kScans) ? "zero lost OK"
                                                       : "LOST SCANS");
    rows.push_back(std::move(row));
  }

  if (FILE* f = std::fopen("BENCH_chaos_campaign.json", "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"scans\": %d,\n", kScans);
    std::fprintf(f, "  \"interval_s\": %.1f,\n", kInterval);
    std::fprintf(f, "  \"baseline\": {\"completed\": %zu, "
                    "\"makespan_s\": %.3f, \"mean_latency_s\": %.3f, "
                    "\"p95_latency_s\": %.3f},\n",
                 base.completed, base.makespan, base.mean_latency(),
                 base.p95_latency());
    std::fprintf(f, "  \"scenarios\": {\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(
          f,
          "    \"%s\": {\"completed\": %zu, \"makespan_s\": %.3f, "
          "\"mean_latency_s\": %.3f, \"p95_latency_s\": %.3f, "
          "\"worst_delay_s\": %.3f, \"latency_inflation\": %.4f, "
          "\"duplicate_completions\": %zu}%s\n",
          row.key.c_str(), row.r.completed, row.r.makespan,
          row.r.mean_latency(), row.r.p95_latency(), row.r.worst_delay(base),
          base.mean_latency() > 0.0
              ? row.r.mean_latency() / base.mean_latency()
              : 0.0,
          row.r.duplicate_completions, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_chaos_campaign.json\n");
  }

  bool ok = base.completed == std::size_t(kScans);
  for (const auto& row : rows) {
    ok = ok && row.r.completed == std::size_t(kScans);
  }
  return ok ? 0 : 1;
}
