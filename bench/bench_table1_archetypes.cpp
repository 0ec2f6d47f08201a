// Table 1 reproduction: the three beamline user archetypes and the service
// each one gets from the infrastructure.
//
// Table 1 is qualitative; we quantify it by running each persona's
// characteristic workload and reporting the metric that archetype cares
// about:
//   * Visiting user — rapid acquisition under a constrained shift:
//     scans/hour and preview latency.
//   * Staff beamline scientist — experimental quality and uptime: QA scan
//     turnaround and flow success rate.
//   * Software engineer — observability: what the run database answers.
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;

int main() {
  std::printf("=== Table 1: beamline user archetypes, quantified ===\n\n");
  auto personas = pipeline::default_personas();

  // --- Visiting user: an 8-hour shift at full cadence with streaming ---
  {
    const auto& p = personas[0];
    pipeline::Facility facility;
    facility.start_background_load(hours(12));
    pipeline::CampaignConfig campaign;
    campaign.duration = hours(8);
    campaign.scan_interval_mean = p.scan_interval_mean;
    campaign.streaming_fraction = p.streaming_fraction;
    campaign.seed = 31;
    auto report = pipeline::run_campaign(facility, campaign);
    std::printf("[%s]\n", p.name.c_str());
    std::printf("  scans in one shift:        %zu (%.1f/hour)\n",
                report.scans_completed,
                double(report.scans_completed) / 8.0);
    std::printf("  preview latency:           median %.1f s, max %.1f s\n",
                report.streaming_latency.median,
                report.streaming_latency.max);
    std::printf("  full volumes back within:  median %s\n\n",
                human_duration(
                    report.recon.at("alcf_recon_flow").duration.median)
                    .c_str());
  }

  // --- Staff scientist: sparse QA scans, cares about turnaround + uptime ---
  {
    const auto& p = personas[1];
    pipeline::Facility facility;
    pipeline::CampaignConfig campaign;
    campaign.duration = hours(8);
    campaign.scan_interval_mean = p.scan_interval_mean;
    campaign.streaming_fraction = p.streaming_fraction;
    campaign.randomize_kind = false;
    campaign.fixed_kind = p.typical_kind;  // cropped QA scans
    campaign.seed = 32;
    auto report = pipeline::run_campaign(facility, campaign);
    std::printf("[%s]\n", p.name.c_str());
    std::printf("  QA scans run:              %zu\n", report.scans_completed);
    std::printf("  QA turnaround:             median %s (cropped scans)\n",
                human_duration(
                    report.recon.at("nersc_recon_flow").duration.median)
                    .c_str());
    std::printf("  flow success rates:        nersc %.2f, alcf %.2f\n\n",
                report.recon.at("nersc_recon_flow").success_rate,
                report.recon.at("alcf_recon_flow").success_rate);
  }

  // --- Software engineer: observability through the run database ---
  {
    const auto& p = personas[2];
    pipeline::Facility facility;
    pipeline::CampaignConfig campaign;
    campaign.duration = hours(3);
    campaign.scan_interval_mean = 300.0;
    campaign.seed = 33;
    auto report = pipeline::run_campaign(facility, campaign);
    auto& db = facility.run_db();
    std::printf("[%s]\n", p.name.c_str());
    std::printf("  total flow runs recorded:  %zu\n", db.total_runs());
    std::size_t tasks = 0;
    for (const auto& rec : db.runs()) tasks += db.tasks(rec.id).size();
    std::printf("  task records (with attempts/errors): %zu\n", tasks);
    std::printf("  per-flow stats on demand:  new_file %s\n",
                report.new_file.row(0).c_str());
    std::printf("  success-rate query:        new_file_832 %.2f\n",
                db.success_rate("new_file_832"));
  }
  return 0;
}
