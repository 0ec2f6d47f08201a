// Figure 3 / Section 4.3 reproduction: the data lifecycle across the five
// operational layers at production cadence.
//
// Paper figures: ~30 GB raw per scan (variable), one scan every 3-5
// minutes (12-20 scans/hour), 0.5-5 TB/day, tiered storage with
// age-based pruning (beamline: days-weeks; CFS: months-years; HPSS:
// indefinite).
//
// We run a full production day and account every layer: acquisition
// volume, movement bytes per link, compute hours per facility, access
// products, and storage occupancy.
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;

int main() {
  std::printf("=== Fig 3 / Sec 4.3: one production day, all layers ===\n\n");

  pipeline::FacilityConfig config;
  config.seed = 11;
  pipeline::Facility facility(config);
  facility.start_background_load(hours(30));
  facility.start_pruning(hours(12));

  pipeline::CampaignConfig campaign;
  campaign.duration = hours(24);
  campaign.scan_interval_mean = 265.0;  // 3-5 minutes between scans
  campaign.streaming_fraction = 0.5;
  campaign.seed = 23;
  auto report = pipeline::run_campaign(facility, campaign);

  const double day_tb = double(report.raw_bytes) / double(TB);
  std::printf("Acquisition layer\n");
  std::printf("  scans completed:      %zu (%.1f scans/hour)\n",
              report.scans_completed, double(report.scans_completed) / 24.0);
  std::printf("  raw volume:           %.2f TB/day (paper: 0.5-5 TB/day)\n",
              day_tb);
  std::printf("  mean scan size:       %s (paper: typically 20-30 GB)\n\n",
              human_bytes(report.raw_bytes /
                          std::max<std::size_t>(report.scans_completed, 1))
                  .c_str());

  std::printf("Movement layer (Globus + streaming)\n");
  std::printf("  globus bytes moved:   %s across %zu transfer tasks\n",
              human_bytes(facility.globus().total_bytes_moved()).c_str(),
              facility.globus().history().size());
  std::printf("  esnet->NERSC mean throughput: %.2f Gbps of %g Gbps\n",
              facility.esnet_nersc().mean_throughput() * 8.0 / 1e9,
              facility.esnet_nersc().bandwidth() * 8.0 / 1e9);
  std::printf("  streaming previews:   %zu (max latency %.1f s)\n\n",
              facility.streaming().previews_delivered(),
              report.streaming_latency.max);

  std::printf("Compute layer\n");
  double nersc_hours = 0.0;
  std::size_t nersc_jobs = 0;
  for (const auto& job : facility.perlmutter().all_jobs()) {
    if (job.spec.qos == hpc::Qos::Realtime &&
        job.state == hpc::JobState::Completed) {
      nersc_hours += (job.finished_at - job.started_at) / 3600.0;
      ++nersc_jobs;
    }
  }
  double alcf_hours = 0.0;
  for (const auto& r : facility.polaris().history()) {
    alcf_hours += (r.finished_at - r.started_at) / 3600.0;
  }
  std::printf("  NERSC realtime jobs:  %zu (%.1f node-hours)\n", nersc_jobs,
              nersc_hours);
  std::printf("  ALCF GC functions:    %zu (%.1f node-hours)\n\n",
              facility.polaris().history().size(), alcf_hours);

  std::printf("Orchestration layer (flow durations, s)\n");
  std::printf("  new_file_832:      %s\n", report.new_file.row(0).c_str());
  std::printf("  nersc_recon_flow:  %s\n",
              report.recon.at("nersc_recon_flow").duration.row(0).c_str());
  std::printf("  alcf_recon_flow:   %s\n\n",
              report.recon.at("alcf_recon_flow").duration.row(0).c_str());

  std::printf("Access/storage layer (occupancy after pruning)\n");
  auto occupancy = [](const storage::StorageEndpoint& ep) {
    std::printf("  %-14s %10s in %5zu files (%.1f%% of capacity)\n",
                ep.name().c_str(), human_bytes(ep.used()).c_str(),
                ep.file_count(), 100.0 * ep.utilization());
  };
  occupancy(facility.acq_server());
  occupancy(facility.beamline_data());
  occupancy(facility.cfs());
  occupancy(facility.eagle());
  occupancy(facility.hpss());
  std::printf("  catalogue datasets:   %zu\n", facility.scicat().size());

  const bool volume_in_band = day_tb > 0.5 && day_tb < 5.0;
  const bool cadence_in_band = report.scans_completed >= 24 * 10 &&
                               report.scans_completed <= 24 * 22;
  std::printf("\nshape checks: daily volume in 0.5-5 TB band %s, cadence "
              "12-20/hour %s\n",
              volume_in_band ? "OK" : "VIOLATED",
              cadence_in_band ? "OK" : "VIOLATED");
  return volume_in_band && cadence_in_band ? 0 : 1;
}
