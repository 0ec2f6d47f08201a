// Table 2 reproduction: summary statistics of the last 100 successful
// file-based flow runs in production.
//
// Paper (durations in seconds):
//   new_file_832      100   120 +/- 171    56   [30, 676]
//   nersc_recon_flow  100  1525 +/- 464  1665   [354, 2351]
//   alcf_recon_flow   100  1151 +/- 246  1114   [710, 1965]
//
// We drive a multi-shift campaign with the production scan-size mix
// (cropped MB test scans through 30+ GB full scans, rare very large ones)
// against a realistically loaded Perlmutter, then issue the same run-DB
// query the authors issued against their Prefect server.
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;

int main() {
  std::printf("=== Table 2: last 100 successful file-based flow runs ===\n\n");

  pipeline::FacilityConfig config;
  config.seed = 42;
  config.background_utilization = 0.9;
  config.background_job_mean = 900.0;
  pipeline::Facility facility(config);
  facility.start_background_load(hours(40));
  // Warm the background queue before beam comes on.
  facility.engine().run_until(hours(2));

  pipeline::CampaignConfig campaign;
  campaign.duration = hours(10);
  campaign.scan_interval_mean = 270.0;  // one scan every 3-5 minutes
  campaign.streaming_fraction = 0.5;
  campaign.seed = 7;
  auto report = pipeline::run_campaign(facility, campaign);

  std::printf("campaign: %zu scans, %s raw data ingested\n\n",
              report.scans_completed, human_bytes(report.raw_bytes).c_str());

  std::printf("%-18s %4s %16s %7s %16s\n", "Flow", "N", "Mean +/- SD",
              "Med.", "Range");
  auto row = [](const char* name, const Summary& s) {
    std::printf("%-18s %4zu %7.0f +/- %-6.0f %6.0f  [%.0f, %.0f]\n", name,
                s.n, s.mean, s.stddev, s.median, s.min, s.max);
  };
  const pipeline::ReconFlowReport& nersc = report.recon.at("nersc_recon_flow");
  const pipeline::ReconFlowReport& alcf = report.recon.at("alcf_recon_flow");
  row("new_file_832", report.new_file);
  row("nersc_recon_flow", nersc.duration);
  row("alcf_recon_flow", alcf.duration);

  std::printf("\npaper reference:\n");
  std::printf("%-18s %4s %16s %7s %16s\n", "Flow", "N", "Mean +/- SD", "Med.",
              "Range");
  std::printf("%-18s %4d %7d +/- %-6d %6d  [%d, %d]\n", "new_file_832", 100,
              120, 171, 56, 30, 676);
  std::printf("%-18s %4d %7d +/- %-6d %6d  [%d, %d]\n", "nersc_recon_flow",
              100, 1525, 464, 1665, 354, 2351);
  std::printf("%-18s %4d %7d +/- %-6d %6d  [%d, %d]\n", "alcf_recon_flow",
              100, 1151, 246, 1114, 710, 1965);

  std::printf("\nsuccess rates: nersc %.2f, alcf %.2f\n",
              nersc.success_rate, alcf.success_rate);

  // Shape assertions the reproduction must preserve.
  const bool ordering_holds =
      report.new_file.median < alcf.duration.median &&
      alcf.duration.median < nersc.duration.median;
  const bool heavy_tail = report.new_file.mean > report.new_file.median;
  std::printf("\nshape checks: flow ordering %s, new_file heavy tail %s\n",
              ordering_holds ? "OK" : "VIOLATED",
              heavy_tail ? "OK" : "VIOLATED");
  return ordering_holds && heavy_tail ? 0 : 1;
}
