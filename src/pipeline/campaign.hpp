// Beamtime campaign driver: generates scans the way the beamline sees
// them and pushes them through the Facility at production cadence.
//
// Scan sizes follow the production mix (Section 5.2): cropped test scans
// of a few MB up to full scans of 20-30+ GB, with occasional very large
// acquisitions ("a few MB to hundreds of GB", Section 4.3). Personas
// encode Table 1's archetypes — visiting users hammer the streaming
// branch during scheduled shifts; staff scientists run QA scans; the
// engineer's maintenance ops are the pruning schedules.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/scan_meta.hpp"
#include "pipeline/facility.hpp"

namespace alsflow::pipeline {

enum class ScanKind {
  CroppedTest,  // alignment / test scans: a few MB to a few hundred MB
  Standard,     // typical scientific scan: ~20-30 GB
  Large,        // high-angular-resolution / tall stitched scans: 60+ GB
};

const char* scan_kind_name(ScanKind k);

// Generate scan metadata of the given kind (sizes randomized within the
// kind's band).
data::ScanMetadata make_scan(Rng& rng, ScanKind kind, std::size_t index,
                             const std::string& user = "visiting-user");

// Draw a kind from the production mix: mostly standard, some cropped
// tests, rare large scans.
ScanKind draw_kind(Rng& rng);

struct Persona {
  std::string name;
  double scan_interval_mean;  // seconds between scan starts
  double streaming_fraction;  // how often they watch the live preview
  ScanKind typical_kind;
};

// Table 1 archetypes with workload parameters.
std::vector<Persona> default_personas();

struct CampaignConfig {
  Seconds duration = hours(8);          // one shift
  Seconds scan_interval_mean = 240.0;   // one scan every 3-5 minutes
  double streaming_fraction = 0.5;
  std::uint64_t seed = 7;
  bool randomize_kind = true;           // draw from the production mix
  ScanKind fixed_kind = ScanKind::Standard;
  // Extra simulated time after the last scan starts, letting in-flight
  // flows drain. Bounds the run even when infinite schedules (pruning)
  // are active.
  Seconds drain_margin = hours(12);
};

// Table-2 figures of one recon flow.
struct ReconFlowReport {
  Summary duration;
  double success_rate = 1.0;
};

struct CampaignReport {
  std::size_t scans_started = 0;
  std::size_t scans_completed = 0;
  Bytes raw_bytes = 0;
  Summary new_file;         // per-flow duration summaries (Table 2)
  // One entry per directory facility, keyed by its recon flow name
  // ("nersc_recon_flow", "alcf_recon_flow", "cloud_recon_flow").
  std::map<std::string, ReconFlowReport> recon;
  Summary streaming_latency;
};

// Drive `config.duration` of scans through the facility and run the
// engine to quiescence; summarize flow-run durations from the run DB.
CampaignReport run_campaign(Facility& facility, const CampaignConfig& config);

}  // namespace alsflow::pipeline
