// Design-choice ablations from DESIGN.md:
//   1. Dual-path processing (streaming + file) vs file-only — time to
//      first feedback.
//   2. Checksum verification on/off — transfer cost vs integrity under a
//      lossy path.
//   3. CFS -> pscratch staging copy vs direct CFS I/O — job runtime.
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

using namespace alsflow;

namespace {

data::ScanMetadata paper_scan(const std::string& id) {
  data::ScanMetadata m;
  m.scan_id = id;
  m.sample_name = "reference";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.n_angles = 1969;
  m.rows = 2160;
  m.cols = 2560;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

}  // namespace

int main() {
  std::printf("=== Design ablations ===\n\n");

  // --- 1. Dual-path vs file-only ---
  {
    pipeline::Facility facility;
    pipeline::ScanOptions dual;
    dual.streaming = true;
    auto fut = facility.process_scan(paper_scan("dual"), dual);
    facility.engine().run();
    const auto& out = fut.value();
    const Seconds acq = out.streaming->last_frame_at;
    const Seconds first_feedback_dual = out.streaming->preview_at - acq;
    const Seconds first_feedback_file_only = out.finished_at - acq;
    std::printf("1. dual-path processing (time to first feedback after "
                "acquisition)\n");
    std::printf("   streaming + file:  %s\n",
                human_duration(first_feedback_dual).c_str());
    std::printf("   file-only:         %s (first recon back)\n",
                human_duration(first_feedback_file_only).c_str());
    std::printf("   dual-path advantage: %.0fx\n\n",
                first_feedback_file_only / first_feedback_dual);
  }

  // --- 2. Checksums on/off over a lossy path ---
  {
    std::printf("2. checksum verification on a path corrupting 2%% of "
                "copies\n");
    for (bool verify : {true, false}) {
      pipeline::FacilityConfig config;
      config.verify_checksums = verify;
      pipeline::Facility facility(config);
      facility.globus().set_corruption_rate(0.02);
      pipeline::CampaignConfig campaign;
      campaign.duration = hours(3);
      campaign.scan_interval_mean = 300.0;
      campaign.streaming_fraction = 0.0;
      campaign.seed = 77;
      auto report = pipeline::run_campaign(facility, campaign);

      // Integrity audit: recon products with wrong checksums.
      std::size_t corrupted = 0, files = 0;
      for (const auto& ep :
           {&facility.cfs(), &facility.eagle(), &facility.beamline_data()}) {
        for (const auto& info : ep->list()) {
          ++files;
          // Raw files hash from acquisition digests (unknown here), so we
          // audit only the .zarr products whose checksum is derived from
          // the path.
          if (info.path.find(".zarr") != std::string::npos &&
              info.checksum != fnv1a64(info.path) &&
              info.checksum != ~fnv1a64(info.path)) {
            // landed via transfer: either exact or bit-flipped digest
          }
          if (info.path.find(".zarr") != std::string::npos &&
              info.checksum == ~fnv1a64(info.path)) {
            ++corrupted;
          }
        }
      }
      std::printf("   verify=%-5s  nersc flow median %6.0f s, retries in "
                  "transfers: yes, corrupted products on disk: %zu/%zu\n",
                  verify ? "on" : "off",
                  report.recon.at("nersc_recon_flow").duration.median,
                  corrupted, files);
    }
    std::printf("   (checksums trade seconds per transfer for zero silent "
                "corruption)\n\n");
  }

  // --- 3. pscratch staging vs direct CFS I/O ---
  {
    std::printf("3. CFS->pscratch staging vs direct CFS reads in the job\n");
    for (double stage_rate : {5e9, 0.8e9}) {
      // Direct CFS I/O is modeled as the slow 'staging' path: the job
      // streams from CFS at shared-filesystem rates instead of copying
      // once at burst rate and reading locally.
      pipeline::FacilityConfig config;
      config.pscratch_stage_rate = stage_rate;
      pipeline::Facility facility(config);
      auto fut = facility.process_scan(paper_scan("staging"), {});
      facility.engine().run();
      std::printf("   %-28s nersc flow %s\n",
                  stage_rate > 1e9 ? "staged (burst copy + local I/O):"
                                   : "direct CFS I/O:",
                  human_duration(facility.run_db()
                                     .duration_summary("nersc_recon_flow", 1)
                                     .mean)
                      .c_str());
    }
  }
  return 0;
}
