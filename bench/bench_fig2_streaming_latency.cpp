// Figure 2 / Section 5.2 reproduction: the streaming branch delivers a
// three-slice preview in under 10 seconds after acquisition completes.
//
// Paper reference numbers for a 1969 x 2160 x 2560 16-bit scan (~20 GB):
//   * back-projection of the cached dataset on a 4-GPU node: 7-8 s
//   * preview slices returned to the ALS: < 1 s
//
// Two parts:
//  1. Modeled at paper scale through the full facility (frames stream over
//     ESnet during acquisition; finalize charged by the calibrated
//     ComputeModel).
//  2. Real execution at laptop scale: the actual StreamingReconstructor
//     kernels on synthetic detector frames, with measured wall-clock,
//     demonstrating the same overlap property. Frames are filtered and
//     back-projected as they arrive, so finalize() only copies the sums.
#include <chrono>
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/streaming.hpp"

using namespace alsflow;

namespace {

data::ScanMetadata paper_scan(std::size_t n_angles, std::size_t rows,
                              std::size_t cols) {
  data::ScanMetadata m;
  m.scan_id = "stream-" + std::to_string(n_angles);
  m.sample_name = "reference";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.n_angles = n_angles;
  m.rows = rows;
  m.cols = cols;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("=== Fig 2 / Sec 5.2: streaming preview latency ===\n\n");

  // --- Part 1: paper scale, modeled through the full facility ---
  std::printf("paper-scale scans through the facility (modeled timing):\n");
  std::printf("%-10s %-10s %10s %10s %10s %10s\n", "angles", "raw",
              "cache", "recon(s)", "return(s)", "total(s)");
  for (std::size_t n_angles : {969u, 1969u, 2969u}) {
    pipeline::Facility facility;
    auto scan = paper_scan(n_angles, 2160, 2560);
    const Bytes raw = scan.raw_bytes();
    pipeline::ScanOptions options;
    options.streaming = true;
    auto fut = facility.process_scan(scan, options);
    facility.engine().run();
    const auto& rep = fut.value().streaming;
    std::printf("%-10zu %-10s %10s %10.2f %10.2f %10.2f %s\n", n_angles,
                human_bytes(raw).c_str(), human_bytes(rep->cached_bytes).c_str(),
                rep->recon_done_at - rep->last_frame_at,
                rep->preview_at - rep->recon_done_at, rep->preview_latency(),
                rep->preview_latency() < 10.0 ? "< 10 s OK" : "MISSED");
  }
  std::printf("(paper: 7-8 s reconstruction + <1 s return for 1969 angles)\n\n");

  // --- Part 2: real kernels at reduced scale ---
  std::printf("real StreamingReconstructor execution (scaled down):\n");
  std::printf("%-8s %-8s %12s %12s %12s %8s\n", "n", "angles", "ingest(ms)",
              "finalize(ms)", "total(ms)", "corr");
  for (std::size_t n : {32u, 64u, 96u}) {
    const std::size_t n_angles = 2 * n;
    tomo::Volume specimen = tomo::shepp_logan_3d(n);
    tomo::Geometry geo{n_angles, n, -1.0};

    // Synthesize raw frames (counts with dark/flat physics).
    std::vector<tomo::Image> sinos(n);
    for (std::size_t z = 0; z < n; ++z) {
      sinos[z] = tomo::forward_project(specimen.slice_image(z), geo);
    }
    tomo::Image dark(n, n, 50.0f), flat(n, n, 10050.0f);

    tomo::StreamingConfig cfg;
    cfg.geo = geo;
    cfg.n_rows = n;
    tomo::StreamingReconstructor sr(cfg);
    sr.set_reference(dark, flat);

    // Ingest: per-frame normalize + filter + back-project, the work that
    // overlaps acquisition in production. Only on_frame is timed, not the
    // synthesis of the frame.
    double ingest = 0.0;
    tomo::Image frame(n, n);
    for (std::size_t a = 0; a < n_angles; ++a) {
      for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t t = 0; t < n; ++t) {
          frame.at(z, t) =
              50.0f + 10000.0f * std::exp(-double(sinos[z].at(a, t)));
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      sr.on_frame(a, frame);
      ingest += wall_seconds(t0);
    }

    // Finalize: the only post-acquisition cost.
    const auto t0 = std::chrono::steady_clock::now();
    auto preview = sr.finalize();
    const double finalize = wall_seconds(t0);

    const double corr =
        tomo::pearson_correlation(preview.xy, specimen.slice_image(n / 2));
    std::printf("%-8zu %-8zu %12.2f %12.3f %12.2f %8.3f\n", n, n_angles,
                1e3 * ingest, 1e3 * finalize, 1e3 * (ingest + finalize), corr);
  }
  std::printf("(finalize << ingest: the preview cost is hidden under "
              "acquisition, the streamtomocupy property)\n");
  return 0;
}
