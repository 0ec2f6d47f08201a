// Streaming-branch demo: the <10 s preview path, with real pixels.
//
// A synthetic detector acquires a Shepp-Logan specimen; frames fan out
// through the PVA mirror exactly as at the beamline; a streaming
// reconstructor consumes them as they arrive and, at acquisition end,
// produces the three orthogonal preview slices the user sees in ImageJ.
// The slices are rendered to the terminal and written as PGM files.
#include <cstdio>

#include "access/render.hpp"
#include "beamline/detector.hpp"
#include "common/log.hpp"
#include "pipeline/facility.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/streaming.hpp"

using namespace alsflow;

int main() {
  set_log_level(LogLevel::Info);
  std::printf("=== streaming preview: acquire -> mirror -> reconstruct ===\n\n");

  // --- Real-pixel run at laptop scale ---
  const std::size_t n = 64;
  const std::size_t n_angles = 128;
  sim::Engine eng;
  beamline::Detector::Config det_cfg;
  det_cfg.frame_rate = 20.0;
  det_cfg.batch_size = 16;
  beamline::Detector detector(eng, det_cfg);
  net::MirrorServer<beamline::FrameBatch> mirror(eng, detector.ioc_channel(),
                                                 "pva-mirror");
  auto sub = mirror.channel().subscribe();

  data::ScanMetadata scan;
  scan.scan_id = "demo-stream";
  scan.sample_name = "shepp-logan";
  scan.proposal = "DEMO";
  scan.user = "you";
  scan.n_angles = n_angles;
  scan.rows = n;
  scan.cols = n;
  scan.bit_depth = 16;
  scan.exposure_s = 0.05;
  scan.energy_kev = 22.0;
  scan.pixel_um = 0.65;

  auto specimen = std::make_shared<tomo::Volume>(tomo::shepp_logan_3d(n));
  auto acq = detector.acquire_with_pixels(scan, specimen);
  eng.run();
  std::printf("acquired %zu frames in %s simulated time\n", n_angles,
              human_duration(acq.value().acquired_at).c_str());

  tomo::StreamingConfig cfg;
  cfg.geo = tomo::Geometry{n_angles, n, -1.0};
  cfg.n_rows = n;
  tomo::StreamingReconstructor recon(cfg);
  recon.set_reference(detector.reference_dark(scan),
                      detector.reference_flat(scan));
  while (auto batch = sub->queue().try_pop()) {
    for (std::size_t k = 0; k < batch->count; ++k) {
      recon.on_frame(batch->first_angle + k, (*batch->pixels)[k]);
    }
  }
  tomo::OrthoPreview preview = recon.finalize();

  std::printf("\ncentral XY slice (correlation with ground truth: %.3f):\n\n",
              tomo::pearson_correlation(preview.xy,
                                        specimen->slice_image(n / 2)));
  std::printf("%s\n", access::ascii_render(preview.xy, 56).c_str());

  for (auto& [name, img] :
       {std::pair<const char*, tomo::Image&>{"preview_xy.pgm", preview.xy},
        {"preview_xz.pgm", preview.xz},
        {"preview_yz.pgm", preview.yz}}) {
    if (access::write_pgm(name, img).ok()) {
      std::printf("wrote %s\n", name);
    }
  }

  // --- Paper-scale latency through the full facility (modeled) ---
  std::printf("\npaper-scale scan (1969 x 2160 x 2560) through the "
              "facility:\n");
  pipeline::Facility facility;
  data::ScanMetadata big = scan;
  big.scan_id = "paper-scale";
  big.n_angles = 1969;
  big.rows = 2160;
  big.cols = 2560;
  pipeline::ScanOptions options;
  options.streaming = true;
  auto fut = facility.process_scan(big, options);
  facility.engine().run();
  const auto& report = fut.value().streaming;
  std::printf("  preview latency after acquisition: %.1f s (paper: <10 s)\n",
              report->preview_latency());
  return 0;
}
