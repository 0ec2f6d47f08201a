// scan_recon: one user's real-pixel scans, back to back.
//
// Each scan runs both of the paper's branches on real pixels:
//   streaming — frames through tomo::StreamingReconstructor::on_frame, then
//               finalize() for the 3-slice preview (preview_s);
//   file      — pack frames + dark/flat into data::Ah5File, serialize and
//               deserialize it (checksum verified), normalize / minus_log /
//               remove_rings, find_center_symmetry, reconstruct_volume
//               (Gridrec), MultiscaleVolume::build (3 levels) and
//               TiledService::register_volume (volume_s).
// Specimens alternate between Shepp-Logan and the proppant phantom. Frames
// are fed without detector pacing: in production, ingest overlaps
// acquisition. This is the only workload doing the paper's science
// compute, so tomo, parallel and data are measured here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "access/tiled.hpp"
#include "common/rng.hpp"
#include "data/ah5.hpp"
#include "data/multiscale.hpp"
#include "harness.hpp"
#include "hpc/compute_model.hpp"
#include "parallel/thread_pool.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/preprocess.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"
#include "tomo/streaming.hpp"

namespace perfbench {
namespace {

using alsflow::tomo::Image;
using alsflow::tomo::Volume;

constexpr int kSetupRepeats = 3;

// Scan size and the quality floors of the correctness gates (Pearson
// correlation of preview plane and gridrec volume vs the phantom).
struct Sizes {
  std::size_t rows, n, angles;
  double preview_floor, volume_floor;
};

// One specimen's acquisition: raw detector counts per angle plus the
// reference fields, and the ground truth the gates compare against.
struct Specimen {
  std::string name;
  Volume truth;              // rows x n x n attenuation
  std::vector<Image> frames;  // angles x (rows x n) raw counts
  Image dark, flat;
};

// Raw detector counts from line integrals: dark + (flat - dark) * e^-p with
// per-column flat-field gain stripes (the rings remove_rings targets) and
// photon noise.
Specimen make_specimen(const std::string& name, std::vector<Image> truth_rows,
                       const std::vector<Image>& sinos, const Sizes& sz,
                       std::uint64_t seed) {
  Specimen s;
  s.name = name;
  s.truth = Volume(sz.rows, sz.n, sz.n);
  for (std::size_t z = 0; z < sz.rows; ++z) s.truth.set_slice(z, truth_rows[z]);
  // Scale line integrals so the thickest path keeps ~5% transmission (the
  // Pearson gates are scale-free, so the truth volume stays unscaled).
  double peak = 0.0;
  for (const auto& sino : sinos) {
    for (float v : sino.span()) peak = std::max(peak, double(v));
  }
  const double scale = peak > 0.0 ? 3.0 / peak : 1.0;

  alsflow::Rng rng(seed);
  s.dark = Image(sz.rows, sz.n);
  s.flat = Image(sz.rows, sz.n);
  for (std::size_t z = 0; z < sz.rows; ++z) {
    for (std::size_t t = 0; t < sz.n; ++t) {
      s.dark.at(z, t) = float(100.0 + rng.uniform(-2.0, 2.0));
      s.flat.at(z, t) = float(s.dark.at(z, t) +
                              4000.0 * (1.0 + rng.uniform(-0.02, 0.02)));
    }
  }
  s.frames.assign(sz.angles, Image(sz.rows, sz.n));
  for (std::size_t a = 0; a < sz.angles; ++a) {
    for (std::size_t z = 0; z < sz.rows; ++z) {
      for (std::size_t t = 0; t < sz.n; ++t) {
        const double trans = std::exp(-scale * sinos[z].at(a, t));
        const double dk = s.dark.at(z, t);
        const double counts = dk + (s.flat.at(z, t) - dk) * trans;
        s.frames[a].at(z, t) =
            float(counts + rng.normal(0.0, std::sqrt(std::max(counts, 1.0))));
      }
    }
  }
  return s;
}

// Shepp-Logan rows: each cut through the 3-D ellipsoid set is an ellipse
// set, so the truth (rasterize) and the projections (analytic_sinogram)
// are exact and cheap.
Specimen shepp_logan_specimen(const Sizes& sz, std::uint64_t seed) {
  const alsflow::tomo::Geometry geo{sz.angles, sz.n, -1.0};
  std::vector<Image> truth(sz.rows), sinos(sz.rows);
  for (std::size_t z = 0; z < sz.rows; ++z) {
    // Central rows of an n^3 volume, in its [-1, 1] z coordinate.
    const std::size_t zi = (sz.n - sz.rows) / 2 + z;
    const double w = 2.0 * (double(zi) + 0.5) / double(sz.n) - 1.0;
    std::vector<alsflow::tomo::Ellipse> cut;
    for (const auto& e : alsflow::tomo::shepp_logan_ellipsoids()) {
      const double dw = (w - e.z0) / e.c;
      if (dw * dw >= 1.0) continue;
      const double k = std::sqrt(1.0 - dw * dw);
      cut.push_back({e.x0, e.y0, e.a * k, e.b * k, e.phi_deg, e.value});
    }
    truth[z] = alsflow::tomo::rasterize(cut, sz.n);
    sinos[z] = alsflow::tomo::analytic_sinogram(cut, geo);
  }
  return make_specimen("shepp-logan", std::move(truth), sinos, sz, seed);
}

// Proppant rows: numeric forward projection of the seeded phantom.
Specimen proppant_specimen(const Sizes& sz, std::uint64_t seed) {
  const alsflow::tomo::Geometry geo{sz.angles, sz.n, -1.0};
  const Volume full = alsflow::tomo::proppant_phantom(sz.n, seed);
  std::vector<Image> truth(sz.rows), sinos(sz.rows);
  for (std::size_t z = 0; z < sz.rows; ++z) {
    truth[z] = full.slice_image((sz.n - sz.rows) / 2 + z);
    sinos[z] = alsflow::tomo::forward_project(truth[z], geo);
  }
  return make_specimen("proppant", std::move(truth), sinos, sz,
                       derive_seed(seed, 1));
}

double volume_pearson(const Volume& a, const Volume& b) {
  double ma = 0, mb = 0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    ma += a.data()[i];
    mb += b.data()[i];
  }
  ma /= double(n);
  mb /= double(n);
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a.data()[i] - ma, db = b.data()[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  return va > 0 && vb > 0 ? cov / std::sqrt(va * vb) : 0.0;
}

struct ScanTimes {
  double ingest = 0, preview = 0, volume = 0;
  double preview_pearson = 0, volume_pearson = 0;
  bool ah5_ok = false;
};

// Per-phase samples of the measured loop.
struct Phase {
  Series on_frame, preview, volume, scan, preview_pearson, volume_pearson;
  std::size_t scans = 0, bad = 0;
  double ah5_bytes = 0, pyramid_bytes = 0;
};

class ScanRunner {
 public:
  ScanRunner(const Sizes& sz, SpanLog& spans) : sz_(sz), spans_(spans) {}

  const Sizes& sizes() const { return sz_; }

  ScanTimes run(const Specimen& s, std::uint64_t op, Phase* phase) {
    ScanTimes out;
    alsflow::tomo::Geometry geo{sz_.angles, sz_.n, -1.0};
    Scope scan_span(spans_, "pipeline", "scan", 0, op);
    const std::uint64_t root = scan_span.id();

    // Streaming branch.
    const double t_ingest = now_s();
    alsflow::tomo::StreamingConfig cfg;
    cfg.geo = geo;
    cfg.n_rows = sz_.rows;
    alsflow::tomo::StreamingReconstructor sr(cfg);
    sr.set_reference(s.dark, s.flat);
    for (std::size_t a = 0; a < sz_.angles; ++a) {
      Scope sp(spans_, "tomo", "on_frame", root, op);
      sr.on_frame(a, s.frames[a]);
      const double dt = sp.stop();
      if (phase) phase->on_frame.add(dt);
    }
    out.ingest = now_s() - t_ingest;
    alsflow::tomo::OrthoPreview prev;
    {
      Scope sp(spans_, "tomo", "finalize", root, op);
      prev = sr.finalize();
      out.preview = sp.stop();
    }
    out.preview_pearson = alsflow::tomo::pearson_correlation(
        prev.xy, s.truth.slice_image(sz_.rows / 2));
    if (spans_.enabled()) trace_preview_parts(sr, geo, root, op);

    // File branch.
    const double t_file = now_s();
    std::vector<Image> sinos(sz_.rows, Image(sz_.angles, sz_.n));
    {
      Scope sp(spans_, "data", "ah5_roundtrip", root, op);
      alsflow::data::Ah5File file;
      file.set_attr("specimen", s.name);
      alsflow::data::Ah5Dataset proj{"exchange/data",
                                     {sz_.angles, sz_.rows, sz_.n}, {}};
      proj.values.reserve(sz_.angles * sz_.rows * sz_.n);
      for (const Image& f : s.frames) {
        proj.values.insert(proj.values.end(), f.data(), f.data() + f.size());
      }
      (void)file.add_dataset(std::move(proj));
      (void)file.add_dataset({"exchange/data_dark", {sz_.rows, sz_.n},
                              {s.dark.data(), s.dark.data() + s.dark.size()}});
      (void)file.add_dataset({"exchange/data_white", {sz_.rows, sz_.n},
                              {s.flat.data(), s.flat.data() + s.flat.size()}});
      const std::vector<std::uint8_t> bytes = file.serialize();
      auto back = alsflow::data::Ah5File::deserialize(bytes);
      sp.stop();
      if (phase) phase->ah5_bytes = double(bytes.size());
      out.ah5_ok = back.ok();
      if (!back.ok()) return out;
      const auto* data = back.value().dataset("exchange/data");
      const auto* dark = back.value().dataset("exchange/data_dark");
      const auto* flat = back.value().dataset("exchange/data_white");
      out.ah5_ok = data && dark && flat &&
                   data->values.size() == sz_.angles * sz_.rows * sz_.n;
      if (!out.ah5_ok) return out;

      Scope pre(spans_, "tomo", "preprocess", root, op);
      Image dark_img(sz_.rows, sz_.n), flat_img(sz_.rows, sz_.n);
      std::copy(dark->values.begin(), dark->values.end(), dark_img.data());
      std::copy(flat->values.begin(), flat->values.end(), flat_img.data());
      Image frame(sz_.rows, sz_.n);
      const std::size_t plane = sz_.rows * sz_.n;
      for (std::size_t a = 0; a < sz_.angles; ++a) {
        std::copy(data->values.begin() + std::ptrdiff_t(a * plane),
                  data->values.begin() + std::ptrdiff_t((a + 1) * plane),
                  frame.data());
        alsflow::tomo::normalize(frame, dark_img, flat_img);
        alsflow::tomo::minus_log(frame);
        for (std::size_t z = 0; z < sz_.rows; ++z) {
          auto src = frame.row(z);
          std::copy(src.begin(), src.end(), sinos[z].row(a).begin());
        }
      }
      for (Image& sino : sinos) alsflow::tomo::remove_rings(sino);
    }
    {
      Scope sp(spans_, "tomo", "find_center", root, op);
      geo.center = alsflow::tomo::find_center_symmetry(sinos[sz_.rows / 2], geo);
    }
    alsflow::tomo::ReconOptions ro;
    ro.algorithm = alsflow::tomo::Algorithm::Gridrec;
    Volume vol;
    {
      Scope sp(spans_, "tomo", "gridrec", root, op);
      vol = alsflow::tomo::reconstruct_volume(sinos, geo, sz_.n, ro);
    }
    std::shared_ptr<const alsflow::data::MultiscaleVolume> pyramid;
    {
      Scope sp(spans_, "data", "pyramid", root, op);
      pyramid = std::make_shared<const alsflow::data::MultiscaleVolume>(
          alsflow::data::MultiscaleVolume::build(vol, 3));
    }
    if (phase) phase->pyramid_bytes = double(pyramid->total_bytes());
    {
      Scope sp(spans_, "access", "register", root, op);
      // One key per specimen: re-registration replaces, so memory stays flat.
      tiled_.register_volume(s.name, pyramid);
    }
    out.volume = now_s() - t_file;
    out.volume_pearson = volume_pearson(vol, s.truth);
    return out;
  }

 private:
  // Traced run only: the two halves of finalize(), called separately.
  void trace_preview_parts(const alsflow::tomo::StreamingReconstructor& sr,
                           const alsflow::tomo::Geometry& geo,
                           std::uint64_t root, std::uint64_t op) {
    {
      Scope sp(spans_, "tomo", "preview_plane", root, op);
      (void)sr.reconstruct_row(sz_.rows / 2);
    }
    Scope sp(spans_, "tomo", "preview_cuts", root, op);
    const std::size_t n = sz_.n;
    std::vector<double> us(n), vs(n, 0.0), us2(n, 0.0), vs2(n);
    for (std::size_t x = 0; x < n; ++x) {
      us[x] = 2.0 * (double(x) + 0.5) / double(n) - 1.0;
      vs2[x] = -us[x];
    }
    Image xz(sz_.rows, n), yz(sz_.rows, n);
    alsflow::parallel::parallel_for(0, sz_.rows, [&](std::size_t z) {
      alsflow::tomo::fbp_backproject_points(sr.filtered_sinogram(z), geo, us,
                                            vs, xz.row(z));
      alsflow::tomo::fbp_backproject_points(sr.filtered_sinogram(z), geo, us2,
                                            vs2, yz.row(z));
    });
  }

  Sizes sz_;
  SpanLog& spans_;
  alsflow::access::TiledService tiled_;
};

// Scans back to back until `seconds` of wall time have passed (at least one).
Phase measure(ScanRunner& runner, const std::vector<Specimen>& specimens,
              double seconds, std::uint64_t first_op) {
  Phase ph;
  const double t_end = now_s() + seconds;
  do {
    const Specimen& s = specimens[ph.scans % specimens.size()];
    const ScanTimes t = runner.run(s, first_op + ph.scans, &ph);
    ++ph.scans;
    if (!t.ah5_ok || t.preview_pearson < runner.sizes().preview_floor ||
        t.volume_pearson < runner.sizes().volume_floor) {
      ++ph.bad;
      std::printf("  scan %zu (%s) failed a gate: ah5=%d preview r=%.4f "
                  "volume r=%.4f\n",
                  ph.scans, s.name.c_str(), int(t.ah5_ok), t.preview_pearson,
                  t.volume_pearson);
    }
    ph.preview.add(t.preview);
    ph.volume.add(t.volume);
    ph.scan.add(t.ingest + t.preview + t.volume);
    ph.preview_pearson.add(t.preview_pearson);
    ph.volume_pearson.add(t.volume_pearson);
  } while (now_s() < t_end);
  return ph;
}

}  // namespace

Result run_scan_recon(const Options& opt, SpanLog& spans) {
  const Sizes sz = opt.tiny ? Sizes{8, 64, 64, 0.8, 0.75}
                            : Sizes{32, 256, 256, 0.85, 0.85};
  Result res;

  // Inputs, outside every timed region: two specimens, seeded.
  const double t_gen = now_s();
  // The single-thread baseline reconstructs Shepp-Logan scans only: kernel
  // costs depend on sizes, not content, and its inputs are cheap to make.
  std::vector<Specimen> specimens;
  specimens.push_back(shepp_logan_specimen(sz, derive_seed(opt.seed, 1)));
  if (!opt.baseline) {
    specimens.push_back(proppant_specimen(sz, derive_seed(opt.seed, 2)));
  }
  std::printf("  inputs generated in %.2f s\n", now_s() - t_gen);

  // Set-up: pool start plus one warm-up scan, repeated; median reported.
  SpanLog untraced(false);
  Series setup;
  std::unique_ptr<ScanRunner> runner;
  for (int i = 0; i < (opt.baseline ? 1 : kSetupRepeats); ++i) {
    const double t0 = now_s();
    const std::size_t threads = alsflow::parallel::ThreadPool::global().size();
    runner = std::make_unique<ScanRunner>(sz, untraced);
    const ScanTimes warm = runner->run(specimens[0], 0, nullptr);
    setup.add(now_s() - t0);
    res.gate(warm.ah5_ok, "warm-up scan AH5 round trip");
    res.set("parallel.pool_threads", double(threads), "count");
  }
  res.set_median("setup_s", setup);

  // End-to-end phase: untraced. In the traced run it takes half the time
  // so the other half can be traced (their ratio is the tracing overhead).
  Phase ph;
  if (!opt.baseline) {
    ph = measure(*runner, specimens, opt.trace ? opt.seconds / 2 : opt.seconds,
                 1);
    res.attempt(ph.scans);
    res.fail(ph.bad);
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    // Rates from the median scan, so one scan slowed by another tenant
    // does not move the run's figure.
    res.set("throughput_per_s", 1.0 / ph.scan.median(), "1/s", ph.scans);
    res.set_median("latency_p50_s", ph.preview);
    res.set("scans_per_s", 1.0 / ph.scan.median(), "1/s", ph.scans);
    res.set_median("preview_s", ph.preview);
    res.set_median("volume_s", ph.volume);
  }

  if (opt.trace) {
    ScanRunner traced_runner(sz, spans);
    Phase tr = measure(traced_runner, specimens, opt.seconds / 2, 1000);
    res.attempt(tr.scans);
    res.fail(tr.bad);
    ph.preview_pearson.append(tr.preview_pearson);
    ph.volume_pearson.append(tr.volume_pearson);
    if (ph.scans > 0) {
      res.set("telemetry.traced_slowdown", tr.scan.median() / ph.scan.median(),
              "ratio", tr.scans);
    }
    const Series on_frame = spans.durations("tomo", "on_frame");
    res.set("tomo.on_frame_p50_s", on_frame.median(), "s", on_frame.count());
    res.set("tomo.on_frame_p99_s", on_frame.quantile(0.99), "s",
            on_frame.count());
    res.set_median("tomo.finalize_s", spans.durations("tomo", "finalize"));
    const Series plane = spans.durations("tomo", "preview_plane");
    res.set_median("tomo.preview_plane_s", plane);
    res.set_median("tomo.preview_cuts_s", spans.durations("tomo", "preview_cuts"));
    const double updates = double(sz.n) * double(sz.n) * double(sz.angles);
    res.set("tomo.fbp_ns_per_update", plane.median() / updates * 1e9, "ns",
            plane.count());
    res.set_median("data.ah5_roundtrip_s", spans.durations("data", "ah5_roundtrip"));
    res.set("data.ah5_bytes", tr.ah5_bytes, "B");
    res.set_median("tomo.preprocess_s", spans.durations("tomo", "preprocess"));
    res.set_median("tomo.find_center_s", spans.durations("tomo", "find_center"));
    const Series gridrec = spans.durations("tomo", "gridrec");
    res.set_median("tomo.gridrec_s", gridrec);
    const double voxels = double(sz.rows) * double(sz.n) * double(sz.n);
    res.set("tomo.gridrec_voxels_per_s", voxels / gridrec.median(), "1/s",
            gridrec.count());
    res.set_median("data.pyramid_s", spans.durations("data", "pyramid"));
    res.set("data.pyramid_bytes", tr.pyramid_bytes, "B");
    res.set_median("access.register_s", spans.durations("access", "register"));

    // Calibration (informational, never gated): measured kernel rates per
    // core beside the simulation's hard-coded ComputeModel node rates.
    // The GPU rate is output voxels/s of the paper's 1969-projection scan,
    // so FBP updates/s convert to voxels/s at 1969 angles.
    const alsflow::hpc::ComputeModel model;
    const double threads =
        double(alsflow::parallel::ThreadPool::global().size());
    const double gridrec_core = voxels / gridrec.median() / threads;
    const double fbp_ns_core = plane.median() / updates * 1e9 * threads;
    const double fbp_voxels_core = 1e9 / fbp_ns_core / 1969.0;
    std::printf("  calibration: gridrec %.3g voxels/s per core; ComputeModel"
                " cpu_node_voxels_per_s %.3g = %.3g cores like this one"
                " (node has 128)\n",
                gridrec_core, model.cpu_node_voxels_per_s,
                model.cpu_node_voxels_per_s / gridrec_core);
    std::printf("  calibration: FBP %.2f ns per pixel-angle update per core"
                " = %.3g voxels/s per core at 1969 angles; ComputeModel"
                " gpu_node_voxels_per_s %.3g = %.3g cores like this one\n",
                fbp_ns_core, fbp_voxels_core, model.gpu_node_voxels_per_s,
                model.gpu_node_voxels_per_s / fbp_voxels_core);
    res.fact("calibration.gridrec_voxels_per_s_per_core",
             std::to_string(gridrec_core));
    res.fact("calibration.fbp_ns_per_update_per_core",
             std::to_string(fbp_ns_core));
  }
  // Worst scan of the run against the fixed floors.
  res.set("tomo.preview_pearson", ph.preview_pearson.quantile(0.0), "r",
          ph.preview_pearson.count());
  res.set("tomo.volume_pearson", ph.volume_pearson.quantile(0.0), "r",
          ph.volume_pearson.count());
  res.gate(ph.preview_pearson.quantile(0.0) >= sz.preview_floor,
           "preview Pearson vs phantom above floor");
  res.gate(ph.volume_pearson.quantile(0.0) >= sz.volume_floor,
           "gridrec volume Pearson vs phantom above floor");
  return res;
}

}  // namespace perfbench
