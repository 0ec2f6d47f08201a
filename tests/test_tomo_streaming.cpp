#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"
#include "tomo/streaming.hpp"

namespace alsflow::tomo {
namespace {

// Build raw detector frames for a volume: frame a is (n_rows x n_det), row z
// is the forward projection of volume slice z at angle a, converted to
// counts with dark/flat physics.
struct SyntheticScan {
  Geometry geo;
  std::size_t n_rows;
  Image dark, flat;
  std::vector<Image> frames;  // per angle

  SyntheticScan(const Volume& vol, std::size_t n_angles)
      : geo{n_angles, vol.nx(), -1.0},
        n_rows(vol.nz()),
        dark(vol.nz(), vol.nx(), 50.0f),
        flat(vol.nz(), vol.nx(), 10050.0f) {
    // Forward project each slice once, then regroup by angle.
    std::vector<Image> sinos(n_rows);
    for (std::size_t z = 0; z < n_rows; ++z) {
      sinos[z] = forward_project(vol.slice_image(z), geo);
    }
    frames.assign(n_angles, Image(n_rows, vol.nx()));
    for (std::size_t a = 0; a < n_angles; ++a) {
      for (std::size_t z = 0; z < n_rows; ++z) {
        for (std::size_t t = 0; t < vol.nx(); ++t) {
          const float integral = sinos[z].at(a, t);
          frames[a].at(z, t) = 50.0f + 10000.0f * std::exp(-integral);
        }
      }
    }
  }
};

StreamingConfig make_config(const SyntheticScan& scan) {
  StreamingConfig cfg;
  cfg.geo = scan.geo;
  cfg.n_rows = scan.n_rows;
  cfg.filter = FilterKind::SheppLogan;
  cfg.normalize = true;
  return cfg;
}

TEST(Streaming, TracksFrameCount) {
  Volume vol = shepp_logan_3d(32);
  SyntheticScan scan(vol, 24);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  EXPECT_FALSE(sr.complete());
  for (std::size_t a = 0; a < 24; ++a) {
    sr.on_frame(a, scan.frames[a]);
    EXPECT_EQ(sr.frames_received(), a + 1);
  }
  EXPECT_TRUE(sr.complete());
}

TEST(Streaming, DuplicateFramesDoNotDoubleCount) {
  Volume vol = shepp_logan_3d(16);
  SyntheticScan scan(vol, 8);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  sr.on_frame(3, scan.frames[3]);
  sr.on_frame(3, scan.frames[3]);
  EXPECT_EQ(sr.frames_received(), 1u);
}

TEST(Streaming, CentralSliceMatchesOfflineRecon) {
  Volume vol = shepp_logan_3d(48);
  SyntheticScan scan(vol, 64);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  for (std::size_t a = 0; a < 64; ++a) sr.on_frame(a, scan.frames[a]);

  OrthoPreview preview = sr.finalize();

  // Offline path: normalize+log+filter+backproject the same central slice.
  Image sino = forward_project(vol.slice_image(24), scan.geo);
  Image offline = reconstruct_fbp(sino, scan.geo, 48, FilterKind::SheppLogan);
  EXPECT_LT(rmse(preview.xy, offline), 1e-3);
}

TEST(Streaming, OutOfOrderFramesGiveSameResult) {
  Volume vol = shepp_logan_3d(32);
  SyntheticScan scan(vol, 32);

  StreamingReconstructor in_order(make_config(scan));
  in_order.set_reference(scan.dark, scan.flat);
  for (std::size_t a = 0; a < 32; ++a) in_order.on_frame(a, scan.frames[a]);

  StreamingReconstructor shuffled(make_config(scan));
  shuffled.set_reference(scan.dark, scan.flat);
  Rng rng(5);
  std::vector<std::size_t> order(32);
  for (std::size_t i = 0; i < 32; ++i) order[i] = i;
  for (std::size_t i = 31; i > 0; --i) {
    std::swap(order[i], order[std::size_t(rng.uniform_int(0, int(i)))]);
  }
  for (std::size_t a : order) shuffled.on_frame(a, scan.frames[a]);

  auto p1 = in_order.finalize();
  auto p2 = shuffled.finalize();
  EXPECT_DOUBLE_EQ(rmse(p1.xy, p2.xy), 0.0);
  EXPECT_DOUBLE_EQ(rmse(p1.xz, p2.xz), 0.0);
  EXPECT_DOUBLE_EQ(rmse(p1.yz, p2.yz), 0.0);
}

// The preview back-projected from scratch out of the reconstructor's
// current filtered sinograms: the central plane by reconstruct_row, the
// cuts by fbp_backproject_points through the pixel centres.
OrthoPreview from_scratch(const StreamingReconstructor& sr,
                          const StreamingConfig& cfg) {
  const std::size_t n = cfg.recon_width();
  std::vector<double> us(n), vs(n), zeros(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    us[i] = 2.0 * (double(i) + 0.5) / double(n) - 1.0;
    vs[i] = 1.0 - 2.0 * (double(i) + 0.5) / double(n);
  }
  OrthoPreview p{sr.reconstruct_row(cfg.n_rows / 2), Image(cfg.n_rows, n),
                 Image(cfg.n_rows, n)};
  for (std::size_t z = 0; z < cfg.n_rows; ++z) {
    fbp_backproject_points(sr.filtered_sinogram(z), cfg.geo, us, zeros,
                           p.xz.row(z));
    fbp_backproject_points(sr.filtered_sinogram(z), cfg.geo, zeros, vs,
                           p.yz.row(z));
  }
  return p;
}

bool same_bytes(const Image& a, const Image& b) {
  return a.ny() == b.ny() && a.nx() == b.nx() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_from_scratch(const StreamingReconstructor& sr,
                         const StreamingConfig& cfg, const std::string& what) {
  const OrthoPreview got = sr.finalize();
  const OrthoPreview want = from_scratch(sr, cfg);
  EXPECT_TRUE(same_bytes(got.xy, want.xy)) << what << ": XY";
  EXPECT_TRUE(same_bytes(got.xz, want.xz)) << what << ": XZ";
  EXPECT_TRUE(same_bytes(got.yz, want.yz)) << what << ": YZ";
}

TEST(Streaming, IncrementalPreviewBitIdenticalToFromScratch) {
  // finalize() copies sums built frame by frame; it must equal the
  // from-scratch preview byte for byte whatever the arrival order, after
  // duplicates with new content on either side of the frontier, and for a
  // partial scan. Odd and even detector-row counts (the XY plane is row
  // n_rows / 2), and an output width other than the detector's.
  const std::pair<std::size_t, std::size_t> sizes[] = {{15, 0}, {16, 0},
                                                       {16, 11}};
  for (const auto& [n, recon_n] : sizes) {
    SCOPED_TRACE("n_rows = n_det = " + std::to_string(n) +
                 ", recon_n = " + std::to_string(recon_n));
    Volume vol = shepp_logan_3d(n);
    constexpr std::size_t kAngles = 20;
    SyntheticScan scan(vol, kAngles);
    StreamingConfig cfg = make_config(scan);
    cfg.recon_n = recon_n;
    const auto fresh = [&] {
      StreamingReconstructor sr(cfg);
      sr.set_reference(scan.dark, scan.flat);
      return sr;
    };
    // New content for a re-sent angle: another angle's frame.
    const auto other = [&](std::size_t a) {
      return scan.frames[(a + 7) % kAngles];
    };

    {
      StreamingReconstructor sr = fresh();
      for (std::size_t a = 0; a < kAngles; ++a) {
        sr.on_frame(a, scan.frames[a]);
        expect_from_scratch(sr, cfg, "in order, " + std::to_string(a + 1));
      }
      // Duplicates behind the frontier: angles already summed.
      sr.on_frame(3, other(3));
      expect_from_scratch(sr, cfg, "duplicate of a summed angle");
      sr.on_frame(kAngles - 1, other(kAngles - 1));
      sr.on_frame(0, other(0));
      expect_from_scratch(sr, cfg, "two more duplicates");
    }
    {
      StreamingReconstructor sr = fresh();
      Rng rng(9 + n);
      std::vector<std::size_t> order(kAngles);
      for (std::size_t i = 0; i < kAngles; ++i) order[i] = i;
      for (std::size_t i = kAngles - 1; i > 0; --i) {
        std::swap(order[i], order[std::size_t(rng.uniform_int(0, int(i)))]);
      }
      for (std::size_t k = 0; k < kAngles; ++k) {
        sr.on_frame(order[k], scan.frames[order[k]]);
        expect_from_scratch(sr, cfg, "shuffled, " + std::to_string(k + 1));
      }
    }
    {
      // Angle 0 arrives last, so the frontier stays at 0 until then.
      StreamingReconstructor sr = fresh();
      for (std::size_t a = 1; a < kAngles; ++a) sr.on_frame(a, scan.frames[a]);
      sr.on_frame(5, other(5));  // ahead of the frontier: not summed yet
      expect_from_scratch(sr, cfg, "duplicate ahead of the frontier");
      sr.on_frame(0, scan.frames[0]);
      expect_from_scratch(sr, cfg, "gap filled");
      sr.on_frame(5, scan.frames[5]);  // now behind it
      expect_from_scratch(sr, cfg, "duplicate behind the frontier");
    }
    {
      // Half scans: every other angle (gaps throughout), and the first
      // half (no gap).
      StreamingReconstructor strided = fresh();
      StreamingReconstructor first_half = fresh();
      for (std::size_t a = 0; a < kAngles / 2; ++a) {
        strided.on_frame(2 * a + 1, scan.frames[2 * a + 1]);
        first_half.on_frame(a, scan.frames[a]);
      }
      EXPECT_FALSE(strided.complete());
      expect_from_scratch(strided, cfg, "every other angle");
      expect_from_scratch(first_half, cfg, "first half");
    }
  }
}

TEST(Streaming, PreviewSlicesResembleGroundTruth) {
  Volume vol = shepp_logan_3d(48);
  SyntheticScan scan(vol, 96);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  for (std::size_t a = 0; a < 96; ++a) sr.on_frame(a, scan.frames[a]);
  OrthoPreview preview = sr.finalize();

  // XY preview vs phantom central slice (48^3 voxels, 96 angles: modest
  // resolution bounds the achievable correlation).
  EXPECT_GT(pearson_correlation(preview.xy, vol.slice_image(24)), 0.85);

  // XZ cut (v=0 plane): rows are z, columns are x at y-center.
  Image truth_xz(48, 48);
  for (std::size_t z = 0; z < 48; ++z) {
    for (std::size_t x = 0; x < 48; ++x) {
      truth_xz.at(z, x) = vol.at(z, 24, x);
    }
  }
  EXPECT_GT(pearson_correlation(preview.xz, truth_xz), 0.85);

  // YZ cut (u=0 plane): rows are z, columns are y.
  Image truth_yz(48, 48);
  for (std::size_t z = 0; z < 48; ++z) {
    for (std::size_t y = 0; y < 48; ++y) {
      truth_yz.at(z, y) = vol.at(z, y, 24);
    }
  }
  EXPECT_GT(pearson_correlation(preview.yz, truth_yz), 0.85);
}

TEST(Streaming, ReconstructRowRebuildsFullVolume) {
  Volume vol = shepp_logan_3d(24);
  SyntheticScan scan(vol, 48);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  for (std::size_t a = 0; a < 48; ++a) sr.on_frame(a, scan.frames[a]);

  Volume recon(24, 24, 24);
  for (std::size_t z = 0; z < 24; ++z) {
    recon.set_slice(z, sr.reconstruct_row(z));
  }
  EXPECT_LT(rmse(recon, vol), 0.12);
}

TEST(Streaming, ReconstructAllRowsMatchesPerRow) {
  // The parallel whole-volume path must produce bitwise the same slices as
  // the per-row calls (row-level parallelism nests the kernel-level one).
  Volume vol = shepp_logan_3d(24);
  SyntheticScan scan(vol, 48);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  for (std::size_t a = 0; a < 48; ++a) sr.on_frame(a, scan.frames[a]);

  Volume all = sr.reconstruct_all_rows();
  ASSERT_EQ(all.nz(), 24u);
  ASSERT_EQ(all.ny(), 24u);
  ASSERT_EQ(all.nx(), 24u);
  for (std::size_t z = 0; z < 24; ++z) {
    Image row = sr.reconstruct_row(z);
    Image got = all.slice_image(z);
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(got.data()[i], row.data()[i]) << "row " << z << " px " << i;
    }
  }
  EXPECT_LT(rmse(all, vol), 0.12);
}

TEST(Streaming, PartialPreviewStillProduces) {
  Volume vol = shepp_logan_3d(32);
  SyntheticScan scan(vol, 64);
  StreamingReconstructor sr(make_config(scan));
  sr.set_reference(scan.dark, scan.flat);
  // Only half the angles arrive (interrupted scan).
  for (std::size_t a = 0; a < 32; ++a) sr.on_frame(a, scan.frames[a]);
  EXPECT_FALSE(sr.complete());
  OrthoPreview preview = sr.finalize();
  // Degraded but recognizably correlated with truth.
  EXPECT_GT(pearson_correlation(preview.xy, vol.slice_image(16)), 0.5);
}

TEST(Streaming, NormalizationOffAcceptsLineIntegrals) {
  Volume vol = shepp_logan_3d(24);
  Geometry geo{32, 24, -1.0};
  StreamingConfig cfg;
  cfg.geo = geo;
  cfg.n_rows = 24;
  cfg.normalize = false;

  StreamingReconstructor sr(cfg);
  std::vector<Image> sinos(24);
  for (std::size_t z = 0; z < 24; ++z) {
    sinos[z] = forward_project(vol.slice_image(z), geo);
  }
  for (std::size_t a = 0; a < 32; ++a) {
    Image frame(24, 24);
    for (std::size_t z = 0; z < 24; ++z) {
      for (std::size_t t = 0; t < 24; ++t) frame.at(z, t) = sinos[z].at(a, t);
    }
    sr.on_frame(a, frame);
  }
  OrthoPreview preview = sr.finalize();
  EXPECT_GT(pearson_correlation(preview.xy, vol.slice_image(12)), 0.8);
}

}  // namespace
}  // namespace alsflow::tomo
