#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"

namespace alsflow::tomo {
namespace {

// Shared fixtures: a phantom and its analytic sinogram at test resolution.
struct ReconCase {
  std::size_t n;
  Geometry geo;
  Image phantom;
  Image sino;

  explicit ReconCase(std::size_t n_, std::size_t n_angles)
      : n(n_), geo{n_angles, n_, -1.0}, phantom(shepp_logan(n_)) {
    sino = analytic_sinogram(shepp_logan_ellipses(), geo);
  }
};

TEST(Fbp, ReconstructsPhantomAccurately) {
  ReconCase c(128, 180);
  Image recon = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::SheppLogan);
  // Absolute scale check: center value 0.2 recovered.
  EXPECT_NEAR(recon.at(64, 64), 0.2f, 0.03f);
  // Residual is edge-dominated (binary phantom, linear interpolation).
  EXPECT_LT(rmse(c.phantom, recon), 0.08);
  EXPECT_GT(pearson_correlation(c.phantom, recon), 0.95);
}

TEST(Fbp, RampSharperButNoisierThanHann) {
  ReconCase c(64, 90);
  Image ramp = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::Ramp);
  Image hann = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::Hann);
  // Both reconstruct; Hann smooths (lower high-frequency content).
  EXPECT_GT(pearson_correlation(c.phantom, ramp), 0.85);
  EXPECT_GT(pearson_correlation(c.phantom, hann), 0.8);
  // Proxy for smoothing: total variation of Hann < ramp.
  auto tv = [](const Image& img) {
    double acc = 0.0;
    for (std::size_t y = 0; y < img.ny(); ++y) {
      for (std::size_t x = 1; x < img.nx(); ++x) {
        acc += std::abs(img.at(y, x) - img.at(y, x - 1));
      }
    }
    return acc;
  };
  EXPECT_LT(tv(hann), tv(ramp));
}

TEST(Fbp, MoreAnglesImproveQuality) {
  ReconCase coarse(64, 24);
  ReconCase fine(64, 180);
  Image r_coarse =
      reconstruct_fbp(coarse.sino, coarse.geo, 64, FilterKind::SheppLogan);
  Image r_fine =
      reconstruct_fbp(fine.sino, fine.geo, 64, FilterKind::SheppLogan);
  EXPECT_LT(rmse(fine.phantom, r_fine), rmse(coarse.phantom, r_coarse));
}

TEST(Fbp, UnfilteredBackprojectionIsBlurry) {
  ReconCase c(64, 90);
  Image fbp = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::SheppLogan);
  Image blurry = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::None);
  EXPECT_LT(rmse(c.phantom, fbp), rmse(c.phantom, blurry));
}

TEST(Gridrec, MatchesFbpQualityClass) {
  ReconCase c(128, 180);
  Image grid = reconstruct_gridrec(c.sino, c.geo, c.n, FilterKind::SheppLogan);
  EXPECT_NEAR(grid.at(64, 64), 0.2f, 0.05f);
  EXPECT_GT(pearson_correlation(c.phantom, grid), 0.93);
  EXPECT_LT(rmse(c.phantom, grid), 0.09);
}

TEST(Gridrec, AgreesWithFbpPointwise) {
  ReconCase c(64, 128);
  Image fbp = reconstruct_fbp(c.sino, c.geo, c.n, FilterKind::SheppLogan);
  Image grid = reconstruct_gridrec(c.sino, c.geo, c.n, FilterKind::SheppLogan);
  // Same object, same filter: the two transforms agree closely.
  EXPECT_GT(pearson_correlation(fbp, grid), 0.97);
}

TEST(Sirt, ConvergesTowardPhantom) {
  ReconCase c(48, 48);
  // Use the numeric projector's own sinogram so SIRT can fit it exactly.
  Image sino = forward_project(c.phantom, c.geo);
  Image it10 = reconstruct_sirt(sino, c.geo, c.n, 10);
  Image it80 = reconstruct_sirt(sino, c.geo, c.n, 80);
  EXPECT_LT(rmse(c.phantom, it80), rmse(c.phantom, it10));
  EXPECT_LT(rmse(c.phantom, it80), 0.09);
}

TEST(Sirt, NonNegativeOutput) {
  ReconCase c(32, 32);
  Image sino = forward_project(c.phantom, c.geo);
  Image recon = reconstruct_sirt(sino, c.geo, c.n, 10, /*non_negative=*/true);
  for (float v : recon.span()) EXPECT_GE(v, 0.0f);
}

TEST(ReconstructSlice, DispatchesAllAlgorithms) {
  ReconCase c(32, 32);
  Image sino = forward_project(c.phantom, c.geo);
  for (Algorithm algo : {Algorithm::FBP, Algorithm::Gridrec, Algorithm::SIRT}) {
    ReconOptions opts;
    opts.algorithm = algo;
    opts.n_iterations = 10;
    Image recon = reconstruct_slice(sino, c.geo, c.n, opts);
    EXPECT_EQ(recon.ny(), c.n) << algorithm_name(algo);
    EXPECT_GT(pearson_correlation(c.phantom, recon), 0.75)
        << algorithm_name(algo);
  }
}

TEST(ReconstructSlice, NonNegativeOptionClamps) {
  ReconCase c(32, 32);
  ReconOptions opts;
  opts.algorithm = Algorithm::FBP;
  opts.non_negative = true;
  Image recon = reconstruct_slice(c.sino, c.geo, c.n, opts);
  for (float v : recon.span()) EXPECT_GE(v, 0.0f);
}

TEST(ReconstructVolume, SlicesMatchSliceReconstruction) {
  // Multi-slice entry point: each slice of the volume must equal the
  // single-slice reconstruction of its sinogram, despite slice-level and
  // nested kernel-level parallelism sharing the pool. Gridrec packs the
  // slices in pairs; odd and tiny angle counts run too.
  for (std::size_t n_angles : {90u, 91u, 3u}) {
    ReconCase c(64, n_angles);
    std::vector<Image> sinos;
    for (int z = 0; z < 6; ++z) sinos.push_back(c.sino);
    for (Algorithm algo : {Algorithm::FBP, Algorithm::Gridrec}) {
      ReconOptions opts;
      opts.algorithm = algo;
      Volume vol = reconstruct_volume(sinos, c.geo, c.n, opts);
      ASSERT_EQ(vol.nz(), sinos.size()) << algorithm_name(algo);
      ASSERT_EQ(vol.ny(), c.n);
      ASSERT_EQ(vol.nx(), c.n);
      Image ref = reconstruct_slice(c.sino, c.geo, c.n, opts);
      for (std::size_t z = 0; z < vol.nz(); ++z) {
        Image slice = vol.slice_image(z);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(slice.data()[i], ref.data()[i])
              << algorithm_name(algo) << " " << n_angles << " angles slice "
              << z << " px " << i;
        }
      }
    }
  }
}

TEST(ReconstructVolume, PairedSlicesMatchSliceReconstruction) {
  // Gridrec reconstructs volume slices in pairs, one as the real and one as
  // the imaginary part of a single complex pass. Each slice must match its
  // own single-slice reconstruction to double rounding, whatever its
  // partner: distinct proppant rows, and an alternating-sign sinogram whose
  // energy sits at the Nyquist bin, which has no mirror bin and is where a
  // packed transform leaks one slice into the other. Odd angle counts,
  // 3 angles, an off-centre axis and the clamp all run too.
  const std::size_t n = 64;
  const Volume proppant = proppant_phantom(n, 11);
  for (std::size_t n_angles : {90u, 91u, 3u}) {
    for (double axis_offset : {0.0, 0.37}) {
      const double center =
          axis_offset == 0.0 ? -1.0 : double(n) / 2.0 - 0.5 + axis_offset;
      const Geometry geo{n_angles, n, center};
      std::vector<Image> sinos;
      for (std::size_t z = 0; z < 7; ++z) {
        sinos.push_back(forward_project(proppant.slice_image(24 + 2 * z), geo));
      }
      Image alternating(n_angles, n);
      for (std::size_t a = 0; a < n_angles; ++a) {
        for (std::size_t t = 0; t < n; ++t) {
          alternating.at(a, t) = t % 2 == 0 ? 1.0f : -1.0f;
        }
      }
      sinos.push_back(alternating);
      for (bool non_negative : {false, true}) {
        ReconOptions opts;
        opts.algorithm = Algorithm::Gridrec;
        opts.non_negative = non_negative;
        const Volume vol = reconstruct_volume(sinos, geo, n, opts);
        ASSERT_EQ(vol.nz(), sinos.size());
        for (std::size_t z = 0; z < vol.nz(); ++z) {
          const Image ref = reconstruct_slice(sinos[z], geo, n, opts);
          const Image got = vol.slice_image(z);
          double peak = 0.0, err = 0.0;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            peak = std::max(peak, double(std::abs(ref.data()[i])));
            err = std::max(err,
                           double(std::abs(got.data()[i] - ref.data()[i])));
          }
          ASSERT_GT(peak, 0.0);
          EXPECT_LE(err, 1e-7 * peak)
              << n_angles << " angles, axis +" << axis_offset
              << ", non_negative " << non_negative << ", slice " << z;
        }
      }
    }
  }
}

TEST(ReconstructSlice, RejectsSinogramsThatDoNotMatchTheGeometry) {
  // Hard check in every build type: sinograms come from deserialized
  // files, and a short one would be read past its end.
  ReconCase c(32, 32);
  const Image too_few_angles(c.geo.n_angles - 1, c.geo.n_det);
  const Image wrong_n_det(c.geo.n_angles, c.geo.n_det + 1);
  for (Algorithm algo : {Algorithm::FBP, Algorithm::Gridrec, Algorithm::SIRT}) {
    ReconOptions opts;
    opts.algorithm = algo;
    EXPECT_THROW(reconstruct_slice(too_few_angles, c.geo, c.n, opts),
                 std::invalid_argument)
        << algorithm_name(algo);
    EXPECT_THROW(reconstruct_slice(wrong_n_det, c.geo, c.n, opts),
                 std::invalid_argument)
        << algorithm_name(algo);
  }
  ReconOptions opts;
  opts.algorithm = Algorithm::Gridrec;
  EXPECT_THROW(reconstruct_volume({c.sino, too_few_angles}, c.geo, c.n, opts),
               std::invalid_argument);
  EXPECT_THROW(reconstruct_volume({wrong_n_det, c.sino}, c.geo, c.n, opts),
               std::invalid_argument);
}

TEST(ReconstructVolume, EmptyInputGivesEmptyVolume) {
  Geometry geo{32, 32, -1.0};
  Volume vol = reconstruct_volume({}, geo, 32);
  EXPECT_TRUE(vol.empty());
}

TEST(ReconstructVolume, IterativeAlgorithmsSupported) {
  ReconCase c(32, 32);
  Image sino = forward_project(c.phantom, c.geo);
  std::vector<Image> sinos{sino, sino};
  ReconOptions opts;
  opts.algorithm = Algorithm::SIRT;
  opts.n_iterations = 10;
  Volume vol = reconstruct_volume(sinos, c.geo, c.n, opts);
  ASSERT_EQ(vol.nz(), 2u);
  for (std::size_t z = 0; z < 2; ++z) {
    EXPECT_GT(pearson_correlation(c.phantom, vol.slice_image(z)), 0.75);
  }
}

TEST(Gridrec, DeterministicAcrossRuns) {
  // Gridrec must not depend on thread scheduling: the splat is serial and
  // the parallel passes (inverse FFT, resample) write disjoint outputs.
  for (std::size_t n_angles : {90u, 91u, 3u}) {
    ReconCase c(64, n_angles);
    Image first = reconstruct_gridrec(c.sino, c.geo, c.n, FilterKind::Hann);
    for (int r = 0; r < 3; ++r) {
      Image again = reconstruct_gridrec(c.sino, c.geo, c.n, FilterKind::Hann);
      for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first.data()[i], again.data()[i])
            << n_angles << " angles run " << r;
      }
    }
  }
}

TEST(AlgorithmNames, Stable) {
  EXPECT_STREQ(algorithm_name(Algorithm::FBP), "fbp");
  EXPECT_STREQ(algorithm_name(Algorithm::Gridrec), "gridrec");
  EXPECT_STREQ(algorithm_name(Algorithm::SIRT), "sirt");
}

TEST(Fbp, OffCenterRotationAxisRecovered) {
  // Simulate a mis-centered rotation axis: analytic sinogram with the axis
  // 4 bins off, reconstruct with the matching center. (Shifting the axis
  // truncates part of the object off the detector, so quality dips a bit.)
  const std::size_t n = 64;
  Geometry geo{90, n, double(n) / 2.0 - 0.5 + 4.0};
  Image sino = analytic_sinogram(shepp_logan_ellipses(), geo);
  Image recon = reconstruct_fbp(sino, geo, n, FilterKind::SheppLogan);
  Image truth = shepp_logan(n);
  EXPECT_GT(pearson_correlation(truth, recon), 0.8);

  // Reconstructing with the *wrong* center is visibly worse.
  Geometry wrong = geo;
  wrong.center = double(n) / 2.0 - 0.5;
  Image bad = reconstruct_fbp(sino, wrong, n, FilterKind::SheppLogan);
  EXPECT_GT(rmse(truth, bad), 1.5 * rmse(truth, recon));
}

}  // namespace
}  // namespace alsflow::tomo
