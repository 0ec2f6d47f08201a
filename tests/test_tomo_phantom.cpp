#include <gtest/gtest.h>

#include <cmath>

#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"

namespace alsflow::tomo {
namespace {

TEST(SheppLogan, ValuesInExpectedRange) {
  Image p = shepp_logan(128);
  float lo = 1e9f, hi = -1e9f;
  for (float v : p.span()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, -1e-6f);      // modified phantom is non-negative
  EXPECT_NEAR(hi, 1.0f, 0.05f);  // skull rim value
}

TEST(SheppLogan, CenterIsSoftTissue) {
  Image p = shepp_logan(128);
  // Center of the head: skull (1.0) + brain (-0.8) = 0.2.
  EXPECT_NEAR(p.at(64, 64), 0.2f, 1e-5f);
}

TEST(SheppLogan, CornersAreEmpty) {
  Image p = shepp_logan(128);
  EXPECT_FLOAT_EQ(p.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(p.at(0, 127), 0.0f);
  EXPECT_FLOAT_EQ(p.at(127, 0), 0.0f);
  EXPECT_FLOAT_EQ(p.at(127, 127), 0.0f);
}

TEST(SheppLogan, LeftRightEllipsesPresent) {
  Image p = shepp_logan(256);
  // The two lateral "ventricle" ellipses at (+/-0.22, 0): value 0.2 - 0.2 = 0.
  // Sample just inside each: attenuation drops from 0.2 background to 0.0.
  const std::size_t cx_left = std::size_t(((-0.22) + 1.0) / 2.0 * 256);
  const std::size_t cx_right = std::size_t(((0.22) + 1.0) / 2.0 * 256);
  EXPECT_NEAR(p.at(128, cx_left), 0.0f, 1e-5f);
  EXPECT_NEAR(p.at(128, cx_right), 0.0f, 1e-5f);
}

TEST(AnalyticSinogram, MassConservedAcrossAngles) {
  // The integral of each projection equals the phantom's total mass,
  // independent of angle (Radon transform property).
  Geometry geo{64, 128, -1.0};
  Image sino = analytic_sinogram(shepp_logan_ellipses(), geo);
  const double spacing = 2.0 / double(geo.n_det);
  double first = 0.0;
  for (std::size_t a = 0; a < geo.n_angles; ++a) {
    double mass = 0.0;
    for (std::size_t t = 0; t < geo.n_det; ++t) {
      mass += sino.at(a, t) * spacing;
    }
    if (a == 0) {
      first = mass;
    } else {
      // Rectangle-rule integration across sqrt-edged profiles leaves a
      // small angle-dependent discretization residue.
      EXPECT_NEAR(mass, first, 0.02 * first) << "angle " << a;
    }
  }
  // Mass = sum over ellipses of pi*a*b*value.
  double expected = 0.0;
  for (const auto& e : shepp_logan_ellipses()) {
    expected += M_PI * e.a * e.b * e.value;
  }
  EXPECT_NEAR(first, expected, 0.01 * expected);
}

TEST(AnalyticSinogram, CircleProjectionIsChord) {
  // A centered unit-attenuation circle of radius r: P(t) = 2*sqrt(r^2-t^2).
  std::vector<Ellipse> circle{{0.0, 0.0, 0.5, 0.5, 0.0, 1.0}};
  Geometry geo{4, 256, -1.0};
  Image sino = analytic_sinogram(circle, geo);
  const double center = geo.center_or_default();
  const double spacing = 2.0 / 256.0;
  for (std::size_t a = 0; a < 4; ++a) {
    // Center bin: chord = 2*r = 1.
    EXPECT_NEAR(sino.at(a, 128), 1.0f, 0.01f);
    // At |t| = 0.3: chord = 2*sqrt(0.25-0.09) = 0.8.
    const auto t_bin = std::size_t(0.3 / spacing + center);
    EXPECT_NEAR(sino.at(a, t_bin), 0.8f, 0.02f);
    // Outside support: zero.
    EXPECT_FLOAT_EQ(sino.at(a, 10), 0.0f);
  }
}

TEST(SheppLogan3D, MidSliceMatches2DStructure) {
  Volume v = shepp_logan_3d(64);
  Image mid = v.slice_image(32);
  // Center voxel: skull + brain = 0.2 as in 2-D.
  EXPECT_NEAR(mid.at(32, 32), 0.2f, 1e-5f);
  // Top and bottom slices are empty (outside the head ellipsoid).
  EXPECT_FLOAT_EQ(v.at(0, 32, 32), 0.0f);
  EXPECT_FLOAT_EQ(v.at(63, 32, 32), 0.0f);
}

TEST(FiberPhantom, CoiledHasMoreSurfaceAndDispersion) {
  Volume straight = fiber_phantom(48, FiberStyle::Straight, 11);
  Volume coiled = fiber_phantom(48, FiberStyle::Coiled, 11);
  // Same seed => same fiber count/placement; coiling adds z-spread and
  // surface area (the sandgrouse adaptation).
  EXPECT_GT(vertical_dispersion(coiled, 0.3f),
            vertical_dispersion(straight, 0.3f));
  EXPECT_GT(material_fraction(straight, 0.3f), 0.001);
  EXPECT_GT(material_fraction(coiled, 0.3f), 0.001);
}

TEST(FiberPhantom, HasRachisCore) {
  Volume v = fiber_phantom(48, FiberStyle::Straight, 3);
  // Central axis voxels are rachis (0.9).
  EXPECT_NEAR(v.at(24, 24, 24), 0.9f, 1e-5f);
  EXPECT_NEAR(v.at(5, 24, 24), 0.9f, 1e-5f);
}

TEST(ProppantPhantom, ThreePhases) {
  Volume v = proppant_phantom(48, 17);
  // Expect background (0), shale (0.5), and proppant (1.0) all present.
  bool has_void = false, has_shale = false, has_proppant = false;
  for (float p : v.span()) {
    if (p == 0.0f) has_void = true;
    if (p == 0.5f) has_shale = true;
    if (p == 1.0f) has_proppant = true;
  }
  EXPECT_TRUE(has_void);
  EXPECT_TRUE(has_shale);
  EXPECT_TRUE(has_proppant);
}

TEST(ProppantPhantom, FractureIsMostlyOpen) {
  Volume v = proppant_phantom(64, 17);
  // The central plane (x ~ 0) lies in the fracture: mostly void + spheres,
  // far less shale than the flanks.
  std::size_t shale_center = 0, shale_flank = 0;
  for (std::size_t z = 0; z < 64; ++z) {
    for (std::size_t y = 0; y < 64; ++y) {
      if (v.at(z, y, 32) == 0.5f) ++shale_center;
      if (v.at(z, y, 4) == 0.5f) ++shale_flank;
    }
  }
  EXPECT_LT(shale_center, shale_flank / 4);
}

TEST(ProppantPhantom, TimeEvolutionClosesFracture) {
  // 4-D creep: the fracture aperture (void fraction in the midplane)
  // shrinks with t, and t=0 matches the static phantom exactly.
  Volume t0 = proppant_phantom_at(48, 17, 0.0);
  Volume t0_static = proppant_phantom(48, 17);
  EXPECT_DOUBLE_EQ(rmse(t0, t0_static), 0.0);

  // Creep converges the walls: the shale (0.5) volume fraction grows and
  // the open volume shrinks monotonically with t.
  auto shale_fraction = [](const Volume& v) {
    std::size_t shale = 0;
    for (float p : v.span()) {
      if (p == 0.5f) ++shale;
    }
    return double(shale) / double(v.size());
  };
  const double f0 = shale_fraction(t0);
  const double f_half = shale_fraction(proppant_phantom_at(48, 17, 0.5));
  const double f1 = shale_fraction(proppant_phantom_at(48, 17, 1.0));
  EXPECT_LE(f0, f_half);
  EXPECT_LT(f_half, f1);  // walls keep converging

  // Proppant survives creep (it props): spheres still present at t=1.
  bool has_proppant = false;
  const Volume late = proppant_phantom_at(48, 17, 1.0);
  for (float p : late.span()) {
    if (p == 1.0f) has_proppant = true;
  }
  EXPECT_TRUE(has_proppant);
}

TEST(Rasterize, DeterministicForSeededPhantoms) {
  Volume a = fiber_phantom(32, FiberStyle::Coiled, 99);
  Volume b = fiber_phantom(32, FiberStyle::Coiled, 99);
  EXPECT_EQ(0.0, rmse(a, b));
}

}  // namespace
}  // namespace alsflow::tomo
