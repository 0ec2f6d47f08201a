#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"

namespace alsflow::tomo {
namespace {

TEST(ForwardProject, MatchesAnalyticSinogram) {
  // The numeric pixel-driven projector must approximate the analytic Radon
  // transform of the phantom ellipses.
  const std::size_t n = 128;
  Geometry geo{90, n, -1.0};
  Image img = shepp_logan(n);
  Image numeric = forward_project(img, geo);
  Image analytic = analytic_sinogram(shepp_logan_ellipses(), geo);

  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    const double d = numeric.data()[i] - analytic.data()[i];
    err += d * d;
    ref += analytic.data()[i] * analytic.data()[i];
  }
  // Relative L2 error below 5% (discretization of a binary-edge phantom).
  EXPECT_LT(std::sqrt(err / ref), 0.05);
}

TEST(ForwardProject, MassConservedPerAngle) {
  const std::size_t n = 64;
  Geometry geo{32, n, -1.0};
  Image img = shepp_logan(n);
  double pixel_mass = 0.0;
  const double h = 2.0 / double(n);
  for (float v : img.span()) pixel_mass += double(v) * h * h;

  Image sino = forward_project(img, geo);
  const double spacing = 2.0 / double(geo.n_det);
  for (std::size_t a = 0; a < geo.n_angles; ++a) {
    double mass = 0.0;
    for (std::size_t t = 0; t < geo.n_det; ++t) {
      mass += sino.at(a, t) * spacing;
    }
    EXPECT_NEAR(mass, pixel_mass, pixel_mass * 1e-3) << "angle " << a;
  }
}

TEST(ForwardProject, EmptyImageGivesZeroSinogram) {
  Geometry geo{16, 32, -1.0};
  Image img(32, 32, 0.0f);
  Image sino = forward_project(img, geo);
  for (float v : sino.span()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ForwardProject, CenteredDotProjectsToCenterBin) {
  const std::size_t n = 65;  // odd so one pixel sits at the exact center
  Geometry geo{8, 64, -1.0};
  Image img(n, n, 0.0f);
  img.at(32, 32) = 1.0f;
  Image sino = forward_project(img, geo);
  const double center = geo.center_or_default();
  for (std::size_t a = 0; a < geo.n_angles; ++a) {
    // Find the sinogram peak; it must fall within one bin of the center.
    std::size_t peak = 0;
    for (std::size_t t = 1; t < geo.n_det; ++t) {
      if (sino.at(a, t) > sino.at(a, peak)) peak = t;
    }
    EXPECT_NEAR(double(peak), center, 1.0) << "angle " << a;
  }
}

TEST(ForwardProject, OffCenterDotTracesSinusoid) {
  const std::size_t n = 64;
  Geometry geo{64, 64, -1.0};
  Image img(n, n, 0.0f);
  // Dot at u = 0.5, v = 0 -> t(theta) = 0.5*cos(theta) in normalized units.
  img.at(32, 48) = 1.0f;
  Image sino = forward_project(img, geo);
  const double center = geo.center_or_default();
  const double spacing = 2.0 / double(geo.n_det);
  for (std::size_t a = 0; a < geo.n_angles; a += 8) {
    std::size_t peak = 0;
    for (std::size_t t = 1; t < geo.n_det; ++t) {
      if (sino.at(a, t) > sino.at(a, peak)) peak = t;
    }
    const double u = 2.0 * (48.0 + 0.5) / 64.0 - 1.0;
    const double expected = u * std::cos(geo.angle(a)) / spacing + center;
    EXPECT_NEAR(double(peak), expected, 1.5) << "angle " << a;
  }
}

TEST(Adjoint, DotProductIdentity) {
  // <A x, y> == <x, A^T y> for random x, y — the property SIRT relies on.
  const std::size_t n = 32;
  Geometry geo{24, 40, -1.0};
  Rng rng(9);

  Image x(n, n);
  for (auto& p : x.span()) p = float(rng.uniform(0, 1));
  Image y(geo.n_angles, geo.n_det);
  for (auto& p : y.span()) p = float(rng.uniform(0, 1));

  Image ax = forward_project(x, geo);
  Image aty = back_project_adjoint(y, geo, n);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += double(ax.data()[i]) * double(y.data()[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += double(x.data()[i]) * double(aty.data()[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs));
}

TEST(Adjoint, DotProductIdentityOffCenterRotationAxis) {
  const std::size_t n = 24;
  Geometry geo{16, 32, 13.25};  // deliberately off-center axis
  Rng rng(10);
  Image x(n, n);
  for (auto& p : x.span()) p = float(rng.uniform(0, 1));
  Image y(geo.n_angles, geo.n_det);
  for (auto& p : y.span()) p = float(rng.uniform(0, 1));
  Image ax = forward_project(x, geo);
  Image aty = back_project_adjoint(y, geo, n);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += double(ax.data()[i]) * double(y.data()[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += double(x.data()[i]) * double(aty.data()[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs));
}

TEST(FbpAccumulateRow, SumOfRowsMatchesFullBackprojection) {
  // fbp_backproject is fbp_accumulate_row summed over the angles in order,
  // then scaled once: a caller that sums the same way gets the same bytes.
  const std::size_t n = 48;
  Geometry geo{36, n, -1.0};
  Rng rng(11);
  Image filtered(geo.n_angles, geo.n_det);
  for (auto& p : filtered.span()) p = float(rng.uniform(-1, 1));

  Image full = fbp_backproject(filtered, geo, n);

  std::vector<double> ct(geo.n_angles), st(geo.n_angles), us(n);
  fbp_trig(geo, ct, st);
  for (std::size_t x = 0; x < n; ++x) {
    us[x] = 2.0 * (double(x) + 0.5) / double(n) - 1.0;
  }
  Image accum(n, n, 0.0f);
  for (std::size_t y = 0; y < n; ++y) {
    const double v = 1.0 - 2.0 * (double(y) + 0.5) / double(n);
    for (std::size_t a = 0; a < geo.n_angles; ++a) {
      fbp_accumulate_row(filtered.row(a), us, v, ct[a], st[a],
                         geo.center_or_default(), accum.row(y));
    }
  }
  const double scale = fbp_scale(geo);
  for (auto& p : accum.span()) p = float(p * scale);
  EXPECT_EQ(std::memcmp(accum.data(), full.data(), full.size() * sizeof(float)),
            0);
}

TEST(FbpBackprojectPoints, MatchesPlaneReconstruction) {
  const std::size_t n = 48;
  Geometry geo{36, n, -1.0};
  Rng rng(12);
  Image filtered(geo.n_angles, geo.n_det);
  for (auto& p : filtered.span()) p = float(rng.uniform(-1, 1));

  Image plane = fbp_backproject(filtered, geo, n);

  // Sample the middle row of the plane via the point API.
  std::vector<double> us(n), vs(n);
  const std::size_t y = n / 2;
  for (std::size_t x = 0; x < n; ++x) {
    us[x] = 2.0 * (double(x) + 0.5) / double(n) - 1.0;
    vs[x] = 1.0 - 2.0 * (double(y) + 0.5) / double(n);
  }
  std::vector<float> line(n);
  fbp_backproject_points(filtered, geo, us, vs, line);
  for (std::size_t x = 0; x < n; ++x) {
    EXPECT_NEAR(line[x], plane.at(y, x), 1e-4f);
  }
}

}  // namespace
}  // namespace alsflow::tomo
