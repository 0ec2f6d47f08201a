#include "tomo/projector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"

namespace alsflow::tomo {

namespace {

// Per-angle cos/sin tables in worker-local scratch. The tables live in the
// calling thread's arena (not per-call vectors): fbp_backproject_points is a
// hot function, where a per-call allocation would break the hot-path
// contract. The spans stay valid for the duration of the enclosing call —
// nested parallel_for bodies on other threads read the submitter's tables
// through the captured spans.
struct Trig {
  std::span<double> ct, st;
};

// The tables hold cos and sin times `scale`: 1 for the projector pair, and
// n_det / 2 = 1 / det_spacing for FBP, whose detector coordinate is then
// u * ct + v * st + center with no division.
void fill_trig(const Geometry& geo, double scale, std::span<double> ct,
               std::span<double> st) {
  for (std::size_t a = 0; a < geo.n_angles; ++a) {
    ct[a] = std::cos(geo.angle(a)) * scale;
    st[a] = std::sin(geo.angle(a)) * scale;
  }
}

Trig trig_tables(const Geometry& geo, double scale) {
  Trig t{parallel::WorkerScratch::double_buffer(
             parallel::WorkerScratch::kTrigCos, geo.n_angles),
         parallel::WorkerScratch::double_buffer(
             parallel::WorkerScratch::kTrigSin, geo.n_angles)};
  fill_trig(geo, scale, t.ct, t.st);
  return t;
}

// Map pixel indices to the [-1, 1] grid (+v up, matching phantom.cpp).
inline double u_of(std::size_t x, std::size_t n) {
  return 2.0 * (double(x) + 0.5) / double(n) - 1.0;
}
inline double v_of(std::size_t y, std::size_t n) {
  return 1.0 - 2.0 * (double(y) + 0.5) / double(n);
}

}  // namespace

void forward_project_into(const Image& img, const Geometry& geo, Image& sino) {
  assert(sino.ny() == geo.n_angles && sino.nx() == geo.n_det);
  const std::size_t n = img.nx();
  auto out = sino.span();
  std::fill(out.begin(), out.end(), 0.0f);
  const Trig trig = trig_tables(geo, 1.0);
  const double center = geo.center_or_default();
  const double det_spacing = 2.0 / double(geo.n_det);
  const double h = 2.0 / double(n);
  // Pixel mass h^2 spread over detector bins of width det_spacing.
  const double weight = h * h / det_spacing;

  // Each angle writes its own sinogram row: parallel over angles.
  parallel::parallel_for(0, geo.n_angles, [&](std::size_t a) {
    hotguard::HotRegion region("projector.forward");
    const double ct = trig.ct[a], st = trig.st[a];
    auto row = sino.row(a);
    for (std::size_t y = 0; y < img.ny(); ++y) {
      const double v = v_of(y, n);
      const double v_term = v * st;
      for (std::size_t x = 0; x < img.nx(); ++x) {
        const float val = img.at(y, x);
        if (val == 0.0f) continue;
        const double s = u_of(x, n) * ct + v_term;
        const double t = s / det_spacing + center;
        const auto t0 = std::floor(t);
        const double frac = t - t0;
        const auto i0 = std::ptrdiff_t(t0);
        if (i0 >= 0 && std::size_t(i0) < geo.n_det) {
          row[std::size_t(i0)] += float(val * weight * (1.0 - frac));
        }
        if (i0 + 1 >= 0 && std::size_t(i0 + 1) < geo.n_det) {
          row[std::size_t(i0 + 1)] += float(val * weight * frac);
        }
      }
    }
  });
}

Image forward_project(const Image& img, const Geometry& geo) {
  Image sino(geo.n_angles, geo.n_det);
  forward_project_into(img, geo, sino);
  return sino;
}

void back_project_adjoint_into(const Image& sino, const Geometry& geo,
                               std::size_t n, Image& img) {
  assert(img.ny() == n && img.nx() == n);
  const Trig trig = trig_tables(geo, 1.0);
  const double center = geo.center_or_default();
  const double det_spacing = 2.0 / double(geo.n_det);
  const double h = 2.0 / double(n);
  const double weight = h * h / det_spacing;

  parallel::parallel_for(0, n, [&](std::size_t y) {
    hotguard::HotRegion region("projector.adjoint");
    const double v = v_of(y, n);
    for (std::size_t x = 0; x < n; ++x) {
      const double u = u_of(x, n);
      double acc = 0.0;
      for (std::size_t a = 0; a < geo.n_angles; ++a) {
        const double s = u * trig.ct[a] + v * trig.st[a];
        const double t = s / det_spacing + center;
        const auto t0 = std::floor(t);
        const double frac = t - t0;
        const auto i0 = std::ptrdiff_t(t0);
        if (i0 >= 0 && std::size_t(i0) < geo.n_det) {
          acc += sino.at(a, std::size_t(i0)) * weight * (1.0 - frac);
        }
        if (i0 + 1 >= 0 && std::size_t(i0 + 1) < geo.n_det) {
          acc += sino.at(a, std::size_t(i0 + 1)) * weight * frac;
        }
      }
      img.at(y, x) = float(acc);
    }
  });
}

Image back_project_adjoint(const Image& sino, const Geometry& geo,
                           std::size_t n) {
  Image img(n, n);
  back_project_adjoint_into(sino, geo, n, img);
  return img;
}

namespace {

// 1 / det_spacing: FBP's trig tables are scaled by it.
double inv_det_spacing(const Geometry& geo) { return 0.5 * double(geo.n_det); }

// Pixel-centre u coordinates of an n-wide row, computed exactly as callers
// of fbp_backproject_points compute theirs, so a plane pixel and the same
// point sampled alone see bit-identical detector coordinates.
std::vector<double> pixel_us(std::size_t n) {
  std::vector<double> us(n);
  for (std::size_t x = 0; x < n; ++x) us[x] = u_of(x, n);
  return us;
}

// Linear interpolation of a detector row at coordinate t, 0 <= t < size-1.
inline double tap(std::span<const float> det, double t) {
  const std::int64_t i = std::int64_t(t);  // t >= 0: truncation floors
  const double frac = t - double(i);
  return det[std::size_t(i)] * (1.0 - frac) + det[std::size_t(i) + 1] * frac;
}

// One angle's term of a sample point's FBP sum: the tap at the detector
// coordinate fbp_accumulate_row uses, skipped unless both taps exist.
inline void add_point_tap(std::span<const float> det, double u, double v,
                          double ct, double st, double center, double& acc) {
  const double t = u * ct + (v * st + center);
  if (t >= 0.0 && t < double(det.size()) - 1.0) acc += tap(det, t);
}

}  // namespace

void fbp_trig(const Geometry& geo, std::span<double> ct, std::span<double> st) {
  assert(ct.size() == geo.n_angles && st.size() == geo.n_angles);
  fill_trig(geo, inv_det_spacing(geo), ct, st);
}

double fbp_scale(const Geometry& geo) {
  return M_PI / double(geo.n_angles) * inv_det_spacing(geo);
}

// The detector coordinate t(x) = us[x] * ct + base (base = v * st + center)
// is affine in x, so the range of x where both taps exist comes from its
// closed form, clamped in double before the integer conversion, then
// settled against the exact predicate the loop relies on (t is monotone in
// x, so the valid x are one run). The loop itself has neither a division
// nor a bounds branch.
ALSFLOW_HOT void fbp_accumulate_row(std::span<const float> det,
                                    std::span<const double> us, double v,
                                    double ct, double st, double center,
                                    std::span<float> out) {
  const std::size_t n = us.size();
  if (n == 0) return;
  const double base = v * st + center;
  const double t_max = double(det.size()) - 1.0;
  const auto t_of = [&](std::size_t x) { return us[x] * ct + base; };
  const auto inside = [&](std::size_t x) {
    const double t = t_of(x);
    return t >= 0.0 && t < t_max;
  };
  const double t0 = t_of(0), t_last = t_of(n - 1);
  double lo = 0.0, hi = double(n);
  if (t_last != t0) {
    const double x_per_t = double(n - 1) / (t_last - t0);
    const double r0 = -t0 * x_per_t, r1 = (t_max - t0) * x_per_t;
    lo = std::ceil(std::min(r0, r1));
    hi = std::ceil(std::max(r0, r1));
  } else if (!inside(0)) {
    hi = 0.0;
  }
  lo = lo > 0.0 ? std::min(lo, double(n)) : 0.0;  // NaN clamps to 0 too
  hi = hi > lo ? std::min(hi, double(n)) : lo;
  std::size_t x0 = std::size_t(lo), x1 = std::size_t(hi);
  while (x0 > 0 && inside(x0 - 1)) --x0;
  while (x0 < x1 && !inside(x0)) ++x0;
  while (x1 < n && inside(x1)) ++x1;
  while (x1 > x0 && !inside(x1 - 1)) --x1;
  for (std::size_t x = x0; x < x1; ++x) out[x] += float(tap(det, t_of(x)));
}

ALSFLOW_HOT void fbp_accumulate_points(std::span<const float> det,
                                       std::span<const double> us,
                                       std::span<const double> vs, double ct,
                                       double st, double center,
                                       std::span<double> acc) {
  assert(us.size() == vs.size() && us.size() == acc.size());
  for (std::size_t i = 0; i < us.size(); ++i) {
    add_point_tap(det, us[i], vs[i], ct, st, center, acc[i]);
  }
}

Image fbp_backproject(const Image& filtered_sino, const Geometry& geo,
                      std::size_t n) {
  Image img(n, n);
  const Trig trig = trig_tables(geo, inv_det_spacing(geo));
  const std::vector<double> us = pixel_us(n);
  const double center = geo.center_or_default();
  const double scale = fbp_scale(geo);

  parallel::parallel_for(0, n, [&](std::size_t y) {
    hotguard::HotRegion region("projector.fbp");
    const double v = v_of(y, n);
    auto out_row = img.row(y);
    for (std::size_t a = 0; a < geo.n_angles; ++a) {
      fbp_accumulate_row(filtered_sino.row(a), us, v, trig.ct[a], trig.st[a],
                         center, out_row);
    }
    for (auto& p : out_row) p = float(p * scale);
  });
  return img;
}

ALSFLOW_HOT void fbp_backproject_points(const Image& filtered_sino,
                                        const Geometry& geo,
                                        std::span<const double> us,
                                        std::span<const double> vs,
                                        std::span<float> out) {
  assert(us.size() == vs.size() && us.size() == out.size());
  const Trig trig = trig_tables(geo, inv_det_spacing(geo));
  const double center = geo.center_or_default();
  const double scale = fbp_scale(geo);

  for (std::size_t i = 0; i < us.size(); ++i) {
    double acc = 0.0;
    for (std::size_t a = 0; a < geo.n_angles; ++a) {
      add_point_tap(filtered_sino.row(a), us[i], vs[i], trig.ct[a],
                    trig.st[a], center, acc);
    }
    out[i] = float(acc * scale);
  }
}

}  // namespace alsflow::tomo
