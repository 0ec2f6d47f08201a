#include "tomo/recon.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"
#include "tomo/fft.hpp"
#include "tomo/projector.hpp"

namespace alsflow::tomo {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::FBP: return "fbp";
    case Algorithm::Gridrec: return "gridrec";
    case Algorithm::SIRT: return "sirt";
  }
  return "?";
}

Image reconstruct_fbp(const Image& sinogram, const Geometry& geo,
                      std::size_t n, FilterKind filter) {
  ProjectionFilter pf(filter, geo.n_det);
  Image filtered = sinogram;
  pf.apply_rows(filtered);
  return fbp_backproject(filtered, geo, n);
}

namespace {

using cplx = std::complex<double>;

// Signed frequency of FFT bin k of n_pad: bins above the Nyquist bin
// n_pad / 2 are the negative frequencies.
double signed_freq(std::size_t k, std::size_t n_pad) {
  return k <= n_pad / 2 ? double(k) : double(k) - double(n_pad);
}

// Add `sample` to the periodic n_pad x n_pad grid at (gx, gy), bilinearly.
inline void splat(std::span<cplx> grid, std::size_t n_pad, double gx,
                  double gy, cplx sample) {
  if (sample == cplx(0.0, 0.0)) return;
  const std::size_t mask = n_pad - 1;  // n_pad is a power of two
  const double fx = std::floor(gx), fy = std::floor(gy);
  const double wx = gx - fx, wy = gy - fy;
  const std::size_t x0 = std::size_t(std::ptrdiff_t(fx)) & mask;
  const std::size_t x1 = (x0 + 1) & mask;
  const std::size_t y0 = std::size_t(std::ptrdiff_t(fy)) & mask;
  const std::size_t y1 = (y0 + 1) & mask;
  grid[y0 * n_pad + x0] += sample * ((1.0 - wx) * (1.0 - wy));
  grid[y0 * n_pad + x1] += sample * (wx * (1.0 - wy));
  grid[y1 * n_pad + x0] += sample * ((1.0 - wx) * wy);
  grid[y1 * n_pad + x1] += sample * (wx * wy);
}

// Fill the 2-D Fourier grid by splatting every angle's weighted spectrum
// along its central slice (projection-slice theorem). Row a of sino_a and
// of sino_b goes through one complex FFT as z = p_a + i p_b (p_b is zero
// without sino_b), and bin k lands at k (cos, sin) of the angle as
// weight[k] Z[k]. Everything is linear, so the grid is G_a + i G_b, where
// G_a and G_b are the grids of the two real rows alone. Each of those is
// Hermitian except at the Nyquist bin n_pad / 2, which has no mirror bin;
// it is splatted as its two Hermitian halves, W Z / 2 at +k and
// conj(W) Z / 2 at -k (P[n_pad / 2] is real for a real row, so
// conj(W) Z = conj(W P_a) + i conj(W P_b)). `row` is n_pad scratch.
ALSFLOW_HOT void splat_angles(const Image& sino_a, const Image* sino_b,
                              const Geometry& geo, const FftTable& table,
                              std::span<const cplx> weight,
                              std::span<cplx> row, std::span<cplx> grid) {
  const std::size_t n_det = geo.n_det, n_pad = table.size();
  for (std::size_t a = 0; a < geo.n_angles; ++a) {
    const auto p = sino_a.row(a);
    const auto q =
        sino_b != nullptr ? sino_b->row(a) : std::span<const float>();
    for (std::size_t t = 0; t < n_det; ++t) {
      row[t] = {p[t], q.empty() ? 0.0 : q[t]};
    }
    std::fill(row.begin() + std::ptrdiff_t(n_det), row.end(), cplx(0.0, 0.0));
    table.transform(row, false);
    const double c = std::cos(geo.angle(a)), s = std::sin(geo.angle(a));
    for (std::size_t k = 0; k < n_pad; ++k) {
      const double kf = signed_freq(k, n_pad);
      if (k == n_pad / 2) {
        splat(grid, n_pad, kf * c, kf * s, 0.5 * row[k] * weight[k]);
        splat(grid, n_pad, -kf * c, -kf * s,
              0.5 * row[k] * std::conj(weight[k]));
      } else {
        splat(grid, n_pad, kf * c, kf * s, row[k] * weight[k]);
      }
    }
  }
}

// Gridrec of sino_a into out_a and, when sino_b is given, of sino_b into
// out_b (both n x n), through one grid, one inverse 2-D FFT and one
// resample. G_a and G_b are Hermitian (splat_angles), so the inverse
// transform of G_a + i G_b is g_a + i g_b with both real: slice a is the
// real part and slice b the imaginary part.
void gridrec_pair(const Image& sino_a, const Image* sino_b,
                  const Geometry& geo, std::size_t n, FilterKind filter,
                  std::span<float> out_a, std::span<float> out_b) {
  if (n == 0) return;
  const std::size_t n_pad = next_pow2(2 * geo.n_det);
  const double center = geo.center_or_default();
  const FftTable table(n_pad);

  // Per-frequency factor, the same for every angle: the ramp (density
  // compensation) and any apodizing window, times the linear phase that
  // shifts the rotation axis to the origin.
  const auto response = filter_response(filter, n_pad);
  std::vector<cplx> weight(n_pad);
  for (std::size_t k = 0; k < n_pad; ++k) {
    const double phase =
        2.0 * M_PI * signed_freq(k, n_pad) * center / double(n_pad);
    weight[k] = std::polar(response[k], phase);
  }

  std::vector<cplx> grid(n_pad * n_pad, {0.0, 0.0});
  {
    auto row = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kGridrecRow, n_pad);
    hotguard::HotRegion region("gridrec.splat");
    splat_angles(sino_a, sino_b, geo, table, weight, row, grid);
  }

  // Sample the periodic inverse transform at the output pixel positions.
  // Pixel coordinates are in detector-spacing units about the origin.
  const double det_spacing = 2.0 / double(geo.n_det);
  const double scale = M_PI * double(n_pad) / double(geo.n_angles) / det_spacing;
  const auto u_of = [&](std::size_t x) {
    return (2.0 * (double(x) + 0.5) / double(n) - 1.0) / det_spacing;
  };
  const auto wrap = [n_pad](std::ptrdiff_t i) {
    return std::size_t(i) & (n_pad - 1);  // n_pad is a power of two
  };

  // The resample reads columns floor(u) and floor(u) + 1, and u never
  // decreases with x, so it reads one wrapped window of about n_det of the
  // n_pad columns; the inverse column pass runs on those alone.
  const std::ptrdiff_t lo = std::ptrdiff_t(std::floor(u_of(0)));
  const std::ptrdiff_t hi = std::ptrdiff_t(std::floor(u_of(n - 1))) + 1;
  fft2_window(grid, n_pad, n_pad, wrap(lo), std::size_t(hi - lo + 1), true);

  parallel::parallel_for(0, n, [&](std::size_t y) {
    hotguard::HotRegion region("gridrec.resample");
    const double v = (1.0 - 2.0 * (double(y) + 0.5) / double(n)) / det_spacing;
    const double fy = std::floor(v), wy = v - fy;
    const cplx* g0 = grid.data() + wrap(std::ptrdiff_t(fy)) * n_pad;
    const cplx* g1 = grid.data() + wrap(std::ptrdiff_t(fy) + 1) * n_pad;
    for (std::size_t x = 0; x < n; ++x) {
      const double u = u_of(x);
      const double fx = std::floor(u), wx = u - fx;
      const std::size_t x0 = wrap(std::ptrdiff_t(fx));
      const std::size_t x1 = wrap(std::ptrdiff_t(fx) + 1);
      const cplx val = g0[x0] * ((1.0 - wx) * (1.0 - wy)) +
                       g0[x1] * (wx * (1.0 - wy)) +
                       g1[x0] * ((1.0 - wx) * wy) + g1[x1] * (wx * wy);
      out_a[y * n + x] = float(val.real() * scale);
      if (!out_b.empty()) out_b[y * n + x] = float(val.imag() * scale);
    }
  });
}

}  // namespace

Image reconstruct_gridrec(const Image& sinogram, const Geometry& geo,
                          std::size_t n, FilterKind filter) {
  Image img(n, n);
  gridrec_pair(sinogram, nullptr, geo, n, filter, img.span(), {});
  return img;
}

namespace {

constexpr float kEps = 1e-6f;

[[noreturn]] void throw_bad_shape(const Image& sinogram, const Geometry& geo) {
  throw std::invalid_argument(
      "sinogram " + std::to_string(sinogram.ny()) + " x " +
      std::to_string(sinogram.nx()) + " does not match geometry n_angles x "
      "n_det = " + std::to_string(geo.n_angles) + " x " +
      std::to_string(geo.n_det));
}

// Sinograms come from deserialized files: check them in every build type.
void check_shape(const Image& sinogram, const Geometry& geo) {
  if (geo.n_angles == 0 || geo.n_det == 0 || sinogram.ny() != geo.n_angles ||
      sinogram.nx() != geo.n_det) {
    throw_bad_shape(sinogram, geo);
  }
}

void clamp_non_negative(std::span<float> data) {
  parallel::parallel_for_chunks(0, data.size(),
                                [&](std::size_t b, std::size_t e) {
                                  hotguard::HotRegion region("recon.clamp");
                                  for (std::size_t i = b; i < e; ++i) {
                                    data[i] = std::max(data[i], 0.0f);
                                  }
                                });
}

// Volume slices [z0, z1): gridrec reconstructs a pair in one pass (see
// gridrec_pair); the other algorithms run slice by slice.
void reconstruct_slices(const std::vector<Image>& sinograms, std::size_t z0,
                        std::size_t z1, const Geometry& geo, std::size_t n,
                        const ReconOptions& opts, Volume& vol) {
  if (opts.algorithm != Algorithm::Gridrec) {
    for (std::size_t z = z0; z < z1; ++z) {
      vol.set_slice(z, reconstruct_slice(sinograms[z], geo, n, opts));
    }
    return;
  }
  const bool paired = z1 - z0 == 2;
  gridrec_pair(sinograms[z0], paired ? &sinograms[z0 + 1] : nullptr, geo, n,
               opts.filter, vol.slice(z0),
               paired ? vol.slice(z0 + 1) : std::span<float>());
  for (std::size_t z = z0; z < z1 && opts.non_negative; ++z) {
    clamp_non_negative(vol.slice(z));
  }
}

}  // namespace

Image reconstruct_sirt(const Image& sinogram, const Geometry& geo,
                       std::size_t n, int n_iterations, bool non_negative) {
  // Row/column sum preconditioners: R = 1/(A 1), C = 1/(A^T 1).
  Image ones_img(n, n, 1.0f);
  Image row_sums = forward_project(ones_img, geo);
  Image ones_sino(geo.n_angles, geo.n_det, 1.0f);
  Image col_sums = back_project_adjoint(ones_sino, geo, n);

  Image x(n, n, 0.0f);
  // Iteration temporaries hoisted out of the loop: forward/adjoint passes
  // write into these reused buffers instead of constructing Images per
  // iteration (the allocations the hot-path contract flagged).
  Image residual(geo.n_angles, geo.n_det);
  Image update(n, n);
  for (int it = 0; it < n_iterations; ++it) {
    forward_project_into(x, geo, residual);
    parallel::parallel_for_chunks(
        0, residual.size(), [&](std::size_t b, std::size_t e) {
          hotguard::HotRegion region("sirt.residual");
          for (std::size_t i = b; i < e; ++i) {
            const float rs = row_sums.data()[i];
            residual.data()[i] =
                rs > kEps ? (sinogram.data()[i] - residual.data()[i]) / rs
                          : 0.0f;
          }
        });
    back_project_adjoint_into(residual, geo, n, update);
    parallel::parallel_for_chunks(
        0, x.size(), [&](std::size_t b, std::size_t e) {
          hotguard::HotRegion region("sirt.update");
          for (std::size_t i = b; i < e; ++i) {
            const float cs = col_sums.data()[i];
            if (cs > kEps) x.data()[i] += update.data()[i] / cs;
          }
        });
    if (non_negative) clamp_non_negative(x.span());
  }
  return x;
}

Image reconstruct_slice(const Image& sinogram, const Geometry& geo,
                        std::size_t n, const ReconOptions& opts) {
  check_shape(sinogram, geo);
  Image out;
  switch (opts.algorithm) {
    case Algorithm::FBP:
      out = reconstruct_fbp(sinogram, geo, n, opts.filter);
      break;
    case Algorithm::Gridrec:
      out = reconstruct_gridrec(sinogram, geo, n, opts.filter);
      break;
    case Algorithm::SIRT:
      out = reconstruct_sirt(sinogram, geo, n, opts.n_iterations,
                             opts.non_negative);
      break;
  }
  if (opts.non_negative && opts.algorithm != Algorithm::SIRT) {
    clamp_non_negative(out.span());
  }
  return out;
}

Volume reconstruct_volume(const std::vector<Image>& sinograms,
                          const Geometry& geo, std::size_t n,
                          const ReconOptions& opts) {
  if (sinograms.empty()) return Volume();
  for (const Image& sino : sinograms) check_shape(sino, geo);
  const std::size_t nz = sinograms.size();
  Volume vol(nz, n, n);
  // Slice-level decomposition — the per-node layout the paper's file-based
  // TomoPy runs use on the 128-core nodes, two slices per gridrec pass.
  // The kernels nest their own parallel_for calls; the reentrant pool
  // work-shares both levels, so this scales whether there are many slices
  // or few.
  const std::size_t step = opts.algorithm == Algorithm::Gridrec ? 2 : 1;
  parallel::parallel_for(0, (nz + step - 1) / step, [&](std::size_t i) {
    // Each body runs complete kernels: they allocate their outputs and
    // nest their own parallel_for fan-outs; the hot regions *inside*
    // those kernels hold the purity contract.
    // check:allow hot-alloc,hot-block,hot-throw slice-level decomposition
    reconstruct_slices(sinograms, i * step, std::min(nz, (i + 1) * step), geo,
                       n, opts, vol);
  });
  return vol;
}

}  // namespace alsflow::tomo
