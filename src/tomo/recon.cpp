#include "tomo/recon.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
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
    case Algorithm::MLEM: return "mlem";
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

Image reconstruct_gridrec(const Image& sinogram, const Geometry& geo,
                          std::size_t n, FilterKind filter) {
  using cplx = std::complex<double>;
  const std::size_t n_det = geo.n_det;
  const std::size_t n_pad = next_pow2(2 * n_det);
  const std::size_t mask = n_pad - 1;  // n_pad is a power of two
  const double center = geo.center_or_default();
  const FftTable table(n_pad);
  const auto signed_freq = [n_pad](std::size_t k) {
    return k <= n_pad / 2 ? double(k) : double(k) - double(n_pad);
  };

  // Per-frequency factor, the same for every angle: the ramp (density
  // compensation) and any apodizing window, times the linear phase that
  // shifts the rotation axis to the origin.
  const auto response = filter_response(filter, n_pad);
  std::vector<cplx> weight(n_pad);
  for (std::size_t k = 0; k < n_pad; ++k) {
    weight[k] = std::polar(response[k],
                           2.0 * M_PI * signed_freq(k) * center / double(n_pad));
  }

  // 2-D Fourier grid, filled by splatting ramp-weighted projection spectra
  // along their central slices (projection-slice theorem).
  std::vector<cplx> grid(n_pad * n_pad, {0.0, 0.0});

  // Splat one weighted frequency sample at grid position (gx, gy) into
  // `out` (any accumulation grid), bilinearly.
  const auto splat = [&](std::vector<cplx>& out, double gx, double gy,
                         cplx sample) {
    if (sample == cplx(0.0, 0.0)) return;
    const double fx = std::floor(gx), fy = std::floor(gy);
    const double wx = gx - fx, wy = gy - fy;
    const std::size_t x0 = std::size_t(std::ptrdiff_t(fx)) & mask;
    const std::size_t x1 = (x0 + 1) & mask;
    const std::size_t y0 = std::size_t(std::ptrdiff_t(fy)) & mask;
    const std::size_t y1 = (y0 + 1) & mask;
    out[y0 * n_pad + x0] += sample * ((1.0 - wx) * (1.0 - wy));
    out[y0 * n_pad + x1] += sample * (wx * (1.0 - wy));
    out[y1 * n_pad + x0] += sample * ((1.0 - wx) * wy);
    out[y1 * n_pad + x1] += sample * (wx * wy);
  };

  // Splat angles [a0, a1) two at a time. Rows a and a+1 go through one
  // complex FFT, z = p_a + i p_{a+1}; both rows are real, so Hermitian
  // symmetry splits Z into P_a[k] = (Z[k] + conj(Z[-k])) / 2 and
  // P_{a+1}[k] = (Z[k] - conj(Z[-k])) / 2i. An unpaired last angle rides
  // with a zero row. The two samples of frequency k land a few cells apart
  // (one angular step), so splatting them together reuses the grid lines
  // the first one pulled into cache. `row` is caller-provided n_pad scratch
  // (overwritten), so the hot stripe bodies can pass worker-arena spans.
  const auto splat_range = [&](std::size_t a0, std::size_t a1,
                               std::span<cplx> row, std::vector<cplx>& out) {
    for (std::size_t a = a0; a < a1; a += 2) {
      const bool paired = a + 1 < a1;
      const auto p = sinogram.row(a);
      if (paired) {
        const auto q = sinogram.row(a + 1);
        for (std::size_t t = 0; t < n_det; ++t) row[t] = {p[t], q[t]};
      } else {
        for (std::size_t t = 0; t < n_det; ++t) row[t] = {p[t], 0.0};
      }
      std::fill(row.begin() + std::ptrdiff_t(n_det), row.end(), cplx(0.0, 0.0));
      table.transform(row, false);
      const double ca = std::cos(geo.angle(a)), sa = std::sin(geo.angle(a));
      const double cb = std::cos(geo.angle(a + 1));
      const double sb = std::sin(geo.angle(a + 1));
      for (std::size_t k = 0; k < n_pad; ++k) {
        // Polar position of frequency k on the Cartesian grid.
        const double kf = signed_freq(k);
        const cplx z = row[k], zc = std::conj(row[(n_pad - k) & mask]);
        splat(out, kf * ca, kf * sa, 0.5 * (z + zc) * weight[k]);
        if (paired) {
          const cplx d = z - zc;
          splat(out, kf * cb, kf * sb,
                cplx(0.5 * d.imag(), -0.5 * d.real()) * weight[k]);
        }
      }
    }
  };

  // Angles scatter across the whole grid, so stripe them over the pool
  // with one scratch grid per stripe (merged below in a fixed order)
  // instead of sharing the accumulation target. Stripe 0 accumulates
  // straight into `grid`. Stripes hold whole pairs, so a pair never
  // straddles two stripes.
  const std::size_t n_pairs = (geo.n_angles + 1) / 2;
  const std::size_t want =
      std::min(parallel::ThreadPool::global().size(), n_pairs);
  if (want <= 1) {
    auto row = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kGridrecRow, n_pad);
    splat_range(0, geo.n_angles, row, grid);
  } else {
    const std::size_t stride = 2 * ((n_pairs + want - 1) / want);
    const std::size_t n_stripes = (geo.n_angles + stride - 1) / stride;
    // Per-stripe accumulation grids, sized (value-initialized to zero)
    // before the fan-out so the stripe bodies never touch the allocator.
    std::vector<std::vector<cplx>> partial(n_stripes - 1);
    for (auto& p : partial) p.resize(n_pad * n_pad);
    parallel::parallel_for(0, n_stripes, [&](std::size_t s) {
      auto row = parallel::WorkerScratch::complex_buffer(
          parallel::WorkerScratch::kGridrecRow, n_pad);
      hotguard::HotRegion region("gridrec.splat");
      splat_range(s * stride, std::min(geo.n_angles, (s + 1) * stride), row,
                  s == 0 ? grid : partial[s - 1]);
    });
    parallel::parallel_for_chunks(
        0, n_pad * n_pad, [&](std::size_t b, std::size_t e) {
          hotguard::HotRegion region("gridrec.merge");
          for (const auto& p : partial) {
            for (std::size_t i = b; i < e; ++i) grid[i] += p[i];
          }
        });
  }

  fft2(grid, n_pad, n_pad, true);

  // Sample the periodic inverse transform at the output pixel positions.
  // Pixel coordinates are in detector-spacing units about the origin.
  Image img(n, n);
  const double det_spacing = 2.0 / double(n_det);
  const double scale = M_PI * double(n_pad) / double(geo.n_angles) / det_spacing;
  const auto wrap = [n_pad](std::ptrdiff_t i) {
    i %= std::ptrdiff_t(n_pad);
    if (i < 0) i += std::ptrdiff_t(n_pad);
    return std::size_t(i);
  };
  parallel::parallel_for(0, n, [&](std::size_t y) {
    hotguard::HotRegion region("gridrec.resample");
    const double v = (1.0 - 2.0 * (double(y) + 0.5) / double(n)) / det_spacing;
    for (std::size_t x = 0; x < n; ++x) {
      const double u =
          (2.0 * (double(x) + 0.5) / double(n) - 1.0) / det_spacing;
      const double fx = std::floor(u), fy = std::floor(v);
      const double wx = u - fx, wy = v - fy;
      const std::size_t x0 = wrap(std::ptrdiff_t(fx));
      const std::size_t x1 = wrap(std::ptrdiff_t(fx) + 1);
      const std::size_t y0 = wrap(std::ptrdiff_t(fy));
      const std::size_t y1 = wrap(std::ptrdiff_t(fy) + 1);
      const double val =
          grid[y0 * n_pad + x0].real() * (1.0 - wx) * (1.0 - wy) +
          grid[y0 * n_pad + x1].real() * wx * (1.0 - wy) +
          grid[y1 * n_pad + x0].real() * (1.0 - wx) * wy +
          grid[y1 * n_pad + x1].real() * wx * wy;
      img.at(y, x) = float(val * scale);
    }
  });
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

void clamp_non_negative(Image& img) {
  auto data = img.span();
  parallel::parallel_for_chunks(0, data.size(),
                                [&](std::size_t b, std::size_t e) {
                                  hotguard::HotRegion region("recon.clamp");
                                  for (std::size_t i = b; i < e; ++i) {
                                    data[i] = std::max(data[i], 0.0f);
                                  }
                                });
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
    if (non_negative) clamp_non_negative(x);
  }
  return x;
}

Image reconstruct_mlem(const Image& sinogram, const Geometry& geo,
                       std::size_t n, int n_iterations) {
  Image ones_sino(geo.n_angles, geo.n_det, 1.0f);
  Image sens = back_project_adjoint(ones_sino, geo, n);  // A^T 1

  Image x(n, n, 1.0f);
  // Same hoisting as reconstruct_sirt: one projection and one ratio buffer
  // reused across all iterations.
  Image proj(geo.n_angles, geo.n_det);
  Image ratio(n, n);
  for (int it = 0; it < n_iterations; ++it) {
    forward_project_into(x, geo, proj);
    parallel::parallel_for_chunks(
        0, proj.size(), [&](std::size_t cb, std::size_t ce) {
          hotguard::HotRegion region("mlem.ratio");
          for (std::size_t i = cb; i < ce; ++i) {
            const float p = proj.data()[i];
            const float b = std::max(sinogram.data()[i], 0.0f);
            proj.data()[i] = p > kEps ? b / p : 0.0f;
          }
        });
    back_project_adjoint_into(proj, geo, n, ratio);
    parallel::parallel_for_chunks(
        0, x.size(), [&](std::size_t cb, std::size_t ce) {
          hotguard::HotRegion region("mlem.update");
          for (std::size_t i = cb; i < ce; ++i) {
            const float s = sens.data()[i];
            x.data()[i] = s > kEps ? x.data()[i] * ratio.data()[i] / s : 0.0f;
          }
        });
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
    case Algorithm::MLEM:
      out = reconstruct_mlem(sinogram, geo, n, opts.n_iterations);
      break;
  }
  if (opts.non_negative && opts.algorithm != Algorithm::SIRT) {
    clamp_non_negative(out);
  }
  return out;
}

Volume reconstruct_volume(const std::vector<Image>& sinograms,
                          const Geometry& geo, std::size_t n,
                          const ReconOptions& opts) {
  if (sinograms.empty()) return Volume();
  for (const Image& sino : sinograms) check_shape(sino, geo);
  Volume vol(sinograms.size(), n, n);
  // Slice-level decomposition — the per-node layout the paper's file-based
  // TomoPy runs use on the 128-core nodes. The per-slice kernels nest
  // their own parallel_for calls; the reentrant pool work-shares both
  // levels, so this scales whether there are many slices or few.
  parallel::parallel_for(0, sinograms.size(), [&](std::size_t z) {
    // Each slice body runs complete kernels: they allocate their outputs
    // and nest their own parallel_for fan-outs; the hot regions *inside*
    // those kernels hold the purity contract.
    // hotcheck:allow hot-alloc,hot-block,hot-throw slice-level decomposition
    vol.set_slice(z, reconstruct_slice(sinograms[z], geo, n, opts));
  });
  return vol;
}

}  // namespace alsflow::tomo
