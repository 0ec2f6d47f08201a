#include "tomo/streaming.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"
#include "tomo/projector.hpp"

namespace alsflow::tomo {

StreamingReconstructor::StreamingReconstructor(StreamingConfig config)
    : config_(std::move(config)),
      filter_(config_.filter, config_.geo.n_det),
      sinos_(config_.n_rows,
             Image(config_.geo.n_angles, config_.geo.n_det)),
      seen_(config_.geo.n_angles, false),
      ct_(config_.geo.n_angles),
      st_(config_.geo.n_angles),
      us_(config_.recon_width()),
      vs_(config_.recon_width()),
      zeros_(config_.recon_width(), 0.0),
      plane_(config_.recon_width(), config_.recon_width()),
      xz_(config_.n_rows * config_.recon_width(), 0.0),
      yz_(config_.n_rows * config_.recon_width(), 0.0) {
  assert(config_.n_rows > 0 && config_.geo.n_angles > 0);
  fbp_trig(config_.geo, ct_, st_);
  // Pixel centres on the [-1, 1] grid, +v up: fbp_backproject's own
  // coordinates, so the cuts cross the plane's pixels exactly.
  const std::size_t n = us_.size();
  for (std::size_t i = 0; i < n; ++i) {
    us_[i] = 2.0 * (double(i) + 0.5) / double(n) - 1.0;
    vs_[i] = 1.0 - 2.0 * (double(i) + 0.5) / double(n);
  }
}

void StreamingReconstructor::set_reference(const Image& dark,
                                           const Image& flat) {
  assert(dark.ny() == config_.n_rows && dark.nx() == config_.geo.n_det);
  assert(flat.ny() == config_.n_rows && flat.nx() == config_.geo.n_det);
  dark_ = dark;
  flat_ = flat;
  have_reference_ = true;
}

void StreamingReconstructor::on_frame(std::size_t angle_index,
                                      const Image& frame) {
  assert(angle_index < config_.geo.n_angles);
  assert(frame.ny() == config_.n_rows && frame.nx() == config_.geo.n_det);
  assert(!config_.normalize || have_reference_);

  // Normalize + filter every detector row now, overlapping acquisition.
  // Each row is normalized straight into its sinogram, then rows z and
  // z + 1 are filtered in place through one FFT (an odd last row runs
  // alone). The FFT buffer comes from the worker arena, acquired before the
  // hot region opens: the per-frame path is allocation-free.
  const std::size_t n_rows = config_.n_rows;
  const auto load_row = [&](std::size_t z) {
    auto row = sinos_[z].row(angle_index);
    auto src = frame.row(z);
    std::copy(src.begin(), src.end(), row.begin());
    if (config_.normalize) {
      auto dark_row = dark_.row(z);
      auto flat_row = flat_.row(z);
      for (std::size_t t = 0; t < row.size(); ++t) {
        const float denom = std::max(flat_row[t] - dark_row[t], 1e-4f);
        const float trans = std::max((row[t] - dark_row[t]) / denom, 1e-4f);
        row[t] = -std::log(trans);
      }
    }
    return row;
  };
  parallel::parallel_for(0, (n_rows + 1) / 2, [&](std::size_t j) {
    auto pad = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kFilterPad, filter_.n_pad());
    hotguard::HotRegion region("streaming.on_frame");
    const auto a = load_row(2 * j);
    const auto b =
        2 * j + 1 < n_rows ? load_row(2 * j + 1) : std::span<float>();
    filter_.apply_pair(a, b, a, b, pad);
  });

  if (!seen_[angle_index]) {
    seen_[angle_index] = true;
    ++frames_received_;
  } else if (angle_index < frontier_) {
    // The replaced frame is already in the sums, and a float sum cannot
    // take a term back out exactly: rebuild them from the sinograms.
    plane_.fill(0.0f);
    std::fill(xz_.begin(), xz_.end(), 0.0);
    std::fill(yz_.begin(), yz_.end(), 0.0);
    frontier_ = 0;
  }

  // Back-project every angle the frontier can now pass. Sums grow in angle
  // order only, as fbp_backproject's do, so the preview's bytes do not
  // depend on the order frames arrive in.
  std::size_t end = frontier_;
  while (end < config_.geo.n_angles && seen_[end]) ++end;
  if (end > frontier_) {
    add_angles(frontier_, end, plane_, xz_, yz_);
    frontier_ = end;
  }
}

void StreamingReconstructor::add_angles(std::size_t a0, std::size_t a1,
                                        Image& plane, std::span<double> xz,
                                        std::span<double> yz) const {
  // One item per plane row, then one per detector row for its two cut
  // lines. Each item owns its outputs and sums them over the angles in
  // order, so the result does not depend on the pool size either.
  const std::size_t n = config_.recon_width();
  const double center = config_.geo.center_or_default();
  const Image& mid = sinos_[config_.n_rows / 2];
  parallel::parallel_for(0, n + config_.n_rows, [&](std::size_t i) {
    hotguard::HotRegion region("streaming.preview");
    for (std::size_t a = a0; a < a1; ++a) {
      if (!seen_[a]) continue;
      if (i < n) {
        fbp_accumulate_row(mid.row(a), us_, vs_[i], ct_[a], st_[a], center,
                           plane.row(i));
        continue;
      }
      const std::size_t z = i - n;
      const auto det = sinos_[z].row(a);
      fbp_accumulate_points(det, us_, zeros_, ct_[a], st_[a], center,
                            xz.subspan(z * n, n));
      fbp_accumulate_points(det, zeros_, vs_, ct_[a], st_[a], center,
                            yz.subspan(z * n, n));
    }
  });
}

Image StreamingReconstructor::reconstruct_row(std::size_t z) const {
  assert(z < config_.n_rows);
  return fbp_backproject(sinos_[z], config_.geo, config_.recon_width());
}

Volume StreamingReconstructor::reconstruct_all_rows() const {
  const std::size_t n = config_.recon_width();
  Volume vol(config_.n_rows, n, n);
  parallel::parallel_for(0, config_.n_rows, [&](std::size_t z) {
    // Row-level decomposition, same shape as reconstruct_volume: the body
    // runs a whole FBP kernel whose inner hot regions hold the contract.
    // check:allow hot-alloc row-level decomposition
    vol.set_slice(z, reconstruct_row(z));
  });
  return vol;
}

OrthoPreview StreamingReconstructor::finalize() const {
  const std::size_t n = config_.recon_width();
  OrthoPreview preview{plane_, Image(config_.n_rows, n),
                       Image(config_.n_rows, n)};
  std::vector<double> xz = xz_, yz = yz_;
  // Angles received past a gap join the copies, still in angle order.
  if (frames_received_ > frontier_) {
    add_angles(frontier_, config_.geo.n_angles, preview.xy, xz, yz);
  }
  const double scale = fbp_scale(config_.geo);
  for (auto& p : preview.xy.span()) p = float(p * scale);
  for (std::size_t i = 0; i < xz.size(); ++i) {
    preview.xz.data()[i] = float(xz[i] * scale);
    preview.yz.data()[i] = float(yz[i] * scale);
  }
  return preview;
}

}  // namespace alsflow::tomo
