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
      seen_(config_.geo.n_angles, false) {
  assert(config_.n_rows > 0 && config_.geo.n_angles > 0);
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
  }
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
    // hotcheck:allow hot-alloc row-level decomposition
    vol.set_slice(z, reconstruct_row(z));
  });
  return vol;
}

OrthoPreview StreamingReconstructor::finalize() const {
  const std::size_t n = config_.recon_width();
  const std::size_t n_rows = config_.n_rows;
  OrthoPreview preview;

  // Central XY plane.
  preview.xy = reconstruct_row(n_rows / 2);

  // Orthogonal cuts: one line per detector row.
  preview.xz = Image(n_rows, n);
  preview.yz = Image(n_rows, n);
  std::vector<double> us(n), vs(n);

  // XZ: v fixed at 0, u sweeps.
  for (std::size_t x = 0; x < n; ++x) {
    us[x] = 2.0 * (double(x) + 0.5) / double(n) - 1.0;
    vs[x] = 0.0;
  }
  parallel::parallel_for(0, n_rows, [&](std::size_t z) {
    // Warm the trig arena before the region opens; fbp_backproject_points
    // reacquires the same slots growth-free inside.
    parallel::WorkerScratch::double_buffer(parallel::WorkerScratch::kTrigCos,
                                           config_.geo.n_angles);
    parallel::WorkerScratch::double_buffer(parallel::WorkerScratch::kTrigSin,
                                           config_.geo.n_angles);
    hotguard::HotRegion region("streaming.preview");
    fbp_backproject_points(sinos_[z], config_.geo, us, vs, preview.xz.row(z));
  });

  // YZ: u fixed at 0, v sweeps.
  std::vector<double> us2(n), vs2(n);
  for (std::size_t y = 0; y < n; ++y) {
    us2[y] = 0.0;
    vs2[y] = 1.0 - 2.0 * (double(y) + 0.5) / double(n);
  }
  parallel::parallel_for(0, n_rows, [&](std::size_t z) {
    parallel::WorkerScratch::double_buffer(parallel::WorkerScratch::kTrigCos,
                                           config_.geo.n_angles);
    parallel::WorkerScratch::double_buffer(parallel::WorkerScratch::kTrigSin,
                                           config_.geo.n_angles);
    hotguard::HotRegion region("streaming.preview");
    fbp_backproject_points(sinos_[z], config_.geo, us2, vs2,
                           preview.yz.row(z));
  });

  return preview;
}

}  // namespace alsflow::tomo
