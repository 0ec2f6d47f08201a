#include "tomo/filters.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"

namespace alsflow::tomo {

const char* filter_name(FilterKind kind) {
  switch (kind) {
    case FilterKind::None: return "none";
    case FilterKind::Ramp: return "ramp";
    case FilterKind::SheppLogan: return "shepp-logan";
    case FilterKind::Hann: return "hann";
    case FilterKind::Hamming: return "hamming";
    case FilterKind::Cosine: return "cosine";
    case FilterKind::Butterworth: return "butterworth";
  }
  return "?";
}

FilterKind filter_from_name(const std::string& name) {
  for (FilterKind k :
       {FilterKind::None, FilterKind::Ramp, FilterKind::SheppLogan,
        FilterKind::Hann, FilterKind::Hamming, FilterKind::Cosine,
        FilterKind::Butterworth}) {
    if (name == filter_name(k)) return k;
  }
  throw std::invalid_argument("unknown filter: " + name);
}

std::vector<double> filter_response(FilterKind kind, std::size_t n_pad) {
  assert((n_pad & (n_pad - 1)) == 0);
  std::vector<double> r(n_pad, 1.0);
  if (kind == FilterKind::None) return r;

  const double half = double(n_pad) / 2.0;
  for (std::size_t k = 0; k < n_pad; ++k) {
    // Signed frequency index in [-N/2, N/2).
    const double kf = k <= n_pad / 2 ? double(k) : double(k) - double(n_pad);
    const double ramp = std::abs(kf) / double(n_pad);
    const double fnorm = std::abs(kf) / half;  // in [0, 1]
    double window = 1.0;
    switch (kind) {
      case FilterKind::Ramp:
        break;
      case FilterKind::SheppLogan: {
        const double x = fnorm / 2.0;
        window = x == 0.0 ? 1.0 : std::sin(M_PI * x) / (M_PI * x);
        break;
      }
      case FilterKind::Hann:
        window = 0.5 * (1.0 + std::cos(M_PI * fnorm));
        break;
      case FilterKind::Hamming:
        window = 0.54 + 0.46 * std::cos(M_PI * fnorm);
        break;
      case FilterKind::Cosine:
        window = std::cos(M_PI * fnorm / 2.0);
        break;
      case FilterKind::Butterworth: {
        const double fc = 0.5, order = 4.0;
        window = 1.0 / (1.0 + std::pow(fnorm / fc, 2.0 * order));
        break;
      }
      case FilterKind::None:
        break;
    }
    r[k] = ramp * window;
  }
  return r;
}

ProjectionFilter::ProjectionFilter(FilterKind kind, std::size_t n_det)
    : kind_(kind),
      n_det_(n_det),
      n_pad_(next_pow2(2 * n_det)),
      response_(filter_response(kind, n_pad_)),
      table_(n_pad_) {}

void ProjectionFilter::apply(std::span<const float> in,
                             std::span<float> out) const {
  std::vector<std::complex<double>> scratch;
  apply_with_scratch(in, out, scratch);
}

void ProjectionFilter::apply_with_scratch(
    std::span<const float> in, std::span<float> out,
    std::vector<std::complex<double>>& scratch) const {
  scratch.resize(n_pad_);
  apply_span(in, out, std::span<std::complex<double>>(scratch));
}

ALSFLOW_HOT void ProjectionFilter::apply_span(
    std::span<const float> in, std::span<float> out,
    std::span<std::complex<double>> scratch) const {
  apply_pair(in, {}, out, {}, scratch);
}

ALSFLOW_HOT void ProjectionFilter::apply_pair(
    std::span<const float> in_a, std::span<const float> in_b,
    std::span<float> out_a, std::span<float> out_b,
    std::span<std::complex<double>> scratch) const {
  assert(in_a.size() == n_det_ && out_a.size() == n_det_);
  assert(in_b.size() == out_b.size() &&
         (in_b.empty() || in_b.size() == n_det_));
  assert(scratch.size() == n_pad_);
  if (kind_ == FilterKind::None) {
    if (out_a.data() != in_a.data()) {
      std::copy(in_a.begin(), in_a.end(), out_a.begin());
    }
    if (out_b.data() != in_b.data()) {
      std::copy(in_b.begin(), in_b.end(), out_b.begin());
    }
    return;
  }
  std::fill(scratch.begin(), scratch.end(), std::complex<double>(0.0, 0.0));
  for (std::size_t i = 0; i < n_det_; ++i) {
    scratch[i] = {double(in_a[i]), in_b.empty() ? 0.0 : double(in_b[i])};
  }
  table_.transform(scratch, false);
  for (std::size_t k = 0; k < n_pad_; ++k) scratch[k] *= response_[k];
  table_.transform(scratch, true);
  for (std::size_t i = 0; i < n_det_; ++i) out_a[i] = float(scratch[i].real());
  for (std::size_t i = 0; i < out_b.size(); ++i) {
    out_b[i] = float(scratch[i].imag());
  }
}

void ProjectionFilter::apply_rows(Image& sinogram) const {
  assert(sinogram.nx() == n_det_);
  // Rows 2j and 2j + 1 share one FFT (an odd last row runs alone); each
  // worker reuses one padded FFT buffer from its scratch arena, acquired
  // before the hot region opens.
  const std::size_t n_rows = sinogram.ny();
  parallel::parallel_for_chunks(
      0, (n_rows + 1) / 2, [&](std::size_t j0, std::size_t j1) {
        auto scratch = parallel::WorkerScratch::complex_buffer(
            parallel::WorkerScratch::kFilterPad, n_pad_);
        hotguard::HotRegion region("filter.apply_rows");
        for (std::size_t j = j0; j < j1; ++j) {
          auto a = sinogram.row(2 * j);
          auto b = 2 * j + 1 < n_rows ? sinogram.row(2 * j + 1)
                                      : std::span<float>();
          apply_pair(a, b, a, b, scratch);
        }
      });
}

}  // namespace alsflow::tomo
