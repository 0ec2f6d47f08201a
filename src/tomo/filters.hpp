// Frequency-domain projection filters for filtered back-projection.
//
// A ProjectionFilter pre-computes the padded ramp-family frequency response
// for a given detector width, then filters projection rows via FFT. The
// response uses the convention response[k] = |k|/N * window(|k|/(N/2)), so
// the back-projector applies the remaining pi/n_angles * (1/spacing) scale
// (see fbp.cpp) and FBP of a phantom returns attenuation values directly.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tomo/fft.hpp"
#include "tomo/image.hpp"

namespace alsflow::tomo {

enum class FilterKind {
  None,       // no filtering (plain back-projection; blurry)
  Ramp,       // Ram-Lak
  SheppLogan,
  Hann,
  Hamming,
  Cosine,
  Butterworth,
};

const char* filter_name(FilterKind kind);
FilterKind filter_from_name(const std::string& name);

// Frequency response over FFT bins of length n_pad (power of two).
std::vector<double> filter_response(FilterKind kind, std::size_t n_pad);

class ProjectionFilter {
 public:
  ProjectionFilter(FilterKind kind, std::size_t n_det);

  FilterKind kind() const { return kind_; }
  std::size_t n_det() const { return n_det_; }
  std::size_t n_pad() const { return n_pad_; }

  // Filter one projection row (out may alias in).
  void apply(std::span<const float> in, std::span<float> out) const;

  // As apply(), but reusing a caller-owned padded FFT buffer, grown to
  // n_pad() on first use.
  void apply_with_scratch(std::span<const float> in, std::span<float> out,
                          std::vector<std::complex<double>>& scratch) const;

  // Core of the other two forms: filter with a pre-sized buffer of exactly
  // n_pad() elements (contents overwritten). Never allocates — this is the
  // form hot regions call, with scratch from parallel::WorkerScratch.
  // apply_pair with no second row.
  void apply_span(std::span<const float> in, std::span<float> out,
                  std::span<std::complex<double>> scratch) const;

  // Filter rows a and b through one complex FFT of a + i b: the response is
  // real and even, so the real part of the result is filtered a and the
  // imaginary part filtered b. Either output may alias its input; empty
  // in_b and out_b filter a alone. Same scratch contract as apply_span.
  void apply_pair(std::span<const float> in_a, std::span<const float> in_b,
                  std::span<float> out_a, std::span<float> out_b,
                  std::span<std::complex<double>> scratch) const;

  // Filter every row of a sinogram in place, two rows per FFT (pairs run
  // on the thread pool).
  void apply_rows(Image& sinogram) const;

 private:
  FilterKind kind_;
  std::size_t n_det_;
  std::size_t n_pad_;
  std::vector<double> response_;
  FftTable table_;  // for n_pad_, built here so apply_span never allocates
};

}  // namespace alsflow::tomo
