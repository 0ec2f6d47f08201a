// Radix-2 complex FFT (iterative, in-place) plus a 2-D wrapper.
//
// Used by the projection filters (ramp family) and the gridrec-style direct
// Fourier reconstructor. Sizes are always padded to powers of two by the
// callers; double precision keeps filter responses accurate for float data.
//
// The transform is table-driven: an FftTable holds one size's per-stage
// twiddles (computed directly with cos/sin) and its bit-reversal order.
// Building a table allocates, so the caller that owns a size builds it once,
// outside any hot region (the ProjectionFilter constructor; gridrec and
// fft2 before their fan-out), and hot code runs FftTable::transform.
//
// Sizes are validated with a hard check in all build types: a non-power-of-
// two length throws std::invalid_argument instead of silently corrupting
// data in release builds. Callers pad with next_pow2 first.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alsflow::tomo {

std::size_t next_pow2(std::size_t n);

// One power-of-two size's twiddles and bit-reversal order.
class FftTable {
 public:
  // Throws std::invalid_argument when n is not a power of two.
  explicit FftTable(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place FFT of a buffer of exactly size() elements. `inverse` applies
  // the conjugate transform and scales by 1/N. Never allocates.
  void transform(std::span<std::complex<double>> a, bool inverse) const;

  // Columns per block of transform_columns.
  static constexpr std::size_t kColumnBlock = 16;

  // In-place FFT down columns [x0, x1) of a row-major size() x nx buffer,
  // kColumnBlock columns at a time through `block` (at least size() *
  // kColumnBlock elements, contents overwritten). Each column comes out
  // byte-identical to transform() on that column alone. Never allocates.
  void transform_columns(std::span<std::complex<double>> a, std::size_t nx,
                         std::size_t x0, std::size_t x1,
                         std::span<std::complex<double>> block,
                         bool inverse) const;

 private:
  std::size_t n_;
  // Stage-major twiddles: the stage of half-length h starts at offset h - 1
  // and holds exp(-+2*pi*i*k / 2h) for k < h (n - 1 entries in all).
  std::vector<std::complex<double>> forward_, inverse_;
  std::vector<std::uint32_t> bitrev_;
};

// In-place FFT of a power-of-two-length buffer through a table built for
// its length. `inverse` applies the conjugate transform and scales by 1/N
// (so ifft(fft(x)) == x). Throws std::invalid_argument when the length is
// not a power of two. Allocates the table: hot code calls
// FftTable::transform on a table built ahead of time instead.
void fft(std::span<std::complex<double>> a, bool inverse);
void fft(std::vector<std::complex<double>>& a, bool inverse);

// In-place 2-D FFT of a row-major ny x nx (both powers of two) buffer.
// Row and column passes run on the thread pool for large transforms; the
// output is byte-identical to fft() over every row, then every column.
// Throws std::invalid_argument on non-power-of-two dimensions or a buffer
// whose size differs from ny * nx.
void fft2(std::vector<std::complex<double>>& a, std::size_t ny, std::size_t nx,
          bool inverse);

// fft2 with the column pass cut to a window: every row is transformed, then
// only the `width` columns starting at column x0 and wrapping from nx - 1 to
// 0. Each kept column is byte-identical to fft2's; the other columns hold
// the row pass's output. x0 is taken modulo nx; a width of nx or more
// keeps every column (this is fft2). Throws like fft2.
void fft2_window(std::vector<std::complex<double>>& a, std::size_t ny,
                 std::size_t nx, std::size_t x0, std::size_t width,
                 bool inverse);

}  // namespace alsflow::tomo
