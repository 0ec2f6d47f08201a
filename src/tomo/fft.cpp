#include "tomo/fft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"

namespace alsflow::tomo {

namespace {

using cplx = std::complex<double>;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

[[noreturn]] void throw_bad_size(const char* what, std::size_t n) {
  throw std::invalid_argument(std::string(what) + " must be a power of two, got " +
                              std::to_string(n));
}

[[noreturn]] void throw_bad_buffer(const char* what, std::size_t got,
                                   std::size_t want) {
  throw std::invalid_argument(std::string(what) + " " + std::to_string(got) +
                              " != " + std::to_string(want));
}

// Below this many elements the pool dispatch overhead beats the win; the
// projection-filter transforms (one row) always take the serial path.
constexpr std::size_t kParallelFft2Threshold = 64 * 64;

// The one radix-2 butterfly, (x, y) <- (x + w y, x - w y). The 1-D and the
// column-block paths both run it, so a column transformed inside a block is
// byte-identical to transform() on that column alone.
inline void butterfly(cplx& x, cplx& y, cplx w) {
  const double yr = y.real() * w.real() - y.imag() * w.imag();
  const double yi = y.real() * w.imag() + y.imag() * w.real();
  y = {x.real() - yr, x.imag() - yi};
  x = {x.real() + yr, x.imag() + yi};
}

// Danielson-Lanczos passes over a row-major rows x width buffer already in
// bit-reversed row order: `width` independent transforms down the columns.
inline void butterflies(cplx* d, std::size_t rows, std::size_t width,
                        const cplx* twiddles) {
  for (std::size_t h = 1; h < rows; h <<= 1) {
    const cplx* w = twiddles + (h - 1);
    for (std::size_t i = 0; i < rows; i += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        cplx* x = d + (i + k) * width;
        cplx* y = x + h * width;
        for (std::size_t c = 0; c < width; ++c) butterfly(x[c], y[c], w[k]);
      }
    }
  }
}

// The one 1/N scaling step of the inverse transform.
inline void scale(std::span<cplx> a, std::size_t n) {
  const double inv_n = 1.0 / double(n);
  for (auto& x : a) x *= inv_n;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftTable::FftTable(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw_bad_size("fft size", n);
  forward_.resize(n - 1);
  inverse_.resize(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double ang = M_PI * double(k) / double(h);
      const double c = std::cos(ang), s = std::sin(ang);
      forward_[h - 1 + k] = {c, -s};
      inverse_[h - 1 + k] = {c, s};
    }
  }
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = std::uint32_t(j);
  }
}

ALSFLOW_HOT void FftTable::transform(std::span<cplx> a, bool inverse) const {
  if (a.size() != n_) throw_bad_buffer("fft buffer size", a.size(), n_);
  cplx* d = a.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(d[i], d[j]);
  }
  butterflies(d, n_, 1, (inverse ? inverse_ : forward_).data());
  if (inverse) scale(a, n_);
}

ALSFLOW_HOT void FftTable::transform_columns(std::span<cplx> a, std::size_t nx,
                                             std::size_t x0, std::size_t x1,
                                             std::span<cplx> block,
                                             bool inverse) const {
  if (a.size() != n_ * nx) throw_bad_buffer("fft2 buffer size", a.size(), n_ * nx);
  if (block.size() < n_ * kColumnBlock) {
    throw_bad_buffer("fft column block", block.size(), n_ * kColumnBlock);
  }
  const cplx* twiddles = (inverse ? inverse_ : forward_).data();
  x1 = std::min(x1, nx);
  for (std::size_t xb = x0; xb < x1; xb += kColumnBlock) {
    const std::size_t w = std::min(kColumnBlock, x1 - xb);
    const std::span<cplx> blk = block.first(n_ * w);
    // Gathering row bitrev[r] into block row r applies the permutation.
    for (std::size_t r = 0; r < n_; ++r) {
      const cplx* src = a.data() + std::size_t(bitrev_[r]) * nx + xb;
      std::copy(src, src + w, blk.data() + r * w);
    }
    butterflies(blk.data(), n_, w, twiddles);
    if (inverse) scale(blk, n_);
    for (std::size_t r = 0; r < n_; ++r) {
      const cplx* src = blk.data() + r * w;
      std::copy(src, src + w, a.data() + r * nx + xb);
    }
  }
}

void fft(std::span<cplx> a, bool inverse) {
  FftTable(a.size()).transform(a, inverse);
}

void fft(std::vector<cplx>& a, bool inverse) {
  fft(std::span<cplx>(a), inverse);
}

void fft2(std::vector<cplx>& a, std::size_t ny, std::size_t nx, bool inverse) {
  fft2_window(a, ny, nx, 0, nx, inverse);
}

void fft2_window(std::vector<cplx>& a, std::size_t ny, std::size_t nx,
                 std::size_t x0, std::size_t width, bool inverse) {
  if (!is_pow2(ny)) throw_bad_size("fft2 ny", ny);
  if (!is_pow2(nx)) throw_bad_size("fft2 nx", nx);
  if (a.size() != ny * nx) throw_bad_buffer("fft2 buffer size", a.size(), ny * nx);
  x0 &= nx - 1;
  width = std::min(width, nx);
  const bool parallel = ny * nx >= kParallelFft2Threshold;
  // Both tables are built here, before the fan-out, so the chunk bodies
  // below never allocate.
  const FftTable row_table(nx), col_table(ny);

  // Rows: contiguous, transformed in place.
  auto row_pass = [&](std::size_t y0, std::size_t y1) {
    hotguard::HotRegion region("fft2.row");
    for (std::size_t y = y0; y < y1; ++y) {
      row_table.transform(std::span<cplx>(a.data() + y * nx, nx), inverse);
    }
  };
  if (parallel) {
    parallel::parallel_for_chunks(0, ny, row_pass);
  } else {
    row_pass(0, ny);
  }

  // Columns: gathered a block at a time into a worker-local scratch block.
  // The buffer is acquired before the hot region opens, so steady-state
  // chunks run allocation-free; the serial path shares the same body,
  // keeping the output byte-identical to the parallel one. Window
  // positions [j0, j1) are columns x0 + j, which wrap past nx - 1 at most
  // once: one run up to nx and one from column 0.
  auto col_pass = [&](std::size_t j0, std::size_t j1) {
    auto block = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kFft2Col, ny * FftTable::kColumnBlock);
    hotguard::HotRegion region("fft2.col");
    const std::size_t b = x0 + j0, e = x0 + j1;
    col_table.transform_columns(a, nx, std::min(b, nx), std::min(e, nx), block,
                                inverse);
    if (e > nx) {
      col_table.transform_columns(a, nx, std::max(b, nx) - nx, e - nx, block,
                                  inverse);
    }
  };
  if (parallel) {
    parallel::parallel_for_chunks(0, width, col_pass);
  } else {
    col_pass(0, width);
  }
}

}  // namespace alsflow::tomo
