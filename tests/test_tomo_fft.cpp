#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "tomo/fft.hpp"
#include "tomo/filters.hpp"

namespace alsflow::tomo {
namespace {

using cplx = std::complex<double>;

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(Fft, RejectsNonPowerOfTwoSizes) {
  // Hard check in all build types: release builds must not silently
  // corrupt data when handed an unpadded buffer. Callers pad via
  // next_pow2 first.
  for (std::size_t n : {3u, 5u, 6u, 7u, 12u, 100u, 1000u}) {
    std::vector<cplx> a(n, {1.0, 0.0});
    EXPECT_THROW(fft(a, false), std::invalid_argument) << n;
    EXPECT_THROW(fft(a, true), std::invalid_argument) << n;
  }
  std::vector<cplx> empty;
  EXPECT_THROW(fft(empty, false), std::invalid_argument);
}

TEST(Fft2, RejectsBadDimensions) {
  std::vector<cplx> a(6 * 8, {1.0, 0.0});
  EXPECT_THROW(fft2(a, 6, 8, false), std::invalid_argument);   // ny not pow2
  a.assign(8 * 6, {1.0, 0.0});
  EXPECT_THROW(fft2(a, 8, 6, false), std::invalid_argument);   // nx not pow2
  a.assign(10, {1.0, 0.0});
  EXPECT_THROW(fft2(a, 8, 8, false), std::invalid_argument);   // size mismatch
}

TEST(Fft, PaddedCallSitesStillRoundTrip) {
  // The supported recipe for arbitrary lengths: pad to next_pow2.
  const std::size_t raw = 100;
  std::vector<cplx> a(next_pow2(raw), {0.0, 0.0});
  for (std::size_t i = 0; i < raw; ++i) a[i] = double(i);
  auto orig = a;
  fft(a, false);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<cplx> a(8, {0.0, 0.0});
  a[0] = 1.0;
  fft(a, false);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<cplx> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::cos(2.0 * M_PI * 5.0 * double(i) / double(n));
  }
  fft(a, false);
  // Bins 5 and n-5 hold n/2 each; everything else ~0.
  EXPECT_NEAR(std::abs(a[5]), double(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(a[n - 5]), double(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(a[4]), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(a[0]), 0.0, 1e-9);
}

TEST(Fft, RoundTripRestoresSignal) {
  Rng rng(1);
  std::vector<cplx> a(256);
  for (auto& x : a) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto orig = a;
  fft(a, false);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(a[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  std::vector<cplx> a(128);
  double time_energy = 0.0;
  for (auto& x : a) {
    x = {rng.uniform(-1, 1), 0.0};
    time_energy += std::norm(x);
  }
  fft(a, false);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / double(a.size()), time_energy, 1e-9);
}

TEST(Fft, LinearityHolds) {
  Rng rng(3);
  const std::size_t n = 64;
  std::vector<cplx> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.uniform(-1, 1), 0.0};
    b[i] = {rng.uniform(-1, 1), 0.0};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft(a, false);
  fft(b, false);
  fft(sum, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-10);
  }
}

TEST(Fft2, RoundTrip2D) {
  Rng rng(4);
  const std::size_t ny = 16, nx = 32;
  std::vector<cplx> a(ny * nx);
  for (auto& x : a) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto orig = a;
  fft2(a, ny, nx, false);
  fft2(a, ny, nx, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-10);
  }
}

// O(n^2) DFT in long double, the reference for the tests below: a
// consistently wrong twiddle table or a transposed fft2 would still pass
// round-trip, Parseval and linearity, but not this. The inverse scales by
// 1/n, like fft().
std::vector<cplx> reference_dft(const std::vector<cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  const long double sign = inverse ? 1.0L : -1.0L;
  std::vector<long double> c(n), s(n);
  for (std::size_t m = 0; m < n; ++m) {
    const long double ang =
        sign * 2.0L * std::numbers::pi_v<long double> * (long double)m /
        (long double)n;
    c[m] = std::cos(ang);
    s[m] = std::sin(ang);
  }
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    long double re = 0.0L, im = 0.0L;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t m = (j * k) % n;
      re += x[j].real() * c[m] - x[j].imag() * s[m];
      im += x[j].real() * s[m] + x[j].imag() * c[m];
    }
    if (inverse) {
      re /= (long double)n;
      im /= (long double)n;
    }
    out[k] = {double(re), double(im)};
  }
  return out;
}

// Separable 2-D reference: the 1-D DFT down every row, then every column.
std::vector<cplx> reference_dft2(std::vector<cplx> a, std::size_t ny,
                                 std::size_t nx, bool inverse) {
  for (std::size_t y = 0; y < ny; ++y) {
    std::vector<cplx> row(a.begin() + std::ptrdiff_t(y * nx),
                          a.begin() + std::ptrdiff_t((y + 1) * nx));
    row = reference_dft(row, inverse);
    std::copy(row.begin(), row.end(), a.begin() + std::ptrdiff_t(y * nx));
  }
  std::vector<cplx> col(ny);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) col[y] = a[y * nx + x];
    col = reference_dft(col, inverse);
    for (std::size_t y = 0; y < ny; ++y) a[y * nx + x] = col[y];
  }
  return a;
}

std::vector<cplx> random_signal(Rng& rng, std::size_t n) {
  std::vector<cplx> a(n);
  for (auto& x : a) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return a;
}

// Largest deviation from the reference, relative to the reference's RMS
// magnitude (so one bound serves every size and both directions).
double relative_error(const std::vector<cplx>& got,
                      const std::vector<cplx>& want) {
  double err = 0.0, energy = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    energy += std::norm(want[i]);
  }
  return err / std::sqrt(energy / double(want.size()));
}

TEST(Fft, MatchesDirectDftForwardAndInverse) {
  Rng rng(6);
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    for (bool inverse : {false, true}) {
      const std::vector<cplx> x = random_signal(rng, n);
      std::vector<cplx> got = x;
      fft(got, inverse);
      EXPECT_LT(relative_error(got, reference_dft(x, inverse)), 1e-14)
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(Fft2, MatchesSeparableDirectDft) {
  // Non-square shapes, including dimensions below the column block
  // (FftTable::kColumnBlock) and one shape above the parallel threshold.
  Rng rng(7);
  const std::size_t shapes[][2] = {{2, 64}, {64, 2}, {8, 32}, {128, 64}};
  for (const auto& shape : shapes) {
    const std::size_t ny = shape[0], nx = shape[1];
    for (bool inverse : {false, true}) {
      const std::vector<cplx> x = random_signal(rng, ny * nx);
      std::vector<cplx> got = x;
      fft2(got, ny, nx, inverse);
      EXPECT_LT(relative_error(got, reference_dft2(x, ny, nx, inverse)), 1e-14)
          << ny << "x" << nx << " inverse=" << inverse;
    }
  }
}

TEST(Fft2, WindowKeepsColumnsByteIdentical) {
  // fft2_window transforms every row but only the window's columns (gridrec
  // inverts just the columns its resample reads). Each kept column must be
  // byte-identical to fft2's, below and above the parallel threshold, for
  // a window wrapping past the last column and for ones covering them all.
  Rng rng(8);
  const std::size_t shapes[][2] = {{8, 32}, {64, 128}};
  for (const auto& shape : shapes) {
    const std::size_t ny = shape[0], nx = shape[1];
    const std::vector<cplx> x = random_signal(rng, ny * nx);
    std::vector<cplx> full = x;
    fft2(full, ny, nx, true);
    const std::size_t windows[][2] = {
        {nx - 5, nx / 2 + 3}, {3, nx}, {0, 3 * nx}};
    for (const auto& window : windows) {
      const std::size_t x0 = window[0], width = std::min(window[1], nx);
      std::vector<cplx> got = x;
      fft2_window(got, ny, nx, x0, window[1], true);
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t col = (x0 + j) % nx;
        for (std::size_t y = 0; y < ny; ++y) {
          ASSERT_EQ(std::memcmp(&got[y * nx + col], &full[y * nx + col],
                                sizeof(cplx)),
                    0)
              << ny << "x" << nx << " window " << x0 << "+" << window[1]
              << " column " << col << " row " << y;
        }
      }
    }
  }
}

TEST(Fft2, DcBinIsSum) {
  const std::size_t ny = 8, nx = 8;
  std::vector<cplx> a(ny * nx, {1.0, 0.0});
  fft2(a, ny, nx, false);
  EXPECT_NEAR(a[0].real(), 64.0, 1e-10);
  EXPECT_NEAR(std::abs(a[1]), 0.0, 1e-10);
}

TEST(FilterResponse, RampIsZeroAtDcLinearInFrequency) {
  auto r = filter_response(FilterKind::Ramp, 64);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_NEAR(r[1], 1.0 / 64.0, 1e-12);
  EXPECT_NEAR(r[32], 0.5, 1e-12);       // Nyquist: |k|/N = 32/64
  EXPECT_NEAR(r[63], 1.0 / 64.0, 1e-12);  // negative frequency -1
  EXPECT_DOUBLE_EQ(r[16], r[64 - 16]);    // symmetric
}

TEST(FilterResponse, WindowsAttenuateHighFrequencies) {
  const std::size_t n = 128;
  auto ramp = filter_response(FilterKind::Ramp, n);
  for (FilterKind k : {FilterKind::SheppLogan, FilterKind::Hann,
                       FilterKind::Hamming, FilterKind::Cosine}) {
    auto r = filter_response(k, n);
    // Near Nyquist the windowed response is below the pure ramp.
    EXPECT_LT(r[n / 2], ramp[n / 2]) << filter_name(k);
    // Low frequencies nearly unattenuated.
    EXPECT_NEAR(r[1] / ramp[1], 1.0, 0.05) << filter_name(k);
  }
}

TEST(FilterResponse, HannReachesZeroAtNyquist) {
  auto r = filter_response(FilterKind::Hann, 64);
  EXPECT_NEAR(r[32], 0.0, 1e-12);
}

TEST(FilterNames, RoundTrip) {
  for (FilterKind k : {FilterKind::None, FilterKind::Ramp,
                       FilterKind::SheppLogan, FilterKind::Hann,
                       FilterKind::Hamming, FilterKind::Cosine,
                       FilterKind::Butterworth}) {
    EXPECT_EQ(filter_from_name(filter_name(k)), k);
  }
  EXPECT_THROW(filter_from_name("bogus"), std::invalid_argument);
}

TEST(ProjectionFilter, NoneIsIdentity) {
  ProjectionFilter pf(FilterKind::None, 16);
  std::vector<float> in(16), out(16);
  for (std::size_t i = 0; i < 16; ++i) in[i] = float(i);
  pf.apply(in, out);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(ProjectionFilter, RemovesDcComponent) {
  ProjectionFilter pf(FilterKind::Ramp, 64);
  std::vector<float> in(64, 3.0f), out(64);
  pf.apply(in, out);
  // A constant has only DC energy; padding leaves edge ringing, so check
  // the interior is strongly suppressed.
  for (std::size_t i = 16; i < 48; ++i) EXPECT_NEAR(out[i], 0.0f, 0.05f);
}

TEST(ProjectionFilter, InPlaceMatchesOutOfPlace) {
  ProjectionFilter pf(FilterKind::SheppLogan, 32);
  Rng rng(5);
  std::vector<float> a(32), b(32), out(32);
  for (std::size_t i = 0; i < 32; ++i) a[i] = b[i] = float(rng.uniform(0, 2));
  pf.apply(a, out);
  pf.apply(b, b);  // aliased
  for (std::size_t i = 0; i < 32; ++i) EXPECT_FLOAT_EQ(b[i], out[i]);
}

TEST(ProjectionFilter, PairMatchesSingleRows) {
  // Two rows share one complex FFT: the response is real and even, so the
  // real and imaginary parts of the result are the two rows filtered. Each
  // must match the row filtered alone to float rounding, through
  // apply_rows over an odd row count (the last row runs alone) and through
  // apply_pair writing in place.
  Rng rng(9);
  const std::size_t n_det = 48, n_rows = 7;
  for (FilterKind kind : {FilterKind::None, FilterKind::Ramp,
                          FilterKind::SheppLogan, FilterKind::Hann}) {
    const ProjectionFilter pf(kind, n_det);
    Image sino(n_rows, n_det);
    for (float& v : sino.span()) v = float(rng.uniform(-1, 2));
    Image rows = sino;
    pf.apply_rows(rows);
    Image in_place = sino;
    std::vector<cplx> scratch(pf.n_pad());
    pf.apply_pair(in_place.row(3), in_place.row(4), in_place.row(3),
                  in_place.row(4), scratch);
    for (std::size_t a = 0; a < n_rows; ++a) {
      std::vector<float> single(n_det);
      pf.apply_span(sino.row(a), single, scratch);
      float peak = 0.0f;
      for (float v : single) peak = std::max(peak, std::abs(v));
      for (std::size_t t = 0; t < n_det; ++t) {
        EXPECT_LE(std::abs(rows.at(a, t) - single[t]), 1e-6f * peak)
            << filter_name(kind) << " row " << a << " bin " << t;
        if (a == 3 || a == 4) {
          EXPECT_LE(std::abs(in_place.at(a, t) - single[t]), 1e-6f * peak)
              << filter_name(kind) << " in place, row " << a << " bin " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace alsflow::tomo
