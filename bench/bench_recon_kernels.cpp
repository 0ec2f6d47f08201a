// Microbenchmarks of the reconstruction kernels: whole slices and volumes
// (the FBP vs gridrec vs iterative trade-off behind the dual-path design)
// plus the layers a slice spends its time in (FFT, 2-D FFT, row filter,
// FBP gather). Every benchmark times wall clock (UseRealTime), and the
// JSON context records the pool size as `pool_threads`, so a baseline is
// only ever compared at its own thread count. The simulation's
// hpc::ComputeModel rates are hard-coded paper constants; these numbers do
// not feed them.
#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tomo/fft.hpp"
#include "tomo/filters.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"

namespace {

using namespace alsflow;

tomo::Image sino_for(std::size_t n, std::size_t n_angles) {
  tomo::Geometry geo{n_angles, n, -1.0};
  return tomo::analytic_sinogram(tomo::shepp_logan_ellipses(), geo);
}

void BM_ForwardProject(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  tomo::Geometry geo{n, n, -1.0};
  tomo::Image img = tomo::shepp_logan(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::forward_project(img, geo));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n * n * n));
}
BENCHMARK(BM_ForwardProject)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_FbpSlice(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  tomo::Geometry geo{n, n, -1.0};
  tomo::Image sino = sino_for(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tomo::reconstruct_fbp(sino, geo, n, tomo::FilterKind::SheppLogan));
  }
  // FBP cost ~ n_angles * n^2 interpolation ops.
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n * n * n));
}
BENCHMARK(BM_FbpSlice)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_GridrecSlice(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  tomo::Geometry geo{n, n, -1.0};
  tomo::Image sino = sino_for(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tomo::reconstruct_gridrec(sino, geo, n, tomo::FilterKind::SheppLogan));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n * n * n));
}
BENCHMARK(BM_GridrecSlice)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_SirtSlice(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  tomo::Geometry geo{n, n, -1.0};
  tomo::Image sino = sino_for(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::reconstruct_sirt(sino, geo, n, 10));
  }
}
BENCHMARK(BM_SirtSlice)->Arg(64)->Arg(128)->UseRealTime();

// Multi-slice volumes through reconstruct_volume: slice-level parallelism
// on top of the per-kernel parallelism. This is the number the speedup
// acceptance compares across core counts.
void BM_FbpVolume(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const std::size_t n_slices = 8;
  tomo::Geometry geo{n, n, -1.0};
  std::vector<tomo::Image> sinos(n_slices, sino_for(n, n));
  tomo::ReconOptions opts;
  opts.algorithm = tomo::Algorithm::FBP;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::reconstruct_volume(sinos, geo, n, opts));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n_slices * n * n * n));
}
BENCHMARK(BM_FbpVolume)->Arg(64)->Arg(128)->UseRealTime();

// Gridrec volumes of n / 8 distinct slices (the Shepp-Logan ellipses
// shifted a little further on each), so the slice pairs gridrec packs into
// one transform hold different data. At 256 this is scan_recon's shape:
// 32 rows of 256^2 at 256 angles.
void BM_GridrecVolume(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const std::size_t n_slices = n / 8;
  tomo::Geometry geo{n, n, -1.0};
  std::vector<tomo::Image> sinos;
  for (std::size_t z = 0; z < n_slices; ++z) {
    auto ellipses = tomo::shepp_logan_ellipses();
    for (auto& e : ellipses) e.x0 += 0.002 * double(z);
    sinos.push_back(tomo::analytic_sinogram(ellipses, geo));
  }
  tomo::ReconOptions opts;
  opts.algorithm = tomo::Algorithm::Gridrec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::reconstruct_volume(sinos, geo, n, opts));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n_slices * n * n * n));
}
BENCHMARK(BM_GridrecVolume)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// Per-layer kernels. Inputs are built outside the timed loop; each
// iteration does the same work on the same sizes as a 256-wide slice.

std::vector<std::complex<double>> random_signal(std::size_t n) {
  std::vector<std::complex<double>> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {std::sin(0.37 * double(i)), std::cos(0.11 * double(i))};
  }
  return a;
}

// One forward and one inverse transform of an N-point buffer (the row FFT
// of the filter and of gridrec's per-angle spectra; N = 512 for 256
// detector bins), through a table built once.
void BM_Fft(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const tomo::FftTable table(n);
  auto a = random_signal(n);
  for (auto _ : state) {
    table.transform(a, false);
    table.transform(a, true);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_Fft)->Arg(512)->UseRealTime();

// Forward and inverse N x N 2-D transform (gridrec's inverse grid FFT).
void BM_Fft2(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  auto a = random_signal(n * n);
  for (auto _ : state) {
    tomo::fft2(a, n, n, false);
    tomo::fft2(a, n, n, true);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_Fft2)->Arg(512)->UseRealTime();

// Shepp-Logan filtering of every row of an n-angle sinogram (the copy of
// the input, which keeps repeated filtering from decaying to denormals,
// is inside the timing and is small beside the FFTs).
void BM_FilterRows(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const tomo::Image sino = sino_for(n, n);
  const tomo::ProjectionFilter filter(tomo::FilterKind::SheppLogan, n);
  for (auto _ : state) {
    tomo::Image work = sino;
    filter.apply_rows(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_FilterRows)->Arg(256)->UseRealTime();

// The FBP gather alone on a pre-filtered sinogram: n_angles * n^2
// pixel-angle updates per slice, so ns per update = 1e9 / items_per_second.
void BM_FbpBackproject(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  tomo::Geometry geo{n, n, -1.0};
  tomo::Image filtered = sino_for(n, n);
  tomo::ProjectionFilter(tomo::FilterKind::SheppLogan, n).apply_rows(filtered);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::fbp_backproject(filtered, geo, n));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(n * n * n));
}
BENCHMARK(BM_FbpBackproject)->Arg(256)->UseRealTime();

}  // namespace

// Like BENCHMARK_MAIN(), plus the `pool_threads` context. No default
// output file: pass --benchmark_out= to record a run, so a filtered run
// never replaces the committed baseline.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext(
      "pool_threads",
      std::to_string(alsflow::parallel::ThreadPool::global().size()));
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
