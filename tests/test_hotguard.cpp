// Runtime hot-path allocation guard: the dynamic half of the hot-path
// purity contract (tools/alsflow_check.py --pack hot is the static half;
// both define a hot region the same way — parallel_for bodies and
// ALSFLOW_HOT functions — and must agree).
//
// Death tests run in "threadsafe" style: the statement re-executes in a
// fresh process, so set_enforcing(true) inside the test body applies in
// the child too and the abort witness is matched against its stderr.
//
// The steady-state suite at the bottom pins the hoisted kernels: after one
// warm-up run grows the worker arenas, a second run of every
// reconstruction kernel must observe *zero* new allocations inside hot
// regions — the regression test for per-iteration scratch. Every test
// binary links the counting hooks (src/alloc_hooks.cpp) in every build
// type, so every case here runs wherever the suite does.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "common/hot_guard.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"
#include "tomo/fft.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"
#include "tomo/streaming.hpp"

namespace alsflow {
namespace {

// Enforcement is a process-global switch; save/restore around every test
// and default it off so counting tests observe without aborting.
class HotGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enforcing_ = hotguard::enforcing();
    hotguard::set_enforcing(false);
  }
  void TearDown() override { hotguard::set_enforcing(was_enforcing_); }
  bool was_enforcing_ = false;
};

TEST_F(HotGuardTest, RegionStackIsIntrospectable) {
  EXPECT_EQ(hotguard::depth(), 0u);
  EXPECT_EQ(hotguard::current_region(), nullptr);
  {
    hotguard::HotRegion outer("test.outer");
    EXPECT_EQ(hotguard::depth(), 1u);
    EXPECT_STREQ(hotguard::current_region(), "test.outer");
    {
      hotguard::HotRegion inner("test.inner");
      EXPECT_EQ(hotguard::depth(), 2u);
      EXPECT_STREQ(hotguard::current_region(), "test.inner");
      EXPECT_STREQ(hotguard::region_name(0), "test.outer");
      EXPECT_STREQ(hotguard::region_name(1), "test.inner");
      EXPECT_EQ(hotguard::region_name(2), nullptr);  // out of range
    }
    EXPECT_EQ(hotguard::depth(), 1u);
    EXPECT_STREQ(hotguard::current_region(), "test.outer");
  }
  EXPECT_EQ(hotguard::depth(), 0u);
}

// The pool snapshots the submitter's innermost region and re-enters it
// around every chunk body, so a kernel's region covers the workers that
// actually execute its iterations.
TEST_F(HotGuardTest, PoolPropagatesSubmitterRegionToWorkers) {
  constexpr std::size_t kN = 64;
  std::vector<const char*> seen(kN, nullptr);
  std::vector<std::size_t> depths(kN, 0);
  {
    hotguard::HotRegion region("test.submit");
    parallel::ThreadPool::global().parallel_for(0, kN, [&](std::size_t i) {
      seen[i] = hotguard::current_region();
      depths[i] = hotguard::depth();
    });
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_NE(seen[i], nullptr) << "iteration " << i;
    EXPECT_STREQ(seen[i], "test.submit") << "iteration " << i;
    EXPECT_GE(depths[i], 1u) << "iteration " << i;
  }
  EXPECT_EQ(hotguard::depth(), 0u);
}

TEST_F(HotGuardTest, WorkerScratchReturnsExactSpanAndReuses) {
  auto s1 = parallel::WorkerScratch::complex_buffer(
      parallel::WorkerScratch::kFft2Col, 256);
  ASSERT_EQ(s1.size(), 256u);
  s1[0] = {1.0, -1.0};
  s1[255] = {2.0, 0.5};

  // A smaller request reuses the same storage, clipped to n.
  auto s2 = parallel::WorkerScratch::complex_buffer(
      parallel::WorkerScratch::kFft2Col, 64);
  ASSERT_EQ(s2.size(), 64u);
  EXPECT_EQ(s2.data(), s1.data());
  EXPECT_EQ(s2[0], (std::complex<double>{1.0, -1.0}));

  // Growth keeps the slot monotonic and is reflected in thread_bytes.
  auto s3 = parallel::WorkerScratch::complex_buffer(
      parallel::WorkerScratch::kFft2Col, 512);
  ASSERT_EQ(s3.size(), 512u);
  EXPECT_GE(parallel::WorkerScratch::thread_bytes(),
            512 * sizeof(std::complex<double>));

  // Distinct slots never alias: nested kernels on one thread each get
  // their own buffer.
  auto pad = parallel::WorkerScratch::complex_buffer(
      parallel::WorkerScratch::kFilterPad, 64);
  EXPECT_NE(pad.data(), s3.data());

  auto d = parallel::WorkerScratch::double_buffer(
      parallel::WorkerScratch::kTrigCos, 17);
  EXPECT_EQ(d.size(), 17u);
}

// With enforcement off, allocating inside a region is the unguarded fast
// path: it must simply work.
TEST_F(HotGuardTest, GuardOffFastPathAllocatesNormally) {
  hotguard::HotRegion region("test.fastpath");
  auto p = std::make_unique<int>(41);
  *p += 1;
  EXPECT_EQ(*p, 42);
}

TEST_F(HotGuardTest, CountersObserveWithoutAbortingWhenNotEnforcing) {
  const auto count0 = hotguard::hot_alloc_count();
  const auto bytes0 = hotguard::hot_alloc_bytes();
  {
    hotguard::HotRegion region("test.count");
    std::unique_ptr<char[]> p(new char[128]);
    p[0] = 'x';
    // The nothrow forms are counted too, and their delete matches them
    // (under ASan an unreplaced form aborts with alloc-dealloc-mismatch).
    std::unique_ptr<char[]> q(new (std::nothrow) char[64]);
    ASSERT_NE(q.get(), nullptr);
    q[0] = 'y';
  }
  EXPECT_GE(hotguard::hot_alloc_count(), count0 + 2);
  EXPECT_GE(hotguard::hot_alloc_bytes(), bytes0 + 128 + 64);
}

// The hooks count this thread's live allocations: each operator new adds
// one, each operator delete of a non-null pointer takes one away. (Direct
// calls, which the compiler may not elide as it may a new-expression.)
TEST_F(HotGuardTest, LiveAllocationsCountNewMinusDelete) {
  const std::int64_t before = hotguard::live_allocations();
  void* p = ::operator new(16);
  void* q = ::operator new[](32, std::nothrow);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(hotguard::live_allocations(), before + 2);
  ::operator delete(p);
  ::operator delete(nullptr);
  EXPECT_EQ(hotguard::live_allocations(), before + 1);
  ::operator delete[](q, std::nothrow);
  EXPECT_EQ(hotguard::live_allocations(), before);
}

TEST_F(HotGuardTest, AllocInsideHotRegionAbortsWithWitness) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        hotguard::set_enforcing(true);
        hotguard::HotRegion region("test.death");
        int* leak = new int(7);
        (void)leak;
      },
      "hot-guard violation(.|\n)*test\\.death(.|\n)*WorkerScratch");
}

TEST_F(HotGuardTest, NestedRegionWitnessListsWholeStack) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        hotguard::set_enforcing(true);
        hotguard::HotRegion outer("test.outer");
        hotguard::HotRegion inner("test.inner");
        int* leak = new int(9);
        (void)leak;
      },
      "test\\.outer(.|\n)*test\\.inner");
}

// fft2 dispatches to the pool above a size threshold and shares the same
// chunk bodies on the serial path; the worker-local column scratch must
// not change a single bit of the output.
TEST_F(HotGuardTest, Fft2ParallelMatchesSerialReferenceExactly) {
  constexpr std::size_t kNy = 128, kNx = 128;  // above the parallel cutoff
  std::vector<std::complex<double>> data(kNy * kNx);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.1 * double(i)), std::cos(0.3 * double(i))};
  }
  auto reference = data;

  tomo::fft2(data, kNy, kNx, false);

  // Serial reference: identical row transforms, then identical column
  // gather/transform/scatter with a private buffer.
  for (std::size_t y = 0; y < kNy; ++y) {
    tomo::fft(std::span<std::complex<double>>(reference.data() + y * kNx, kNx),
              false);
  }
  std::vector<std::complex<double>> col(kNy);
  for (std::size_t x = 0; x < kNx; ++x) {
    for (std::size_t y = 0; y < kNy; ++y) col[y] = reference[y * kNx + x];
    tomo::fft(col, false);
    for (std::size_t y = 0; y < kNy; ++y) reference[y * kNx + x] = col[y];
  }

  ASSERT_EQ(std::memcmp(data.data(), reference.data(),
                        data.size() * sizeof(data[0])),
            0)
      << "parallel fft2 output differs from the serial reference";

  // And the round trip still inverts bit-exactly enough for the digest:
  tomo::fft2(data, kNy, kNx, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), std::sin(0.1 * double(i)), 1e-9);
    EXPECT_NEAR(data[i].imag(), std::cos(0.3 * double(i)), 1e-9);
  }
}

// Zero-bytes-per-iteration regression: after one warm-up run has grown the
// worker arenas, re-running every hoisted kernel must add nothing to the
// hot-allocation counters. This is exactly the property the PR's scratch
// hoisting bought; a relapse (per-iteration vector, per-call trig table)
// shows up here as a counter delta even when enforcement is off.
TEST_F(HotGuardTest, HoistedKernelsRunAllocationFreeInSteadyState) {
  constexpr std::size_t kN = 64;
  const tomo::Geometry geo{90, kN, -1.0};
  const tomo::Image phantom = tomo::shepp_logan(kN);
  const tomo::Image sino = tomo::forward_project(phantom, geo);

  // Detector rows are filtered two per FFT; an odd count runs a lone row
  // too.
  tomo::StreamingConfig scfg;
  scfg.geo = geo;
  scfg.n_rows = 5;
  scfg.normalize = false;
  tomo::Image frame(scfg.n_rows, geo.n_det, 0.25f);
  // Gridrec volumes run slices in pairs: three slices run a pair and a
  // lone slice.
  const std::vector<tomo::Image> sinos(3, sino);

  const auto run_all = [&] {
    tomo::ReconOptions opts;
    opts.algorithm = tomo::Algorithm::FBP;
    tomo::reconstruct_slice(sino, geo, kN, opts);
    opts.algorithm = tomo::Algorithm::Gridrec;
    tomo::reconstruct_slice(sino, geo, kN, opts);
    opts.algorithm = tomo::Algorithm::SIRT;
    opts.n_iterations = 2;
    tomo::reconstruct_slice(sino, geo, kN, opts);
    opts.algorithm = tomo::Algorithm::Gridrec;
    tomo::reconstruct_volume(sinos, geo, kN, opts);
    std::vector<std::complex<double>> buf(128 * 128, {1.0, 0.0});
    tomo::fft2(buf, 128, 128, false);
    // Every preview path: frames summed as they arrive, angles waiting
    // behind a gap (angle 1 comes last) added by finalize(), and a
    // duplicate of a summed angle rebuilding the sums.
    tomo::StreamingReconstructor streamer(scfg);
    for (std::size_t a = 0; a < geo.n_angles; ++a) {
      if (a != 1) streamer.on_frame(a, frame);
    }
    streamer.finalize();
    streamer.on_frame(1, frame);
    streamer.on_frame(0, frame);
    streamer.finalize();
  };

  run_all();  // warm-up: arenas grow outside the regions, legally
  const auto count0 = hotguard::hot_alloc_count();
  const auto bytes0 = hotguard::hot_alloc_bytes();
  run_all();  // steady state: every hot region must be allocation-free
  EXPECT_EQ(hotguard::hot_alloc_count(), count0)
      << "a hot region allocated in steady state";
  EXPECT_EQ(hotguard::hot_alloc_bytes(), bytes0);
}

}  // namespace
}  // namespace alsflow
