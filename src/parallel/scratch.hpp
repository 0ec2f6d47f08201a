// Pool-worker-local scratch arenas for hot kernels.
//
// The reconstruction kernels used to allocate per-iteration scratch inside
// their parallel_for lambdas (a padded FFT row per stripe, a column buffer
// per fft2 chunk, a filter pad per sinogram row) — exactly what the
// hot-path purity contract (common/hot_guard.hpp, tools/alsflow_check.py)
// forbids. WorkerScratch replaces those with one monotonically-grown buffer
// per (thread, slot): a chunk body asks for its buffer *before* entering
// its HotRegion, so first-touch growth happens outside the guarded stretch
// and steady-state execution is allocation-free.
//
// Safety: a pool worker executes chunks sequentially, so a thread-local
// buffer can never be live in two chunk bodies at once. Distinct slots keep
// *nested* kernels on one thread from aliasing each other's buffers.
// Buffers are reused, never shrunk, and freed at thread exit; contents on
// return are unspecified — callers must write before reading.
//
// The hot pack treats WorkerScratch acquisition as the one sanctioned call
// in a hot lambda that may grow a container (DESIGN.md §16 waiver table).
#pragma once

#include <complex>
#include <cstddef>
#include <span>

namespace alsflow::parallel {

class WorkerScratch {
 public:
  // One slot per concurrent use on a single thread. Adding a kernel means
  // adding a slot here — slots are deliberately enumerated, not handed out
  // dynamically, so aliasing is a compile-time review question.
  enum ComplexSlot : std::size_t {
    kFft2Col = 0,    // fft2 column gather (src/tomo/fft.cpp)
    kFilterPad,      // projection-filter padded FFT row (filters.cpp)
    kGridrecRow,     // gridrec per-angle spectrum row (recon.cpp)
    nComplexSlots,
  };
  enum DoubleSlot : std::size_t {
    kTrigCos = 0,    // fbp_backproject_points per-angle cosines
    kTrigSin,        // ... and sines (projector.cpp)
    nDoubleSlots,
  };

  // This thread's buffer for `slot`, grown to at least n elements and
  // returned as a span of exactly n. Contents unspecified.
  static std::span<std::complex<double>> complex_buffer(ComplexSlot slot,
                                                        std::size_t n);
  static std::span<double> double_buffer(DoubleSlot slot, std::size_t n);

  // Bytes currently retained by this thread's arenas (tests).
  static std::size_t thread_bytes() noexcept;
};

}  // namespace alsflow::parallel
