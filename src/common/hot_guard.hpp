// Runtime hot-path allocation guard: the dynamic half of the hot-path
// purity contract; tools/alsflow_check.py (hot pack) is the static half.
//
// A *hot region* is a stretch of code that must not allocate: the body of
// every lambda handed to parallel_for / parallel_for_chunks, and every
// function annotated ALSFLOW_HOT (the serve render path, the FFT kernel).
// The static analyzer proves "no allocation, no lock acquisition, no
// logging, no blocking call, no throw-path string construction" over the
// call graph; this guard catches at run time what static analysis cannot
// see (indirect calls, third-party code, future regressions).
//
// Mechanism, mirroring common/lock_rank.hpp:
//
//   - HotRegion is an RAII marker keeping a per-thread depth and a fixed
//     stack of region names. It is compiled in every build (two
//     thread_local writes per region) so ThreadPool can propagate the
//     submitting thread's region onto workers unconditionally.
//   - Under the ALSFLOW_HOT_GUARD build define (set automatically for
//     Debug and sanitizer configurations, or -DALSFLOW_HOT_GUARD=ON),
//     hot_guard.cpp additionally replaces the global operator new/delete
//     family with counting hooks. An allocation while this thread's
//     hot-region depth is non-zero increments the process-wide counters
//     and, when enforcing, aborts with a witness: the allocation size,
//     the region-name stack, and a backtrace.
//   - Enforcement defaults on exactly when the hooks are compiled; the
//     ALSFLOW_HOT_GUARD environment variable (0/1) or set_enforcing()
//     overrides either way, so a guard build can count without aborting
//     (the zero-bytes-per-iteration regression tests do this first, then
//     re-run enforcing).
//
// Scratch discipline: kernels acquire parallel::WorkerScratch buffers
// *before* entering their HotRegion, so first-touch growth is legal and
// the steady state is provably allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>

// Marks a function as a hot region for tools/alsflow_check.py: the
// analyzer applies the full purity contract to its body and everything it
// calls. Expands to the compiler's hot-placement attribute where one
// exists; the contract itself is enforced by the tools, not the compiler.
#if defined(__GNUC__) || defined(__clang__)
#define ALSFLOW_HOT __attribute__((hot))
#else
#define ALSFLOW_HOT
#endif

namespace alsflow::hotguard {

namespace detail {
// Out-of-line implementations; see hot_guard.cpp.
void enter_impl(const char* name) noexcept;
void exit_impl() noexcept;
}  // namespace detail

// Were the counting operator new/delete hooks compiled into this binary?
constexpr bool hooks_compiled() noexcept {
#ifdef ALSFLOW_HOT_GUARD
  return true;
#else
  return false;
#endif
}

// Is alloc-in-hot-region aborting right now? (Counters always count when
// the hooks are compiled, enforcing or not.)
bool enforcing() noexcept;
// Toggle enforcement (tests; call with no hot region entered).
void set_enforcing(bool on) noexcept;

// Introspection: this thread's hot-region depth, the innermost region
// name (nullptr at depth 0), and the i-th entry of the region stack
// (0 = outermost; nullptr out of range).
std::size_t depth() noexcept;
const char* current_region() noexcept;
const char* region_name(std::size_t i) noexcept;

// Process-wide totals of allocations observed inside hot regions since
// start-up. Always zero when !hooks_compiled().
std::uint64_t hot_alloc_count() noexcept;
std::uint64_t hot_alloc_bytes() noexcept;

// RAII hot-region marker. `name` must outlive the region (string
// literals; the pool passes through the submitter's literal).
class HotRegion {
 public:
  explicit HotRegion(const char* name) noexcept { detail::enter_impl(name); }
  ~HotRegion() { detail::exit_impl(); }
  HotRegion(const HotRegion&) = delete;
  HotRegion& operator=(const HotRegion&) = delete;
};

}  // namespace alsflow::hotguard
