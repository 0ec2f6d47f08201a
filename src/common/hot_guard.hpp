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
//   - The counting operator new/delete hooks are not part of this
//     library: they live in src/alloc_hooks.cpp, one object that every
//     test, bench and example links in every build type. The libraries,
//     and any program that links only them, keep the stock allocator.
//     Each operator new reports its size through detail::note_alloc; an
//     allocation while this thread's hot-region depth is non-zero
//     increments the process-wide counters and, when enforcing, aborts
//     with a witness: the allocation size, the region-name stack, and a
//     backtrace.
//   - Enforcement is on from start-up; set_enforcing() turns it off, so
//     the zero-bytes-per-iteration regression tests can count without
//     aborting.
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
// Called by the allocation hooks with every operator new's requested size.
void note_alloc(std::size_t bytes) noexcept;
}  // namespace detail

// Is alloc-in-hot-region aborting right now? (The counters count either
// way.)
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
// start-up.
std::uint64_t hot_alloc_count() noexcept;
std::uint64_t hot_alloc_bytes() noexcept;

// This thread's live heap allocations: operator new calls minus operator
// delete calls on non-null pointers. Defined by the allocation hooks, not
// by this library, so only a binary that links them can call it.
std::int64_t live_allocations() noexcept;
// This thread's operator new calls since it started, from the same hooks.
std::uint64_t allocations() noexcept;

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
