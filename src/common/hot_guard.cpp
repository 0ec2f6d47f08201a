#include "common/hot_guard.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define ALSFLOW_HOT_BACKTRACE 1
#endif
#endif

namespace alsflow::hotguard {

namespace {

// Fixed-capacity per-thread region stack: the guard itself must never
// allocate, least of all inside the operator new hook. Nesting this many
// hot regions is itself a bug worth aborting on.
constexpr std::size_t kMaxDepth = 16;

// Plain zero-initialized TLS only: the operator new hook can fire before
// any dynamic thread_local constructor would have run.
thread_local const char* t_regions[kMaxDepth];
thread_local std::size_t t_depth = 0;
// Set while reporting a violation so the report path (fprintf, backtrace)
// may allocate without recursing into the hook.
thread_local bool t_reporting = false;

std::atomic<std::uint64_t> g_hot_allocs{0};
std::atomic<std::uint64_t> g_hot_bytes{0};

std::atomic<bool> g_enforcing{true};

[[noreturn]] void violation(std::size_t bytes) {
  t_reporting = true;
  std::fprintf(stderr,
               "\nalsflow hot-guard violation: heap allocation inside a hot "
               "region\n"
               "  attempted: operator new of %zu byte(s)\n"
               "  hot-region stack of this thread (outermost first):\n",
               bytes);
  for (std::size_t i = 0; i < t_depth; ++i) {
    std::fprintf(stderr, "    [%zu] \"%s\"\n", i,
                 t_regions[i] != nullptr ? t_regions[i] : "?");
  }
  std::fprintf(stderr,
               "  rule: hot regions must not allocate — hoist scratch into "
               "parallel::WorkerScratch before entering the region "
               "(see DESIGN.md #16)\n");
#ifdef ALSFLOW_HOT_BACKTRACE
  void* frames[64];
  const int n = backtrace(frames, 64);
  backtrace_symbols_fd(frames, n, 2 /* stderr */);
#endif
  std::abort();
}

}  // namespace

bool enforcing() noexcept {
  return g_enforcing.load(std::memory_order_relaxed);
}

void set_enforcing(bool on) noexcept {
  g_enforcing.store(on, std::memory_order_relaxed);
}

std::size_t depth() noexcept { return t_depth; }

const char* current_region() noexcept {
  return t_depth > 0 ? t_regions[t_depth - 1] : nullptr;
}

const char* region_name(std::size_t i) noexcept {
  return i < t_depth ? t_regions[i] : nullptr;
}

std::uint64_t hot_alloc_count() noexcept {
  return g_hot_allocs.load(std::memory_order_relaxed);
}

std::uint64_t hot_alloc_bytes() noexcept {
  return g_hot_bytes.load(std::memory_order_relaxed);
}

namespace detail {

void enter_impl(const char* name) noexcept {
  if (t_depth >= kMaxDepth) {
    t_reporting = true;
    std::fprintf(stderr,
                 "\nalsflow hot-guard: region stack overflow entering \"%s\" "
                 "(depth %zu)\n",
                 name != nullptr ? name : "?", t_depth);
    std::abort();
  }
  t_regions[t_depth++] = name;
}

void exit_impl() noexcept {
  if (t_depth > 0) --t_depth;
}

// Counts every allocation made while this thread is inside a hot region;
// aborts with a witness when enforcement is on.
void note_alloc(std::size_t bytes) noexcept {
  if (t_depth == 0 || t_reporting) return;
  g_hot_allocs.fetch_add(1, std::memory_order_relaxed);
  g_hot_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (g_enforcing.load(std::memory_order_relaxed)) violation(bytes);
}

}  // namespace detail

}  // namespace alsflow::hotguard
