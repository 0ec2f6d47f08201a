#include "common/hot_guard.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define ALSFLOW_HOT_GUARD_BACKTRACE 1
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

bool initial_enforcing() {
  // Environment wins over the build default so a guard build can count
  // without aborting (ALSFLOW_HOT_GUARD=0) and any build can flip the
  // marker bookkeeping on for inspection (=1) without recompiling.
  if (const char* v = std::getenv("ALSFLOW_HOT_GUARD")) {
    return v[0] != '\0' && v[0] != '0';
  }
  return hooks_compiled();
}

std::atomic<bool>& enforcing_flag() {
  static std::atomic<bool> flag{initial_enforcing()};
  return flag;
}

#ifdef ALSFLOW_HOT_GUARD
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
#ifdef ALSFLOW_HOT_GUARD_BACKTRACE
  void* frames[64];
  const int n = backtrace(frames, 64);
  backtrace_symbols_fd(frames, n, 2 /* stderr */);
#endif
  std::abort();
}

// Called by the operator new replacements below with the requested size.
// Counts every allocation made while this thread is inside a hot region;
// aborts with a witness when enforcement is on.
void note_alloc(std::size_t bytes) noexcept {
  if (t_depth == 0 || t_reporting) return;
  g_hot_allocs.fetch_add(1, std::memory_order_relaxed);
  g_hot_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (enforcing_flag().load(std::memory_order_relaxed)) violation(bytes);
}
#endif

}  // namespace

bool enforcing() noexcept {
  return enforcing_flag().load(std::memory_order_relaxed);
}

void set_enforcing(bool on) noexcept {
  enforcing_flag().store(on, std::memory_order_relaxed);
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

}  // namespace detail

}  // namespace alsflow::hotguard

#ifdef ALSFLOW_HOT_GUARD

// Counting replacements for the global allocation functions. They forward
// to malloc/free (so the sanitizers' malloc interceptors still see every
// allocation) and report the requested size to the guard first. Every
// form is replaced, nothrow ones included: under ASan an unreplaced form
// comes from ASan's own allocator, so the guard's free() in the matching
// delete would abort with alloc-dealloc-mismatch, and the allocation
// would go uncounted.
namespace alsflow::hotguard {
namespace {
inline void hook(std::size_t bytes) noexcept { note_alloc(bytes); }
}  // namespace
}  // namespace alsflow::hotguard

void* operator new(std::size_t size) {
  alsflow::hotguard::hook(size);
  for (;;) {
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    if (std::new_handler h = std::get_new_handler()) {
      h();
    } else {
      throw std::bad_alloc();
    }
  }
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  alsflow::hotguard::hook(size);
  const std::size_t a = static_cast<std::size_t>(align);
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, a >= sizeof(void*) ? a : sizeof(void*),
                       size != 0 ? size : 1) == 0) {
      return p;
    }
    if (std::new_handler h = std::get_new_handler()) {
      h();
    } else {
      throw std::bad_alloc();
    }
  }
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new[](size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return ::operator new[](size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // ALSFLOW_HOT_GUARD
