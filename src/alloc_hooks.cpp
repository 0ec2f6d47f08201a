// Counting replacements for the global allocation functions: the one
// allocator seam of alsflow (DESIGN.md §16). No alsflow library contains
// this file. The top-level CMakeLists.txt builds it as one object that
// every test, bench and example links in every build type; a program that
// links only the libraries keeps the stock allocator.
//
// Every operator new reports its requested size to the hot-path allocation
// guard (common/hot_guard.hpp), which counts it and, when enforcing, aborts
// if this thread is inside a hot region. The hooks forward to malloc/free,
// so the sanitizers' malloc interceptors still see every allocation. Each
// thread also counts its live allocations (new calls minus delete calls on
// non-null pointers) and its operator new calls in plain thread_locals, so
// no allocation pays for a shared atomic. The live count is what
// Facility.TeardownFreesEveryCoroutineFrame reads; the call count is what
// bench_sim_engine and the allocation-budget tests read.
//
// Every form is replaced, nothrow ones included: under ASan an unreplaced
// form comes from ASan's own allocator, so the free() in the matching
// delete would abort with alloc-dealloc-mismatch, and the allocation would
// go uncounted.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/hot_guard.hpp"

namespace {

// Plain zero-initialized TLS only: operator new can run before any
// dynamic thread_local constructor would have.
thread_local std::int64_t t_live = 0;
thread_local std::uint64_t t_allocations = 0;

// Reports the request to the guard, then calls `alloc` until it succeeds,
// running the installed new_handler between tries and throwing
// std::bad_alloc when there is none, as operator new must.
template <typename Alloc>
void* allocate_with(std::size_t size, Alloc alloc) {
  alsflow::hotguard::detail::note_alloc(size);
  ++t_allocations;
  for (;;) {
    if (void* p = alloc(size != 0 ? size : 1)) {
      ++t_live;
      return p;
    }
    if (std::new_handler h = std::get_new_handler()) {
      h();
    } else {
      throw std::bad_alloc();
    }
  }
}

void* allocate(std::size_t size) {
  return allocate_with(size, [](std::size_t n) { return std::malloc(n); });
}

void* allocate(std::size_t size, std::align_val_t align) {
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return allocate_with(size, [a](std::size_t n) {
    void* p = nullptr;
    return posix_memalign(&p, a, n) == 0 ? p : nullptr;
  });
}

template <typename... Align>
void* allocate_nothrow(std::size_t size, Align... align) noexcept {
  try {
    return allocate(size, align...);
  } catch (...) {
    return nullptr;
  }
}

void release(void* p) noexcept {
  if (p != nullptr) --t_live;
  std::free(p);
}

}  // namespace

namespace alsflow::hotguard {

std::int64_t live_allocations() noexcept { return t_live; }
std::uint64_t allocations() noexcept { return t_allocations; }

}  // namespace alsflow::hotguard

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
