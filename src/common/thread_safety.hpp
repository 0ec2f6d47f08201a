// Compile-time race detection: clang thread-safety annotations.
//
// Clang's -Wthread-safety analysis turns locking contracts into compiler
// errors: a field declared ALSFLOW_GUARDED_BY(mu_) cannot be touched
// outside a scope that holds mu_, and a helper declared
// ALSFLOW_REQUIRES(mu_) cannot be called without it. The CI matrix builds
// with clang and -Werror=thread-safety, so "forgot the lock" is a build
// break, not a TSan flake three weeks into a beamtime campaign. On GCC
// (which has no such analysis) every macro expands to nothing and the
// wrappers below behave exactly like the std primitives they wrap.
//
// Usage contract for alsflow code:
//  * declare locks as alsflow::Mutex, never raw std::mutex (enforced by
//    tools/alsflow_check.py outside this file);
//  * annotate every shared field with ALSFLOW_GUARDED_BY(mu_);
//  * private helpers that expect the caller to hold the lock are named
//    *_locked() and annotated ALSFLOW_REQUIRES(mu_);
//  * public entry points that take the lock themselves may declare
//    ALSFLOW_EXCLUDES(mu_) to catch self-deadlock at compile time;
//  * never hold a LockGuard across a coroutine suspension point — the
//    resuming thread would not own the lock. Sim-domain services lock in
//    tight scopes between co_awaits;
//  * every Mutex in src/ declares a LockRank and a name (enforced by
//    tools/alsflow_check.py); the runtime rank checker in
//    common/lock_rank.hpp aborts with a witness when a thread acquires a
//    lock whose rank is not strictly below everything it already holds;
//  * never invoke a user callback (EventSink::on_event, log sinks,
//    Ticket::fulfill, watermark probes, any std::function from outside
//    the class) while holding a lock — snapshot under the lock, call
//    after release (alsflow_check's callback-under-lock rule).
#pragma once

#include <mutex>

#include "common/lock_rank.hpp"

// ThreadSanitizer builds (GCC, then clang) annotate ~Mutex.
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#include <sanitizer/tsan_interface.h>
#endif
#endif

// Annotation spellings. __has_attribute guards against ancient clangs;
// GCC and MSVC take the empty expansion.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ALSFLOW_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ALSFLOW_THREAD_ANNOTATION
#define ALSFLOW_THREAD_ANNOTATION(x)  // no-op: GCC / MSVC / old clang
#endif

// A type that acts as a lock ("capability" in clang's vocabulary).
#define ALSFLOW_CAPABILITY(x) ALSFLOW_THREAD_ANNOTATION(capability(x))
// RAII type that acquires on construction, releases on destruction.
#define ALSFLOW_SCOPED_CAPABILITY ALSFLOW_THREAD_ANNOTATION(scoped_lockable)
// Field may only be read/written while holding the named capability.
#define ALSFLOW_GUARDED_BY(x) ALSFLOW_THREAD_ANNOTATION(guarded_by(x))
// Pointee (not the pointer itself) is protected by the capability.
#define ALSFLOW_PT_GUARDED_BY(x) ALSFLOW_THREAD_ANNOTATION(pt_guarded_by(x))
// Function requires the capability to be held on entry (and keeps it held).
#define ALSFLOW_REQUIRES(...) \
  ALSFLOW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function acquires / releases the capability.
#define ALSFLOW_ACQUIRE(...) \
  ALSFLOW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ALSFLOW_RELEASE(...) \
  ALSFLOW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Function acquires the capability iff it returns `result`.
#define ALSFLOW_TRY_ACQUIRE(result, ...) \
  ALSFLOW_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
// Function must NOT be called with the capability held (self-deadlock).
#define ALSFLOW_EXCLUDES(...) \
  ALSFLOW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Function returns a reference to the named capability.
#define ALSFLOW_RETURN_CAPABILITY(x) \
  ALSFLOW_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch for code the analysis cannot model; use sparingly and say why.
#define ALSFLOW_NO_THREAD_SAFETY_ANALYSIS \
  ALSFLOW_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace alsflow {

// std::mutex with a capability annotation so fields can be GUARDED_BY it,
// plus a name and LockRank feeding the runtime rank checker. The default
// constructor makes an unranked (untracked) mutex for tests and scratch
// code; every mutex in src/ must use the ranked form (alsflow_check's
// unranked-mutex rule).
class ALSFLOW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // std::mutex's destructor never calls pthread_mutex_destroy, so TSan
  // would keep a dead mutex's lock-order history and pin it on the next
  // mutex built at the same address (a reused stack slot or heap block),
  // reporting inversions between locks that never lived at the same time.
  ~Mutex() {
#if defined(__SANITIZE_THREAD__)
    __tsan_mutex_destroy(&m_, 0);
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    __tsan_mutex_destroy(&m_, 0);
#endif
#endif
  }

  void lock() ALSFLOW_ACQUIRE() {
    // Check before blocking: a rank inversion caught here aborts with a
    // witness instead of wedging in m_.lock().
    lockrank::note_acquire(this, rank_, name_);
    m_.lock();
  }
  void unlock() ALSFLOW_RELEASE() {
    lockrank::note_release(this, rank_);
    m_.unlock();
  }
  bool try_lock() ALSFLOW_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    lockrank::note_try_acquire(this, rank_, name_);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

  // Underlying mutex, for std::condition_variable interop only (see
  // UniqueLock::native). Callers must not lock/unlock it directly —
  // that would bypass both the analysis and the rank checker.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
  const LockRank rank_ = LockRank::kUnranked;
  const char* const name_ = nullptr;
};

// std::lock_guard equivalent; the analysis knows the capability is held
// for exactly this object's lifetime.
class ALSFLOW_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) ALSFLOW_ACQUIRE(m) : m_(m) { m_.lock(); }
  // Adopt an already-held lock (caller must hold it; released on scope exit).
  LockGuard(Mutex& m, std::adopt_lock_t) ALSFLOW_REQUIRES(m) : m_(m) {}
  ~LockGuard() ALSFLOW_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

// std::unique_lock equivalent: supports early unlock/relock, try-lock and
// adopt construction, and condition-variable waits via native().
class ALSFLOW_SCOPED_CAPABILITY UniqueLock {
 public:
  // Constructed on the native handle (not via Mutex::lock) so native() can
  // hand std::condition_variable the std::unique_lock it wants; every
  // acquire/release path below notifies the rank checker itself to keep
  // the per-thread held stack exact.
  explicit UniqueLock(Mutex& m) ALSFLOW_ACQUIRE(m)
      : mu_(&m), lk_(m.native(), std::defer_lock) {
    lockrank::note_acquire(mu_, mu_->rank(), mu_->name());
    lk_.lock();
  }
  UniqueLock(Mutex& m, std::adopt_lock_t) ALSFLOW_REQUIRES(m)
      : mu_(&m), lk_(m.native(), std::adopt_lock) {}
  UniqueLock(Mutex& m, std::try_to_lock_t) ALSFLOW_TRY_ACQUIRE(true, m)
      : mu_(&m), lk_(m.native(), std::try_to_lock) {
    if (lk_.owns_lock()) {
      lockrank::note_try_acquire(mu_, mu_->rank(), mu_->name());
    }
  }
  // Releases the capability if still owned.
  ~UniqueLock() ALSFLOW_RELEASE() {
    if (lk_.owns_lock()) lockrank::note_release(mu_, mu_->rank());
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ALSFLOW_ACQUIRE() {
    lockrank::note_acquire(mu_, mu_->rank(), mu_->name());
    lk_.lock();
  }
  void unlock() ALSFLOW_RELEASE() {
    lockrank::note_release(mu_, mu_->rank());
    lk_.unlock();
  }
  bool owns_lock() const { return lk_.owns_lock(); }

  // For std::condition_variable::wait(...). The wait releases and
  // reacquires the mutex internally; from the analysis's point of view the
  // capability is held throughout, which is sound for callers (they hold
  // it both before and after, and the predicate re-check happens locked).
  // The rank checker likewise keeps the entry on the held stack across the
  // wait — also sound: a waiting thread cannot acquire anything else.
  std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  Mutex* mu_;
  std::unique_lock<std::mutex> lk_;
};

}  // namespace alsflow
