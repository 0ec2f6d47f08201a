// Corpus: lock-across-suspend. BAD cases carry a check:expect marker
// on the exact line the diagnostic anchors to; everything else must stay
// silent (the corpus harness fails on spurious findings too). This file
// is parsed by tools/alsflow_check.py, never compiled into the build.
#include "corpus_stubs.hpp"

namespace corpus {

struct LockAcrossSuspend {
  Mutex mu_;
  int cached_ = 0;

  // BAD: guard constructed before the suspension and still live across
  // it — the resuming thread does not own the lock.
  Future<int> bad_guard_across_await() {
    LockGuard lock(mu_);
    co_await delay(1.0);  // check:expect lock-across-suspend
    co_return cached_;
  }

  // BAD: brace-initialised guard, suspension inside a nested block.
  Future<int> bad_nested_block() {
    UniqueLock lk{mu_};
    if (cached_ > 0) {
      co_await delay(2.0);  // check:expect lock-across-suspend
    }
    co_return 0;
  }

  // GOOD: guard scoped to a block that closes before the suspension.
  Future<int> good_scoped_guard() {
    {
      LockGuard lock(mu_);
      cached_ = 1;
    }
    co_await delay(1.0);
    co_return cached_;
  }

  // GOOD: guards in a plain (non-coroutine) accessor never cross a
  // suspension point.
  int good_plain_accessor() {
    LockGuard lock(mu_);
    return cached_;
  }

  // BAD, after a string literal continued by a backslash-newline: the
  // blanked literal keeps its newline, so the finding keeps its line.
  Future<int> bad_after_line_continuation() {
    const char* label = "a\
b";
    LockGuard lock(mu_);
    co_await delay(1.0);  // check:expect lock-across-suspend
    co_return int(label[0]);
  }
};

}  // namespace corpus
