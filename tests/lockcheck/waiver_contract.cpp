// Corpus: the waiver contract, the same for every pack. A waiver covers
// its own line and the next one, waives only the rules it names, and must
// give a reason; a reasonless waiver waives nothing and is reported as
// waiver-reason. A waiver naming a rule no pack has waives nothing and is
// reported as waiver-unknown.
#include "support.hpp"

namespace alsflow {

class Waivers {
 public:
  // GOOD: a reasoned waiver on the line above covers the flagged line.
  double above() {
    LockGuard g(mu_);
    // check:allow callback-under-lock the clock is a lock-free read
    return clock_();
  }

  // GOOD: a reasoned trailing waiver covers its own line.
  double trailing() {
    LockGuard g(mu_);
    return clock_();  // check:allow callback-under-lock the clock is a lock-free read
  }

  // BAD: a waiver naming another rule waives nothing here.
  double other_rule() {
    LockGuard g(mu_);
    // check:allow emit-under-lock this names a different rule
    return clock_();  // check:expect callback-under-lock
  }

  // BAD: a waiver without a reason waives nothing and is itself a finding.
  double no_reason() {
    LockGuard g(mu_);
    // check:expect waiver-reason // check:allow callback-under-lock
    return clock_();  // check:expect callback-under-lock
  }

  // BAD: a waiver naming no known rule waives nothing and is itself a
  // finding.
  double unknown_rule() {
    LockGuard g(mu_);
    // check:expect waiver-unknown // check:allow callback-under-lok the clock is a lock-free read
    return clock_();  // check:expect callback-under-lock
  }

 private:
  Mutex mu_{LockRank::kServeFrontend, "serve.frontend"};
  std::function<double()> clock_;
};

}  // namespace alsflow
