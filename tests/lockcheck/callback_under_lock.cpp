// Seeded violations: user code and telemetry invoked while a lock is
// held. Mirrors the defect shapes lockcheck was built to catch (the
// pre-fix log sink, watermark probes, and serve gauge updates).
#include "support.hpp"

namespace alsflow {

struct Ticket {
  void fulfill(int code);
};

// Free helper whose body emits: callers holding a lock inherit the
// emission transitively through the call-graph summaries.
inline void bump_depth_gauge(double depth) {
  telemetry::global().metrics().gauge("depth").set(depth);
}

class Server {
 public:
  void finish(Ticket* t) {
    LockGuard g(mu_);
    t->fulfill(0);  // check:expect callback-under-lock
  }

  void notify() {
    LockGuard g(mu_);
    on_done_();  // check:expect callback-under-lock
  }

  void account() {
    LockGuard g(mu_);
    telemetry::global().metrics().counter("requests").add();  // check:expect emit-under-lock
  }

  void depth_metric() {
    LockGuard g(mu_);
    bump_depth_gauge(double(depth_));  // check:expect emit-under-lock
  }

  // Held via the REQUIRES contract rather than a guard in this body:
  // still a callback under the lock.
  void poke_locked() ALSFLOW_REQUIRES(mu_) {
    on_done_();  // check:expect callback-under-lock
  }

 private:
  Mutex mu_{LockRank::kServeFrontend, "serve.frontend"};
  std::function<void()> on_done_;
  int depth_ = 0;
};

}  // namespace alsflow
