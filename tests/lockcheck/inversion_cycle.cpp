// Seeded violations: a lock-order cycle between two services plus the
// rank inversions that create it. Mirrors the classic deadlock shape —
// one path locks transfer-then-monitor, the other monitor-then-transfer.
#include "support.hpp"

namespace alsflow {

class MonitorSide;

class TransferSide {
 public:
  // transfer (410) then monitor (620): ascending ranks — the runtime
  // tracker aborts here, and statically this is half of the cycle.
  void record(MonitorSide& mon);

  void poke() { LockGuard g(mu_); }

  Mutex mu_{LockRank::kTransferService, "transfer.service"};
};

class MonitorSide {
 public:
  // monitor (620) then transfer (410): descending, legal on its own —
  // but combined with record() above it closes the cycle.
  void sweep(TransferSide& xfer) {
    LockGuard g(m_);
    LockGuard h(xfer.mu_);  // check:expect lock-cycle
  }

  Mutex m_{LockRank::kHealthMonitor, "monitor.health"};
};

void TransferSide::record(MonitorSide& mon) {
  LockGuard g(mu_);
  LockGuard h(mon.m_);  // check:expect rank-inversion
}

// Recursive acquisition: same mutex taken twice on one thread. The
// runtime tracker aborts (alsflow::Mutex is non-recursive); statically
// it is a rank self-inversion.
class Reentrant {
 public:
  void outer() {
    LockGuard g(m_);
    inner();  // check:expect rank-inversion
  }
  void inner() { LockGuard g(m_); }

  Mutex m_{LockRank::kServeFrontend, "serve.frontend"};
};

}  // namespace alsflow
