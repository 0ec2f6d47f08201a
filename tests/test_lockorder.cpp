// Runtime lock-rank enforcement: the dynamic half of the concurrency
// contract (tools/alsflow_check.py --pack lock is the static half; both
// read the same LockRank table in common/lock_rank.hpp and must agree).
//
// Death tests run in "threadsafe" style: the statement re-executes in a
// fresh process, so set_enforcing(true) inside the test body applies in
// the child too and the abort witness is matched against its stderr.
//
// The regression suites at the bottom pin the fixed callback-under-lock
// sites (reentrant log sink, watermark probe reading the monitor's own
// accessor, the serve stack's full lock chain) with enforcement on: the
// pre-fix code invoked these callbacks while holding a tracked mutex, so
// any relapse aborts with a rank witness instead of deadlocking.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "access/tiled.hpp"
#include "common/lock_rank.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "data/multiscale.hpp"
#include "monitor/health_monitor.hpp"
#include "serve/frontend.hpp"
#include "tomo/phantom.hpp"

namespace alsflow {
namespace {

// Enforcement is a process-global switch; save/restore around every test
// so suites compose regardless of build default and execution order.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enforcing_ = lockrank::enforcing();
    lockrank::set_enforcing(true);
  }
  void TearDown() override { lockrank::set_enforcing(was_enforcing_); }
  bool was_enforcing_ = false;
};

TEST_F(LockOrderTest, StrictDescentPassesAndIsIntrospectable) {
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  Mutex low{LockRank::kTransferService, "transfer.service"};
  {
    LockGuard g(high);
    ASSERT_EQ(lockrank::held_count(), 1u);
    EXPECT_STREQ(lockrank::held_name(0), "monitor.health");
    EXPECT_EQ(lockrank::held_rank(0),
              static_cast<int>(LockRank::kHealthMonitor));
    LockGuard h(low);
    ASSERT_EQ(lockrank::held_count(), 2u);
    EXPECT_STREQ(lockrank::held_name(1), "transfer.service");
  }
  EXPECT_EQ(lockrank::held_count(), 0u);
  EXPECT_EQ(lockrank::held_name(0), nullptr);  // out of range
  EXPECT_EQ(lockrank::held_rank(0), 0);
}

TEST_F(LockOrderTest, RankInversionAbortsWithWitness) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  Mutex low{LockRank::kTransferService, "transfer.service"};
  EXPECT_DEATH(
      {
        lockrank::set_enforcing(true);
        LockGuard g(low);
        LockGuard h(high);  // 620 while holding 410: ascending
      },
      "rank inversion(.|\n)*monitor\\.health(.|\n)*transfer\\.service"
      "(.|\n)*violates strict descent");
}

TEST_F(LockOrderTest, SameRankAcquisitionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{LockRank::kServeFrontend, "serve.frontend.a"};
  Mutex b{LockRank::kServeFrontend, "serve.frontend.b"};
  EXPECT_DEATH(
      {
        lockrank::set_enforcing(true);
        LockGuard g(a);
        LockGuard h(b);  // equal rank: cross-instance nesting rejected
      },
      "same-rank acquisition");
}

TEST_F(LockOrderTest, RecursiveAcquisitionAbortsInsteadOfDeadlocking) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex m{LockRank::kServeFrontend, "serve.frontend"};
  EXPECT_DEATH(
      {
        lockrank::set_enforcing(true);
        LockGuard g(m);
        m.lock();  // checked (and aborted) before std::mutex::lock blocks
      },
      "recursive acquisition");
}

TEST_F(LockOrderTest, TryLockIsRecordedButNotRankChecked) {
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  Mutex low{LockRank::kTransferService, "transfer.service"};
  LockGuard g(low);
  // Acquiring a *higher* rank via try_lock is legal: it cannot block, so
  // it cannot be an edge of a deadlock cycle.
  UniqueLock u(high, std::try_to_lock);
  ASSERT_TRUE(u.owns_lock());
  EXPECT_EQ(lockrank::held_count(), 2u);
  EXPECT_STREQ(lockrank::held_name(1), "monitor.health");
  u.unlock();
  EXPECT_EQ(lockrank::held_count(), 1u);
}

TEST_F(LockOrderTest, UniqueLockEarlyUnlockKeepsStackExact) {
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  Mutex low{LockRank::kTransferService, "transfer.service"};
  UniqueLock u(high);
  {
    LockGuard g(low);
    EXPECT_EQ(lockrank::held_count(), 2u);
  }
  u.unlock();
  EXPECT_EQ(lockrank::held_count(), 0u);
  u.lock();
  EXPECT_EQ(lockrank::held_count(), 1u);
}

TEST_F(LockOrderTest, UnrankedMutexIsUntracked) {
  Mutex scratch;  // default-constructed: kUnranked, not on the held stack
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  LockGuard g(scratch);
  EXPECT_EQ(lockrank::held_count(), 0u);
  LockGuard h(high);  // unranked held locks never constrain ranked ones
  EXPECT_EQ(lockrank::held_count(), 1u);
}

TEST_F(LockOrderTest, EnforcementOffRecordsNothingAndNeverAborts) {
  lockrank::set_enforcing(false);
  Mutex high{LockRank::kHealthMonitor, "monitor.health"};
  Mutex low{LockRank::kTransferService, "transfer.service"};
  LockGuard g(low);
  LockGuard h(high);  // inverted order: tolerated with checking off
  EXPECT_EQ(lockrank::held_count(), 0u);
}

// ---------------------------------------------------------------------------
// Regression: fixed callback-under-lock sites (the lock pack's witness list)
// ---------------------------------------------------------------------------

// log.cpp once invoked the swappable sink while holding its own mutex, so
// a sink that logs (or locks anything ranked) deadlocked. The sink is now
// called after release; prove it by logging *from* the sink with the rank
// checker on and asserting the callback runs with zero tracked locks held.
TEST_F(LockOrderTest, LogSinkMayLogWithoutDeadlockOrRankAbort) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::Info);
  std::vector<std::string> lines;
  std::atomic<bool> reentered{false};
  set_log_sink([&](const LogRecord& rec) {
    EXPECT_EQ(lockrank::held_count(), 0u);  // no lock across the callback
    lines.push_back(rec.message);
    if (!reentered.exchange(true)) {
      log_line(LogLevel::Info, "lockorder", "from-sink");
    }
  });
  log_line(LogLevel::Info, "lockorder", "outer");
  set_log_sink({});
  set_log_level(old_level);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "outer");
  EXPECT_EQ(lines[1], "from-sink");
}

// health_monitor.cpp once ran watermark probes under its mutex, so a probe
// reading any monitor accessor self-deadlocked. Probes are now sampled
// with no lock held; a probe that calls back into the monitor must see an
// empty held stack and not abort.
TEST_F(LockOrderTest, WatermarkProbeMayReadMonitorAccessors) {
  monitor::HealthMonitor::Config cfg;
  cfg.capture_logs = false;  // leave the global log sink alone
  monitor::HealthMonitor mon(cfg);
  mon.add_watermark("events", "monitor", "e2e", [&] {
    EXPECT_EQ(lockrank::held_count(), 0u);  // sampled outside m_
    return double(mon.events_seen());       // re-enters the monitor's mutex
  });
  telemetry::MonitorEvent ev;
  ev.component = "net";
  ev.kind = "delivery";
  ev.target = "lan";
  ev.ok = true;
  ev.t = 1.0;
  mon.on_event(ev);
  ev.t = 2.0;
  mon.on_event(ev);  // monotone probe: watermark rises, nothing trips
  EXPECT_EQ(mon.events_seen(), 2u);
  EXPECT_TRUE(mon.active_alerts().empty());
}

// serve::Frontend once updated tenant queue-depth gauges (and read the
// injected clock) while holding its scheduler mutex. Drive real renders
// with telemetry enabled and enforcement on: the full serve lock chain
// frontend(550) -> ticket(540) -> cache(530) -> flight(520) -> tiled(510)
// must descend strictly, and the emit/clock paths must hold no lock that
// makes the telemetry mutexes (210/220) a violation.
TEST_F(LockOrderTest, ServeStackRendersUnderEnforcementWithTelemetry) {
  auto& tel = telemetry::global();
  const bool was_enabled = tel.enabled();
  tel.set_enabled(true);
  {
    access::TiledService tiled;
    tiled.register_volume(
        "vol", std::make_shared<const data::MultiscaleVolume>(
                   data::MultiscaleVolume::build(tomo::shepp_logan_3d(16),
                                                 /*levels=*/2, /*chunk=*/8)));
    serve::FrontendConfig cfg;
    cfg.concurrency = 2;
    std::atomic<double> now{100.0};
    cfg.clock = [&now] { return now.load(); };  // lock-free read (contract)
    serve::Frontend fe(tiled, cfg);
    for (std::size_t i = 0; i < 8; ++i) {
      serve::SliceRequest r;
      r.tenant = i % 2 == 0 ? "a" : "b";
      r.volume = "vol";
      r.level = 0;
      r.axis = 0;
      r.index = i % 16;
      auto res = fe.get(r);
      ASSERT_TRUE(res.ok()) << res.error().code;
    }
  }
  tel.set_enabled(was_enabled);
}

}  // namespace
}  // namespace alsflow
