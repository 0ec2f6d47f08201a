// Golden resilience suite: one scenario per failure mode, each asserting
// (a) the campaign completes with zero lost scans, (b) latency inflation
// stays bounded, and (c) the outcome is byte-identical for a fixed seed —
// chaos events live on the sim clock and all randomness is seeded, so the
// fault schedule interleaves with the workload reproducibly regardless of
// host threading (the TSan CI leg runs this suite to prove it). The seeded
// sweeps check the zero-lost-scans invariants over 100 random fault
// schedules per policy and over a crash at every 10 s of a campaign, and
// over 50 random schedules per policy on a sched::FleetWorld; every sweep
// also checks that each fault it armed landed on a bound component.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/scenario.hpp"
#include "pipeline/facility.hpp"
#include "sched/campaign.hpp"

namespace alsflow::chaos {
namespace {

using pipeline::Facility;
using pipeline::FacilityConfig;
using pipeline::ScanOptions;
using pipeline::ScanOutcome;

// A cropped scan (~1.3 GB raw) keeps transfers and recon jobs short while
// exercising every branch. Fixed geometry: scan content must not vary
// between the baseline and chaos runs of one test.
data::ScanMetadata small_scan(std::size_t index) {
  data::ScanMetadata m;
  char id[32];
  std::snprintf(id, sizeof id, "scan-%03zu", index);
  m.scan_id = id;
  m.sample_name = "chaos-sample";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.rows = 512;
  m.cols = 2560;
  m.n_angles = 500;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

struct Rig {
  Facility fac;
  ChaosEngine chaos;

  explicit Rig(std::uint64_t seed = 42, const char* policy = "static_dual")
      : fac(make_config(seed, policy)), chaos(fac.engine()) {
    fac.bind_chaos(chaos);
  }

  static FacilityConfig make_config(std::uint64_t seed, const char* policy) {
    FacilityConfig cfg;
    cfg.seed = seed;
    cfg.policy = policy;
    cfg.background_utilization = 0.0;  // keep queue waits deterministic-fast
    return cfg;
  }

  // Submit `n` scans at a fixed cadence and run the engine dry. Returns
  // the per-scan outcomes (all futures are resolved after run()).
  std::vector<ScanOutcome> run_scans(int n, Seconds interval) {
    std::vector<sim::Future<ScanOutcome>> futs;
    futs.reserve(std::size_t(n));
    ScanOptions options;
    options.streaming = false;
    options.archive = false;
    for (int i = 0; i < n; ++i) {
      fac.engine().schedule_at(double(i) * interval, [this, &futs, i,
                                                      options] {
        futs.push_back(
            fac.process_scan(small_scan(std::size_t(i)), options));
      });
    }
    fac.engine().run();
    std::vector<ScanOutcome> out;
    for (auto& f : futs) {
      EXPECT_TRUE(f.done());
      out.push_back(f.value());
    }
    return out;
  }
};

Seconds makespan(const std::vector<ScanOutcome>& outcomes) {
  Seconds m = 0.0;
  for (const auto& o : outcomes) m = std::max(m, o.finished_at);
  return m;
}

// Zero lost scans, asserted at the outcome level: both static_dual
// attempts of every scan (NERSC and ALCF) reached Completed.
void expect_all_completed(const std::vector<ScanOutcome>& outcomes) {
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.new_file_status.ok())
        << o.scan.scan_id << ": " << o.new_file_status.error().code;
    EXPECT_TRUE(o.recon.completed) << o.scan.scan_id;
    ASSERT_EQ(o.recon.attempts.size(), 2u) << o.scan.scan_id;
    for (const auto& a : o.recon.attempts) {
      EXPECT_EQ(a.result, "completed") << o.scan.scan_id << " @ " << a.facility;
    }
  }
}

// Zero lost scans, asserted at the database level (the crash scenario's
// original futures legitimately resolve non-terminal; what matters is that
// *some* run of each flow completed for every scan).
void expect_all_completed_in_db(Facility& fac, int n) {
  auto& db = fac.run_db();
  for (const char* flow_name :
       {"new_file_832", "nersc_recon_flow", "alcf_recon_flow"}) {
    for (int i = 0; i < n; ++i) {
      char id[32];
      std::snprintf(id, sizeof id, "scan-%03d", i);
      bool completed = false;
      for (const auto& run : db.runs(flow_name)) {
        if (run.parameters == id && run.state == flow::RunState::Completed) {
          completed = true;
        }
      }
      EXPECT_TRUE(completed) << flow_name << " never completed for " << id;
    }
  }
}

// Byte-determinism digest: the full observable outcome of a run — run DB
// records, task records, transfer history, and the injection log.
std::string digest(Rig& rig) {
  std::string out;
  char buf[256];
  auto& db = rig.fac.run_db();
  for (const auto& run : db.runs()) {
    std::snprintf(buf, sizeof buf, "R|%s|%s|%s|%s|%.9g|%.9g|%.9g|%d|%s\n",
                  run.id.c_str(), run.flow_name.c_str(),
                  run.parameters.c_str(), flow::run_state_name(run.state),
                  run.created_at, run.started_at, run.finished_at,
                  run.retries, run.error.c_str());
    out += buf;
  }
  for (const auto& t : db.task_records()) {
    std::snprintf(buf, sizeof buf, "T|%s|%s|%s|%d|%.9g|%.9g|%s|%s\n",
                  t.flow_run_id.c_str(), t.task_name.c_str(),
                  flow::run_state_name(t.state), t.attempts, t.started_at,
                  t.finished_at, t.error.c_str(), t.idempotency_key.c_str());
    out += buf;
  }
  for (const auto& h : rig.fac.globus().history()) {
    std::snprintf(buf, sizeof buf, "X|%s|%s|%zu|%zu|%zu|%d|%.9g|%.9g\n",
                  h.label.c_str(),
                  h.status.ok() ? "ok" : h.status.error().code.c_str(),
                  h.files_ok, h.files_failed, h.files_stranded, h.retries,
                  h.submitted_at, h.finished_at);
    out += buf;
  }
  for (const auto& f : rig.chaos.log()) {
    std::snprintf(buf, sizeof buf, "C|%.9g|%s|%s|%g|%d|%d\n", f.at,
                  fault_kind_name(f.kind), f.target.c_str(), f.magnitude,
                  int(f.applied), int(f.revert));
    out += buf;
  }
  return out;
}

constexpr int kScans = 4;
constexpr Seconds kInterval = 120.0;

Seconds baseline_makespan() {
  // Fault-free reference campaign, same seed and scan set as every
  // scenario below. Computed once; the sim is deterministic.
  static const Seconds base = [] {
    Rig rig;
    return makespan(rig.run_scans(kScans, kInterval));
  }();
  return base;
}

// ---------------------------------------------------------------------------
// Golden scenarios, one per failure mode
// ---------------------------------------------------------------------------

TEST(ChaosGolden, FacilityOutageRidesOutAsQueueWait) {
  Rig rig;
  Scenario s;
  s.name = "nersc_maintenance";
  s.events = {{FaultKind::FacilityOutage, 60.0, 600.0, "nersc", 0.0}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  EXPECT_EQ(rig.chaos.applied_count(), 1u);
  // Submissions held for the window surface as queue wait, never failure:
  // inflation is bounded by the window plus the retry envelope.
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 600.0 + 600.0);
}

TEST(ChaosGolden, LinkBlackoutStallsTransfersWithoutFailingThem) {
  Rig rig;
  Scenario s;
  s.name = "esnet_routing_flap";
  s.events = {{FaultKind::LinkBlackout, 60.0, 300.0, "esnet-nersc", 0.0}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  // A blackout stalls transfers byte-for-byte; nothing is failed, so no
  // retries are burned on it and inflation is bounded by the window.
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 300.0 + 600.0);
  EXPECT_DOUBLE_EQ(rig.fac.esnet_nersc().bandwidth_factor(), 1.0);  // reverted
}

TEST(ChaosGolden, WanDegradationBoundedInflation) {
  Rig rig;
  Scenario s;
  s.name = "esnet_degraded";
  s.events = {{FaultKind::LinkDegradation, 30.0, 600.0, "esnet-alcf", 0.2}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  // At 20% capacity a transfer takes 5x as long, but only transfer time
  // inside the window inflates.
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 600.0 + 600.0);
}

TEST(ChaosGolden, TransientAndCorruptionBurstsRetryThrough) {
  Rig rig;
  Scenario s;
  s.name = "globus_fault_burst";
  s.events = {{FaultKind::TransientBurst, 30.0, 400.0, "", 0.3},
              {FaultKind::CorruptionBurst, 30.0, 400.0, "", 0.3}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  // The burst really bit: some file needed a resend, and the service's
  // exponential-backoff retry machinery absorbed all of it.
  int total_retries = 0;
  for (const auto& h : rig.fac.globus().history()) total_retries += h.retries;
  EXPECT_GT(total_retries, 0);
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 1200.0);
}

TEST(ChaosGolden, PermissionBurstRecoversViaRetry) {
  Rig rig;
  Scenario s;
  s.name = "cfs_permission_incident";
  s.events = {{FaultKind::PermissionBurst, 40.0, 120.0, "nersc-cfs", 0.0}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 120.0 + 900.0);
}

TEST(ChaosGolden, ShortPermissionBurstLosesNoReplica) {
  // One 180 s burst on either filesystem fails the replica of the first
  // scan writing there (the shrunk case of the random sweep below). The
  // replica is relaunched at its own site, so no scan is lost.
  for (const char* endpoint : {"nersc-cfs", "alcf-eagle"}) {
    SCOPED_TRACE(endpoint);
    Rig rig;
    Scenario s;
    s.name = "short_permission_burst";
    s.events = {{FaultKind::PermissionBurst, 60.0, 180.0, endpoint, 0.0}};
    rig.chaos.arm(s);
    const auto outcomes = rig.run_scans(8, 180.0);
    std::size_t denied = 0;
    for (const auto& o : outcomes) {
      EXPECT_TRUE(o.recon.completed) << o.scan.scan_id;
      for (const auto& a : o.recon.attempts) {
        EXPECT_NE(a.facility, "cloud") << o.scan.scan_id;
        if (a.result == "failed:permission_denied") ++denied;
      }
    }
    EXPECT_GT(denied, 0u);  // the burst really failed a replica
    EXPECT_EQ(rig.fac.scheduler().scans_lost(), 0u);
  }
}

TEST(ChaosGolden, RecallLatencySpikeBoundedInflation) {
  Rig rig;
  Scenario s;
  s.name = "hpss_recall_queue";
  s.events = {{FaultKind::RecallLatencySpike, 30.0, 600.0, "esnet-nersc",
               45.0}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
  // Each delivery inside the window pays the 45 s recall, nothing more.
  EXPECT_LE(makespan(outcomes), baseline_makespan() + 600.0 + 600.0);
  EXPECT_DOUBLE_EQ(rig.fac.esnet_nersc().extra_latency(), 0.0);  // reverted
}

TEST(ChaosGolden, EngineCrashReplayCompletesCampaign) {
  Rig rig;
  Scenario s;
  s.name = "orchestrator_crash";
  s.events = {{FaultKind::EngineCrash, 300.0, 120.0, "", 0.0}};
  rig.chaos.arm(s);

  // Snapshot, just after the crash lands, which idempotency keys the
  // database already records as complete and how often each had actually
  // executed. Replay must never re-execute any of them.
  std::map<std::string, int> executed_at_crash;
  rig.fac.engine().schedule_at(300.5, [&] {
    for (const auto& t : rig.fac.run_db().task_records()) {
      if (t.state == flow::RunState::Completed && t.attempts > 0 &&
          !t.idempotency_key.empty()) {
        ++executed_at_crash[t.idempotency_key];
      }
    }
  });

  auto outcomes = rig.run_scans(kScans, kInterval);
  (void)outcomes;  // original futures may resolve non-terminal: see below

  // The crash fired and replay ran.
  ASSERT_TRUE(rig.chaos.last_replay().has_value());
  const flow::ReplayReport& report = *rig.chaos.last_replay();
  EXPECT_GT(report.keys_restored, 0u);
  EXPECT_GT(report.runs_cancelled, 0u);

  // Zero lost scans: every flow of every scan completed in the database
  // (via the original run, a parked submission, or a replay resubmission).
  expect_all_completed_in_db(rig.fac, kScans);

  // No task the database recorded as complete before the crash was
  // re-executed afterwards: its executed-record count is unchanged.
  std::map<std::string, int> executed_final;
  for (const auto& t : rig.fac.run_db().task_records()) {
    if (t.state == flow::RunState::Completed && t.attempts > 0 &&
        !t.idempotency_key.empty()) {
      ++executed_final[t.idempotency_key];
    }
  }
  ASSERT_FALSE(executed_at_crash.empty());  // the crash hit a live campaign
  for (const auto& [key, count] : executed_at_crash) {
    EXPECT_EQ(executed_final[key], count)
        << "completed task re-executed after replay: " << key;
  }
}

TEST(ChaosGolden, DatabaseLossDegradesReplayToAtLeastOnce) {
  // Lose the task ledger, then crash: replay finds flow-run records (so it
  // knows what was interrupted) but no completed-task keys, so recovery
  // re-executes interrupted flows from scratch instead of skipping
  // completed tasks. Slower, but still zero lost scans.
  Rig rig;
  Scenario s;
  s.name = "db_volume_loss_then_crash";
  s.events = {{FaultKind::DatabaseLoss, 290.0, 0.0, "", 0.0},
              {FaultKind::EngineCrash, 300.0, 120.0, "", 0.0}};
  rig.chaos.arm(s);

  // How many completed-task keys existed just before the loss: all of
  // them vanish, so replay can restore at most what completed *during*
  // the halt window (tasks in flight at the crash still record when they
  // finish — the work durably happened).
  std::size_t completed_before_loss = 0;
  rig.fac.engine().schedule_at(289.0, [&] {
    for (const auto& t : rig.fac.run_db().task_records()) {
      if (t.state == flow::RunState::Completed) ++completed_before_loss;
    }
  });

  auto outcomes = rig.run_scans(kScans, kInterval);
  (void)outcomes;  // crash: original futures may resolve non-terminal
  ASSERT_TRUE(rig.chaos.last_replay().has_value());
  ASSERT_GT(completed_before_loss, 0u);  // the loss destroyed real state
  EXPECT_LT(rig.chaos.last_replay()->keys_restored, completed_before_loss);
  EXPECT_GT(rig.chaos.last_replay()->runs_resubmitted, 0u);
  expect_all_completed_in_db(rig.fac, kScans);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ChaosDeterminism, SameSeedSameScenarioIsByteIdentical) {
  // Two fresh worlds, same seed, same scenario (including a crash):
  // identical run DB, transfer history, and injection log, byte for byte.
  auto run_once = [] {
    Rig rig(1234);
    Scenario s;
    s.name = "determinism_probe";
    s.events = {{FaultKind::TransientBurst, 30.0, 300.0, "", 0.25},
                {FaultKind::LinkDegradation, 100.0, 300.0, "esnet-nersc",
                 0.25},
                {FaultKind::EngineCrash, 300.0, 120.0, "", 0.0}};
    rig.chaos.arm(s);
    rig.run_scans(kScans, kInterval);
    return digest(rig);
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(ChaosDeterminism, RandomScenarioGeneratorIsSeeded) {
  RandomScenarioConfig cfg;
  cfg.links = {"esnet-nersc", "esnet-alcf"};
  cfg.facilities = {"nersc", "alcf"};
  cfg.endpoints = {"nersc-cfs"};
  cfg.n_events = 8;
  const Scenario a = make_random_scenario(99, cfg);
  const Scenario b = make_random_scenario(99, cfg);
  const Scenario c = make_random_scenario(100, cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
    EXPECT_DOUBLE_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_DOUBLE_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  // A different seed draws a different schedule.
  bool differs = a.events.size() != c.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].kind != c.events[i].kind ||
              a.events[i].at != c.events[i].at;
  }
  EXPECT_TRUE(differs);
  // Events are sorted by start time.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].at, a.events[i].at);
  }
}

TEST(ChaosDeterminism, RandomScenarioCampaignCompletes) {
  // A seeded-random scenario (no crash, component faults only) thrown at
  // the campaign: still zero lost scans.
  Rig rig;
  RandomScenarioConfig cfg;
  cfg.horizon = 900.0;
  cfg.n_events = 5;
  cfg.max_duration = 180.0;
  cfg.links = {"esnet-nersc", "esnet-alcf"};
  cfg.facilities = {"nersc", "alcf"};
  rig.chaos.arm(make_random_scenario(7, cfg));
  auto outcomes = rig.run_scans(kScans, kInterval);
  expect_all_completed(outcomes);
}

// ---------------------------------------------------------------------------
// Seeded sweeps: many fault schedules, the same invariants
// ---------------------------------------------------------------------------

// ChaosEngine skips a fault whose target was never bound, so a sweep over
// it would pass without testing anything.
void add_unapplied(const ChaosEngine& chaos, std::vector<std::string>* out) {
  for (const InjectedFault& f : chaos.log()) {
    if (!f.applied) {
      out->push_back(std::string(fault_kind_name(f.kind)) + " on '" +
                     f.target + "' not applied");
    }
  }
}

// Runs 8 scans 180 s apart under `policy` with `scenario` armed, and lists
// every invariant broken at quiescence: a scan lost or its recon not
// completed, a flow run left non-terminal, a placement still in flight, a
// fault not applied.
std::vector<std::string> sweep_violations(const char* policy,
                                          const Scenario& scenario) {
  Rig rig(42, policy);
  rig.chaos.arm(scenario);
  std::vector<std::string> out;
  for (const auto& o : rig.run_scans(8, 180.0)) {
    if (!o.recon.completed) out.push_back(o.scan.scan_id + " not completed");
  }
  if (rig.fac.scheduler().scans_lost() != 0) out.push_back("a scan was lost");
  for (const auto& run : rig.fac.run_db().runs()) {
    if (!flow::is_terminal(run.state)) {
      out.push_back(run.flow_name + " run " + run.id + " left " +
                    flow::run_state_name(run.state));
    }
  }
  for (const auto& f : rig.fac.directory().snapshot(rig.fac.engine().now())) {
    if (f.inflight_placements != 0) out.push_back(f.name + " in flight");
  }
  add_unapplied(rig.chaos, &out);
  return out;
}

// The same invariants on an 8-beamline x 32-scan fleet, whose sites take
// the faults through FleetWorld's own chaos binding.
std::vector<std::string> fleet_sweep_violations(const char* policy,
                                                const Scenario& scenario) {
  sched::FleetCampaignConfig cfg;
  cfg.beamlines = 8;
  cfg.scans_per_beamline = 32;
  cfg.policy = policy;
  cfg.scenario = scenario;
  sched::FleetWorld world(cfg);
  const sched::FleetCampaignReport rep = world.run();
  std::vector<std::string> out;
  if (rep.completed != rep.offered) {
    out.push_back(std::to_string(rep.completed) + " of " +
                  std::to_string(rep.offered) + " scans completed");
  }
  for (const sched::Shard& shard : world.shards()) {
    if (shard.scheduler.scans_lost() != 0) out.push_back("a scan was lost");
    for (const auto& run : shard.db.runs()) {
      if (!flow::is_terminal(run.state)) {
        out.push_back(run.parameters + " " + run.flow_name + " run " +
                      run.id + " left " + flow::run_state_name(run.state));
      }
    }
  }
  for (const auto& f : world.directory().snapshot(world.engine().now())) {
    if (f.inflight_placements != 0) out.push_back(f.name + " in flight");
  }
  add_unapplied(world.chaos(), &out);
  return out;
}

TEST(ChaosSweep, RandomScenariosLoseNothing) {
  RandomScenarioConfig cfg;
  cfg.horizon = 900.0;
  cfg.n_events = 6;
  cfg.min_duration = 30.0;
  cfg.max_duration = 300.0;
  cfg.links = {"esnet-nersc", "esnet-alcf"};
  cfg.facilities = {"nersc", "alcf"};
  cfg.endpoints = {"nersc-cfs", "alcf-eagle"};
  cfg.allow_transfer_faults = true;
  for (const char* policy : {"static_dual", "greedy", "round_robin"}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const Scenario s = make_random_scenario(seed, cfg);
      for (const std::string& v : sweep_violations(policy, s)) {
        ADD_FAILURE() << policy << ", seed " << seed << ": " << v;
      }
    }
  }
}

TEST(ChaosSweep, FleetRandomScenariosLoseNothing) {
  // Outages and path faults on every site and every ESnet link, from 30 s
  // to an hour long, starting anywhere in the 32 arrivals 60 s apart. The
  // fleet has no transfer service or storage endpoints to fault.
  RandomScenarioConfig cfg;
  cfg.horizon = 1920.0;
  cfg.min_duration = 30.0;
  cfg.max_duration = 3600.0;
  cfg.links = {"esnet-nersc", "esnet-alcf", "esnet-cloud"};
  cfg.facilities = {"nersc", "alcf", "cloud"};
  cfg.allow_transfer_faults = false;
  for (const char* policy : {"static_dual", "greedy", "round_robin", "hedged"}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const Scenario s = make_random_scenario(seed, cfg);
      for (const std::string& v : fleet_sweep_violations(policy, s)) {
        ADD_FAILURE() << policy << ", seed " << seed << ": " << v;
      }
    }
  }
}

TEST(ChaosSweep, EveryCrashPointCompletesEveryRecon) {
  for (const char* policy : {"static_dual", "greedy"}) {
    for (int t = 0; t <= 1800; t += 10) {
      Scenario s;
      s.name = "crash_point";
      s.events = {{FaultKind::EngineCrash, double(t), 120.0, "", 0.0}};
      for (const std::string& v : sweep_violations(policy, s)) {
        ADD_FAILURE() << policy << ", crash at t=" << t << ": " << v;
      }
    }
  }
}

TEST(ChaosEngineUnit, UnboundTargetIsSkippedNotFatal) {
  Rig rig;
  Scenario s;
  s.name = "typo";
  s.events = {{FaultKind::LinkBlackout, 10.0, 20.0, "no-such-link", 0.0}};
  rig.chaos.arm(s);
  auto outcomes = rig.run_scans(1, kInterval);
  expect_all_completed(outcomes);
  ASSERT_EQ(rig.chaos.log().size(), 2u);  // apply + revert, both skipped
  EXPECT_FALSE(rig.chaos.log()[0].applied);
  EXPECT_EQ(rig.chaos.applied_count(), 0u);
}

}  // namespace
}  // namespace alsflow::chaos
