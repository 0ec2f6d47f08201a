// Federated scheduler suite (DESIGN.md §17).
//
// Four layers, matching the subsystem's contracts:
//   policy units     — place() is a pure function of (scan, snapshot), so
//                      each decision rule is pinned against hand-built
//                      snapshots: static dual replication, rotation,
//                      cost-model ordering, blackout unreachability,
//                      sick-site avoidance, deadline-only hedging.
//   scheduler units  — a replicated placement relaunches a failed run at
//                      its own site only, and never hedges or fails over.
//   fleet campaigns  — a ≥1000-scan, 8-beamline campaign with dynamic
//                      placement completes with zero lost scans; a
//                      mid-campaign facility blackout still loses nothing
//                      (failover resubmission rides the idempotency
//                      ledger) and the whole faulted campaign is
//                      byte-identical across runs (the digest pins it).
//   allocation budget — operator new calls per simulated scan stay within
//                      budget on bench_sim_engine's rigs
//                      (bench/sim_engine_rigs.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/scenario.hpp"
#include "common/units.hpp"
#include "flow/run_db.hpp"
#include "hpc/cloud.hpp"
#include "pipeline/facility.hpp"
#include "sim/engine.hpp"
#include "sched/campaign.hpp"
#include "sched/directory.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim_engine_rigs.hpp"

namespace alsflow::sched {
namespace {

// ---------------------------------------------------------------------------
// Policy units
// ---------------------------------------------------------------------------

FacilityState make_state(const std::string& name, Seconds queue_wait_p50,
                         Seconds exec_mean, std::size_t inflight,
                         double capacity) {
  FacilityState s;
  s.name = name;
  s.flow_name = "recon_" + name;
  s.available = true;
  s.health = 1.0;
  s.queue.queue_wait_p50 = queue_wait_p50;
  s.queue.exec_mean = exec_mean;
  s.queue.completed = 1;
  s.has_link = true;
  s.link_bps = gbps(10.0);
  s.link_latency = 0.03;
  s.capacity_hint = capacity;
  s.inflight_placements = inflight;
  return s;
}

ScanRequest small_request(Seconds deadline = 0.0) {
  ScanRequest r;
  r.scan_id = "scan-unit";
  r.raw_bytes = Bytes(1) << 30;  // 1 GiB out
  r.recon_bytes = Bytes(1) << 30;
  r.nz = 512;
  r.n = 1024;
  r.deadline = deadline;
  return r;
}

TEST(StaticDualPolicy, PlacesBothDoeSitesWhateverTheirState) {
  StaticDualPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6),
                                     make_state("cloud", 0, 10, 0, 16)};
  snap[0].available = false;  // dark
  snap[0].link_bps = 0.0;     // and blacked out
  snap[1].health = 0.05;      // sick
  // A deadline scan: hedging policies would buy a backup, this one never.
  Placement p = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(p.primary, "nersc");
  EXPECT_EQ(p.replicas, (std::vector<std::string>{"alcf"}));
  EXPECT_EQ(p.hedge, "");
  EXPECT_EQ(p.hedge_delay, 0.0);
}

TEST(StaticDualPolicy, SkipsASiteMissingFromTheSnapshot) {
  StaticDualPolicy policy;
  // Snapshot order does not matter: NERSC is always the primary.
  Placement both = policy.place(small_request(),
                                {make_state("alcf", 10, 100, 0, 6),
                                 make_state("nersc", 10, 100, 0, 8)});
  EXPECT_EQ(both.primary, "nersc");
  EXPECT_EQ(both.replicas, (std::vector<std::string>{"alcf"}));

  Placement alcf_only = policy.place(small_request(),
                                     {make_state("cloud", 10, 100, 0, 16),
                                      make_state("alcf", 10, 100, 0, 6)});
  EXPECT_EQ(alcf_only.primary, "alcf");
  EXPECT_TRUE(alcf_only.replicas.empty());

  EXPECT_EQ(policy.place(small_request(),
                         {make_state("cloud", 10, 100, 0, 16)})
                .primary,
            "");
}

TEST(RoundRobinPolicy, RotatesOverAvailableSitesOnly) {
  RoundRobinPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6),
                                     make_state("cloud", 10, 100, 0, 16)};
  snap[1].available = false;  // alcf dark: rotation must skip it

  std::vector<std::string> picks;
  for (int i = 0; i < 4; ++i) {
    picks.push_back(policy.place(small_request(), snap).primary);
  }
  EXPECT_EQ(picks,
            (std::vector<std::string>{"nersc", "cloud", "nersc", "cloud"}));
}

TEST(RoundRobinPolicy, NothingAvailablePlacesNothing) {
  RoundRobinPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 0, 0, 0, 1)};
  snap[0].available = false;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "");
  EXPECT_EQ(policy.place(small_request(), {}).primary, "");
}

TEST(GreedyPolicy, PicksLowestPredictedTurnaround) {
  GreedyPolicy policy;
  // Same link and capacity; alcf has the shorter queue.
  std::vector<FacilityState> snap = {make_state("nersc", 500, 200, 0, 8),
                                     make_state("alcf", 20, 200, 0, 8)};
  Placement p = policy.place(small_request(), snap);
  EXPECT_EQ(p.primary, "alcf");
  EXPECT_EQ(p.hedge, "");  // greedy never hedges
  EXPECT_LT(policy.predicted_turnaround(small_request(), snap[1]),
            policy.predicted_turnaround(small_request(), snap[0]));
}

TEST(GreedyPolicy, CongestionSteersAwayFromBackloggedSite) {
  GreedyPolicy policy;
  // Identical sites except nersc already carries 16 in-flight placements
  // against 8 slots: join-shortest-queue must route elsewhere.
  std::vector<FacilityState> snap = {make_state("nersc", 10, 300, 16, 8),
                                     make_state("alcf", 10, 300, 0, 8)};
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");
}

TEST(GreedyPolicy, BlackedOutLinkIsUnreachable) {
  GreedyPolicy policy;
  // nersc is otherwise far better, but its WAN path factor is 0.
  std::vector<FacilityState> snap = {make_state("nersc", 0, 60, 0, 8),
                                     make_state("alcf", 900, 900, 4, 2)};
  snap[0].link_bps = 0.0;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");
}

TEST(GreedyPolicy, SickSiteLosesToHealthyButStillPlaceable) {
  GreedyPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 60, 0, 8),
                                     make_state("alcf", 600, 600, 0, 6)};
  snap[0].health = 0.1;  // below min_health: behind every healthy site
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");

  // When every site is sick the least-bad one is still used — refusing to
  // place would lose the scan.
  snap[1].health = 0.1;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "nersc");
}

TEST(HedgedPolicy, HedgesOnlyDeadlineScans) {
  HedgedPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 50, 100, 0, 6)};
  Placement no_deadline = policy.place(small_request(0.0), snap);
  EXPECT_EQ(no_deadline.primary, "nersc");
  EXPECT_EQ(no_deadline.hedge, "");

  Placement with_deadline = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(with_deadline.primary, "nersc");
  EXPECT_EQ(with_deadline.hedge, "alcf");
  EXPECT_GE(with_deadline.hedge_delay, 120.0);  // min_hedge_delay floor
}

TEST(HedgedPolicy, NoHedgeWithoutAReachableRunnerUp) {
  HedgedPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6)};
  snap[1].link_bps = 0.0;  // runner-up blacked out: hedging it is pointless
  Placement p = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(p.primary, "nersc");
  EXPECT_EQ(p.hedge, "");

  Placement solo = policy.place(small_request(3600.0),
                                {make_state("nersc", 10, 100, 0, 8)});
  EXPECT_EQ(solo.primary, "nersc");
  EXPECT_EQ(solo.hedge, "");
}

TEST(PolicyFactory, ShippedNamesResolveUnknownIsNull) {
  EXPECT_NE(make_policy("round_robin"), nullptr);
  EXPECT_NE(make_policy("greedy"), nullptr);
  EXPECT_NE(make_policy("hedged"), nullptr);
  EXPECT_NE(make_policy("static_dual"), nullptr);
  EXPECT_EQ(make_policy("oracle"), nullptr);
}

TEST(FacilityDirectory, InflightAccountingAndSnapshotOrder) {
  // Real adapters (the directory reads availability + queue stats straight
  // from them); the cloud adapter is the lightest to stand up.
  sim::Engine eng;
  hpc::CloudBurstAdapter adapter_a(eng, hpc::ComputeModel{});
  hpc::CloudBurstAdapter adapter_b(eng, hpc::ComputeModel{});

  FacilityDirectory dir;
  FacilityInfo a;
  a.name = "nersc";
  a.flow_name = "recon_nersc";
  a.adapter = &adapter_a;
  dir.add(std::move(a));
  FacilityInfo b;
  b.name = "alcf";
  b.flow_name = "recon_alcf";
  b.adapter = &adapter_b;
  dir.add(std::move(b));

  EXPECT_TRUE(dir.has("nersc"));
  EXPECT_FALSE(dir.has("cloud"));
  EXPECT_EQ(dir.flow_for("alcf"), "recon_alcf");
  EXPECT_EQ(dir.flow_for("cloud"), "");

  dir.note_placed("nersc");
  dir.note_placed("nersc");
  dir.note_finished("nersc");
  EXPECT_EQ(dir.inflight("nersc"), 1u);
  EXPECT_EQ(dir.inflight("alcf"), 0u);

  // Registration order is the snapshot order (deterministic tie-breaks).
  auto snap = dir.snapshot(0.0);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "nersc");
  EXPECT_EQ(snap[1].name, "alcf");
  EXPECT_EQ(snap[0].inflight_placements, 1u);
  EXPECT_FALSE(snap[0].has_link);  // no WAN path registered
}

// A duplicate or adapterless site is a configuration error: it stops the
// run in every build type, not only where asserts are compiled in.
TEST(FacilityDirectory, BadEntryAbortsInEveryBuild) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Engine eng;
  hpc::CloudBurstAdapter adapter(eng, hpc::ComputeModel{});
  FacilityDirectory dir;
  FacilityInfo info;
  info.name = "nersc";
  info.flow_name = "recon_nersc";
  EXPECT_DEATH(dir.add(info), "facility 'nersc' has no adapter");
  info.adapter = &adapter;
  dir.add(info);
  EXPECT_DEATH(dir.add(info), "facility 'nersc' registered twice");
  while (dir.facilities().size() < FacilityDirectory::kMaxFacilities) {
    info.name = "site-" + std::to_string(dir.facilities().size());
    dir.add(info);
  }
  EXPECT_EQ(dir.site_bit("nersc"), 1u);
  EXPECT_EQ(dir.site_bit("site-63"), std::uint64_t(1) << 63);
  EXPECT_EQ(dir.site_bit("unknown"), 0u);
  info.name = "site-64";
  EXPECT_DEATH(dir.add(info), "facility 'site-64' is past the site limit");
}

// ---------------------------------------------------------------------------
// Scheduler units: replicated placement
// ---------------------------------------------------------------------------

// Flow body for scheduler units: finishes `dt` after it starts, failing
// with `error_code` unless that is null. Pointer and scalar parameters
// only (astcheck coroutine-ref-param; GCC 12 prvalue arguments).
sim::Future<Status> finish_after(sim::Engine* eng, Seconds dt,
                                 const char* error_code) {
  co_await sim::delay(*eng, dt);
  if (error_code != nullptr) co_return Error::make(error_code, "test flow");
  co_return Status::success();
}

// nersc, alcf and cloud sites whose recon flows end after fixed delays.
// A site's first `failing_runs` runs fail with `error` (nullptr = every
// run succeeds). The cloud site is an untried failover target that a
// replicated placement must never use.
struct ReplicaRig {
  struct Site {
    const char* name;
    Seconds dt;
    const char* error;
    int failing_runs = 1 << 30;
  };

  explicit ReplicaRig(std::vector<Site> sites, SchedulerConfig cfg = {})
      : shard(eng, dir, "static_dual", cfg) {
    for (const Site& site : sites) {
      adapters.push_back(
          std::make_unique<hpc::CloudBurstAdapter>(eng, hpc::ComputeModel{}));
      FacilityInfo info;
      info.name = site.name;
      info.flow_name = std::string("recon_") + site.name;
      info.adapter = adapters.back().get();
      dir.add(info);
      sim::Engine* e = &eng;
      auto runs = std::make_shared<int>(0);
      shard.flows.register_flow(
          info.flow_name, [e, site, runs](flow::FlowContext) {
            const bool fail = (*runs)++ < site.failing_runs;
            return finish_after(e, site.dt, fail ? site.error : nullptr);
          });
    }
  }

  ScanResult run_one() {
    auto fut = shard.scheduler.submit(small_request());
    eng.run();
    return fut.value();
  }

  sim::Engine eng;
  std::vector<std::unique_ptr<hpc::CloudBurstAdapter>> adapters;
  FacilityDirectory dir;
  Shard shard;
};

TEST(ReplicatedPlacement, FailedReplicaIsRelaunchedOnlyAtItsSite) {
  ReplicaRig rig({{"nersc", 10.0, "permission_denied"},
                  {"alcf", 50.0, nullptr},
                  {"cloud", 5.0, nullptr}});
  const ScanResult res = rig.run_one();
  const std::size_t budget = std::size_t(SchedulerConfig{}.max_attempts);

  EXPECT_FALSE(res.completed);  // every replica must complete
  EXPECT_EQ(res.facility, "");
  // nersc's loop re-places each failure at once until the launch budget is
  // spent; the attempts are listed site by site.
  ASSERT_EQ(res.attempts.size(), budget + 1);
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(res.attempts[i].facility, "nersc");
    EXPECT_EQ(res.attempts[i].result, "failed:permission_denied");
    EXPECT_DOUBLE_EQ(res.attempts[i].launched_at, 10.0 * double(i));
    EXPECT_DOUBLE_EQ(res.attempts[i].finished_at, 10.0 * double(i + 1));
  }
  EXPECT_EQ(res.attempts[budget].facility, "alcf");
  EXPECT_EQ(res.attempts[budget].result, "completed");
  EXPECT_DOUBLE_EQ(res.turnaround(), 10.0 * double(budget));
  // Relaunched at its own site, never elsewhere.
  EXPECT_EQ(rig.shard.db.runs("recon_nersc").size(), budget);
  EXPECT_EQ(rig.shard.db.runs("recon_alcf").size(), 1u);
  EXPECT_TRUE(rig.shard.db.runs("recon_cloud").empty());
  EXPECT_EQ(rig.shard.scheduler.hedges_launched(), 0u);
  // One scan, counted once.
  EXPECT_EQ(rig.shard.scheduler.scans_submitted(), 1u);
  EXPECT_EQ(rig.shard.scheduler.scans_completed(), 0u);
  EXPECT_EQ(rig.shard.scheduler.scans_lost(), 1u);
  EXPECT_EQ(rig.dir.inflight("nersc"), 0u);
  EXPECT_EQ(rig.dir.inflight("alcf"), 0u);
}

TEST(ReplicatedPlacement, RelaunchedReplicaCompletesTheScan) {
  ReplicaRig rig({{"nersc", 10.0, "permission_denied", 2},
                  {"alcf", 50.0, nullptr},
                  {"cloud", 5.0, nullptr}});
  const ScanResult res = rig.run_one();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.facility, "nersc");  // the primary
  ASSERT_EQ(res.attempts.size(), 4u);
  EXPECT_EQ(res.attempts[0].result, "failed:permission_denied");
  EXPECT_EQ(res.attempts[1].result, "failed:permission_denied");
  EXPECT_EQ(res.attempts[2].facility, "nersc");
  EXPECT_EQ(res.attempts[2].result, "completed");
  EXPECT_DOUBLE_EQ(res.attempts[2].finished_at, 30.0);
  EXPECT_EQ(res.attempts[3].facility, "alcf");
  EXPECT_EQ(res.attempts[3].result, "completed");
  EXPECT_DOUBLE_EQ(res.turnaround(), 50.0);
  const auto nersc_runs = rig.shard.db.runs("recon_nersc");
  ASSERT_EQ(nersc_runs.size(), 3u);
  EXPECT_EQ(res.flow_run_id, nersc_runs[2].id);  // the primary's winner
  EXPECT_TRUE(rig.shard.db.runs("recon_cloud").empty());
  EXPECT_EQ(rig.shard.scheduler.scans_submitted(), 1u);
  EXPECT_EQ(rig.shard.scheduler.scans_completed(), 1u);
  EXPECT_EQ(rig.shard.scheduler.scans_lost(), 0u);
}

TEST(ReplicatedPlacement, SlowReplicaLaunchesNoFailover) {
  SchedulerConfig cfg;
  cfg.failover_timeout = 100.0;  // nersc outlives it five times over
  ReplicaRig rig({{"nersc", 500.0, nullptr},
                  {"alcf", 50.0, nullptr},
                  {"cloud", 5.0, nullptr}},
                 cfg);
  const ScanResult res = rig.run_one();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.facility, "nersc");  // the primary
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(rig.shard.scheduler.failovers(), 0u);
  EXPECT_EQ(rig.shard.scheduler.hedges_launched(), 0u);
  EXPECT_FALSE(res.failed_over);
  EXPECT_TRUE(rig.shard.db.runs("recon_cloud").empty());
  // Each attempt keeps its own finish time.
  EXPECT_DOUBLE_EQ(res.attempts[0].finished_at, 500.0);
  EXPECT_DOUBLE_EQ(res.attempts[1].finished_at, 50.0);
  EXPECT_DOUBLE_EQ(res.turnaround(), 500.0);
  EXPECT_EQ(rig.dir.inflight("nersc"), 0u);
  EXPECT_EQ(rig.dir.inflight("alcf"), 0u);
}

// ---------------------------------------------------------------------------
// Facility integration: a dynamic FacilityConfig::policy
// ---------------------------------------------------------------------------

data::ScanMetadata facility_scan(const std::string& id) {
  data::ScanMetadata m;
  m.scan_id = id;
  m.sample_name = "sched-sample";
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

TEST(FacilityPolicy, GreedyMakesOneDecisionPerScan) {
  pipeline::FacilityConfig cfg;
  cfg.seed = 42;
  cfg.policy = "greedy";
  pipeline::Facility fac(cfg);

  std::vector<sim::Future<pipeline::ScanOutcome>> futs;
  pipeline::ScanOptions options;
  options.streaming = false;
  options.archive = false;
  for (int i = 0; i < 3; ++i) {
    fac.engine().schedule_at(double(i) * 180.0, [&fac, &futs, i, options] {
      futs.push_back(fac.process_scan(
          facility_scan("sched-scan-" + std::to_string(i)), options));
    });
  }
  fac.engine().run();

  ASSERT_EQ(futs.size(), 3u);
  for (auto& fut : futs) {
    ASSERT_TRUE(fut.done());
    const pipeline::ScanOutcome& out = fut.value();
    // Greedy places each scan at one site, not at both DOE sites.
    EXPECT_TRUE(out.recon.completed);
    ASSERT_EQ(out.recon.attempts.size(), 1u);
    EXPECT_TRUE(fac.directory().has(out.recon.facility));
    EXPECT_GT(out.recon.turnaround(), 0.0);
  }
  EXPECT_EQ(fac.scheduler().scans_completed(), 3u);
  EXPECT_EQ(fac.scheduler().scans_lost(), 0u);
}

TEST(FacilityPolicy, UnknownPolicyNameAbortsInEveryBuild) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  pipeline::FacilityConfig cfg;
  cfg.policy = "oracle";
  EXPECT_DEATH(pipeline::Facility fac(cfg),
               "unknown placement policy 'oracle'");
}

// Fleet policy names come from configs, so a bad one must stop the run in
// every build type, not only where asserts are compiled in.
TEST(FleetPolicy, UnknownPolicyNameAbortsInEveryBuild) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  FleetCampaignConfig cfg;
  cfg.policy = "oracle";
  EXPECT_DEATH(FleetWorld world(cfg), "unknown placement policy 'oracle'");
}

// ---------------------------------------------------------------------------
// Fleet campaigns
// ---------------------------------------------------------------------------

TEST(FleetCampaign, ThousandScansAcrossEightBeamlinesZeroLost) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 8;
  cfg.scans_per_beamline = 130;  // 1040 offered
  cfg.policy = "greedy";
  FleetCampaignReport rep = run_fleet_campaign(cfg);

  EXPECT_EQ(rep.offered, 1040u);
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_EQ(rep.lost, 0u);
  // Dynamic placement actually spreads load: more than one facility used.
  std::size_t used = 0, launches = 0;
  for (const auto& [facility, count] : rep.placements) {
    if (count > 0) ++used;
    launches += count;
  }
  EXPECT_GE(used, 2u);
  EXPECT_GE(launches, rep.offered);
  EXPECT_GT(rep.makespan, 0.0);
}

TEST(FleetCampaign, MidCampaignBlackoutLosesNothingAndReplaysExactly) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 8;
  cfg.scans_per_beamline = 16;  // 128 offered
  cfg.policy = "greedy";
  // Burst arrivals well past fleet capacity so every site carries a queue
  // when the fault lands — the outage then strands jobs *queued* at NERSC,
  // not just the narrow window of mid-submission scans.
  cfg.scan_interval = 10.0;
  // Aggressive failover so stalled placements re-route inside the test
  // horizon.
  cfg.scheduler.failover_timeout = 600.0;
  // NERSC goes dark mid-campaign for a full hour: placements already
  // in flight there stall (an outage reads as queue wait, never failure),
  // new placements avoid it via the availability gate, and the stalled
  // ones fail over after the timeout.
  cfg.scenario = {"nersc_blackout",
                  {{chaos::FaultKind::FacilityOutage, 120.0, 3600.0, "nersc",
                    0.0}}};

  FleetCampaignReport first = run_fleet_campaign(cfg);
  EXPECT_EQ(first.offered, 128u);
  EXPECT_EQ(first.completed, first.offered);
  EXPECT_EQ(first.lost, 0u) << "a facility blackout must never lose scans";
  EXPECT_GT(first.failovers, 0u)
      << "stalled placements must have re-routed somewhere";

  // Determinism under chaos: the same seed + fault schedule reproduces the
  // campaign byte-for-byte (same winners, same turnaround bits).
  FleetCampaignReport second = run_fleet_campaign(cfg);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.failovers, second.failovers);
  EXPECT_EQ(first.placements, second.placements);
}

TEST(FleetCampaign, HedgedPolicyCompletesDeadlineMix) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 4;
  cfg.scans_per_beamline = 24;
  cfg.policy = "hedged";
  cfg.deadline_every = 2;
  FleetCampaignReport rep = run_fleet_campaign(cfg);
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_EQ(rep.lost, 0u);
}

// ---------------------------------------------------------------------------
// Allocation budget
// ---------------------------------------------------------------------------
//
// The host cost of a simulated scan, in operator new calls, on the rigs
// bench_sim_engine runs at full size. The rigs read 27, 14 and 73; each
// bound leaves a few calls of headroom for another libstdc++. Each rig
// here runs in tens of milliseconds.

TEST(AllocationBudget, StaticDualRaceWithin33PerScan) {
  bench::SchedulerRaceRig rig("static_dual");
  EXPECT_LE(rig.allocations_per_scan(2000), 33.0);
  EXPECT_EQ(rig.completed(), 2000u);
}

TEST(AllocationBudget, GreedyRaceWithin20PerScan) {
  bench::SchedulerRaceRig rig("greedy");
  EXPECT_LE(rig.allocations_per_scan(2000), 20.0);
  EXPECT_EQ(rig.completed(), 2000u);
}

TEST(AllocationBudget, FleetCampaignWithin80PerScan) {
  const bench::FleetAllocations run =
      bench::fleet_allocations(bench::fleet_config(8, 128));
  EXPECT_LE(run.per_scan, 80.0);
  EXPECT_EQ(run.report.lost, 0u);
}

}  // namespace
}  // namespace alsflow::sched
