// Fleet-scale federated campaign: many beamlines, shared facilities, one
// scheduler decision per scan.
//
// FleetWorld builds the smallest world that exercises the whole sched
// stack at scale: the shared compute sites (sched::Sites: Slurm + SFAPI
// behind the NERSC adapter, a Globus Compute pilot pool behind the ALCF
// adapter, an elastic cloud-burst adapter, one ESnet link per site, and
// the FacilityDirectory over all of it) and one sched::Shard per beamline,
// so each beamline keeps its own run history, idempotency ledger and work
// pool. Each shard registers the same three-task recon flow per site
// (stage raw out -> reconstruct -> stage products back), parameterized by
// scan id, with idempotency keys so failover resubmission skips completed
// stages. Every scan goes through its shard's FederatedScheduler.
//
// The "static_dual" policy is the paper's baseline: every scan runs the
// NERSC *and* ALCF flows to completion (no decision, double the work) —
// the configuration the dynamic policies are benchmarked against in
// BENCH_sched_campaign.json.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "chaos/chaos_engine.hpp"
#include "chaos/scenario.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "hpc/adapter.hpp"
#include "sched/directory.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sched/sites.hpp"
#include "sim/engine.hpp"

namespace alsflow::sched {

struct FleetCampaignConfig {
  std::uint64_t seed = 42;
  int beamlines = 8;
  int scans_per_beamline = 128;
  // Arrival spacing per beamline (shards are phase-offset so the fleet's
  // aggregate load is smooth).
  Seconds scan_interval = 60.0;
  // A sched::make_policy name: "static_dual" | "round_robin" | "greedy" |
  // "hedged".
  std::string policy = "greedy";

  // Every Nth scan carries a completion deadline (what HedgedPolicy keys
  // on); 0 disables deadlines.
  int deadline_every = 4;
  Seconds deadline = 3600.0;

  SchedulerConfig scheduler;

  // Fault schedule injected over the campaign (empty = fault-free).
  chaos::Scenario scenario;
};

struct FleetCampaignReport {
  std::string policy;
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t lost = 0;
  Seconds makespan = 0.0;           // campaign start -> last scan finished
  Summary turnaround;               // per-scan submit -> products-back
  Seconds turnaround_p99 = 0.0;
  std::map<std::string, std::size_t> placements;  // facility -> launches
  std::size_t failovers = 0;
  std::size_t hedges = 0;
  // Order-sensitive FNV-1a over every scan's (id, facility, turnaround
  // bits): byte-identical across runs of the same config iff the campaign
  // is deterministic. The replay test pins this.
  std::uint64_t digest = 0;
};

class FleetWorld {
 public:
  explicit FleetWorld(FleetCampaignConfig config = {});

  // Schedule every beamline's arrivals, run the engine to quiescence, and
  // summarize. Call once per world.
  FleetCampaignReport run();

  sim::Engine& engine() { return eng_; }
  // One shard per beamline, in beamline order.
  const std::deque<Shard>& shards() const { return shards_; }
  FacilityDirectory& directory() { return sites_.directory(); }
  chaos::ChaosEngine& chaos() { return chaos_; }
  hpc::ComputeAdapter& nersc_adapter() { return sites_.nersc(); }

 private:
  // The per-site recon flow body (stage out -> recon -> stage back), one
  // coroutine for every site: it reads the site's directory row, which
  // carries the adapter and the link. Pointer parameter: Sites registers
  // every row at construction, so rows keep their addresses, and they and
  // the world outlive every flow run (astcheck coroutine-ref-param).
  sim::Future<Status> recon_flow(flow::FlowContext ctx,
                                 const FacilityInfo* site);
  void register_shard_flows(flow::FlowEngine& flows);

  ScanRequest make_scan(Rng* rng, const std::string& beamline, int index);

  FleetCampaignConfig config_;
  sim::Engine eng_;
  Sites sites_;  // shared by every beamline
  std::deque<Shard> shards_;  // a deque: emplace_back moves no Shard
  chaos::ChaosEngine chaos_;
  std::map<std::string, ScanRequest> scans_;
};

// Convenience: build a world, run it, return the report.
FleetCampaignReport run_fleet_campaign(const FleetCampaignConfig& config);

}  // namespace alsflow::sched
