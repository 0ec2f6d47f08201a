// sched::Fleet: shard the orchestration layer per beamline.
//
// One FlowEngine + RunDatabase pair per beamline keeps each shard's run
// history, idempotency ledger, and work-pool accounting independent — the
// fleet-scale answer to a single orchestrator becoming the bottleneck (and
// a single crash domain) once every ALS beamline routes scans through it.
// All shards share one sim::Engine (simulated time is global) and one
// FacilityDirectory (the facilities themselves are shared: NERSC's queue
// does not care which beamline a job came from).
//
// Cross-shard observability goes through the merged query path
// (flow::merged_duration_summary / merged_task_duration_quantiles): the
// fleet-wide Table-2 numbers are computed from the per-shard databases and
// are bit-identical to what one unsharded database over the same runs
// would report — test_sched pins that equivalence.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/engine.hpp"
#include "flow/run_db.hpp"
#include "sched/directory.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace alsflow::sched {

// Registers a beamline shard's flows (and pools) on its private engine.
// Called once per shard at add_shard time; `beamline` lets the registrar
// parameterize flow behaviour per shard if it wants to.
using FlowRegistrar =
    std::function<void(const std::string& beamline, flow::FlowEngine&)>;

class Fleet {
 public:
  struct Shard {
    std::string beamline;
    std::unique_ptr<flow::RunDatabase> db;
    std::unique_ptr<flow::FlowEngine> flows;
    std::unique_ptr<PlacementPolicy> policy;
    std::unique_ptr<FederatedScheduler> scheduler;
  };

  // `policy_name` is instantiated per shard via make_policy() so policy
  // state (round-robin cursors) stays shard-local; placement decisions
  // still see fleet-wide pressure through the shared directory's
  // in-flight counts.
  Fleet(sim::Engine& eng, FacilityDirectory& directory,
        std::string policy_name, SchedulerConfig cfg = {});

  // Create a shard and register its flows. Aborts with a log line, in
  // every build, on a duplicate beamline name or an unknown policy name.
  Shard& add_shard(std::string beamline, const FlowRegistrar& registrar);

  Shard* shard(const std::string& beamline);
  const std::vector<std::unique_ptr<Shard>>& shards() const {
    return shards_;
  }
  std::size_t size() const { return shards_.size(); }

  // Submit a scan on its beamline's shard. Aborts with a log line, in every
  // build, when no shard has that name.
  sim::Future<ScanResult> submit(const std::string& beamline,
                                 ScanRequest scan);

  // --- fleet-wide merged queries ----------------------------------------
  std::vector<const flow::RunDatabase*> run_dbs() const;
  Summary merged_duration_summary(const std::string& flow_name,
                                  std::size_t last_n) const;
  flow::RunDatabase::TaskQuantiles merged_task_duration_quantiles(
      const std::string& flow_name, const std::string& task_name,
      std::size_t last_n = 100) const;

  // --- fleet-wide campaign accounting -----------------------------------
  std::map<std::string, std::size_t> placements() const;
  std::size_t scans_lost() const;
  std::size_t failovers() const;
  std::size_t hedges_launched() const;

 private:
  sim::Engine& eng_;
  FacilityDirectory& dir_;
  std::string policy_name_;
  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses
  std::map<std::string, Shard*> by_name_;
};

}  // namespace alsflow::sched
