// The allocation-budget rigs: what one simulated scan costs the host, in
// operator new calls. bench_sim_engine reports them with their wall time;
// tests/test_sched.cpp asserts the budget on smaller runs of the same rigs.
//
// Both count every operator new the calling thread makes from the first
// arrival to quiescence (hotguard::allocations(), kept by the allocation
// hooks), divided by the scans offered. Building the world is not counted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "common/hot_guard.hpp"
#include "common/units.hpp"
#include "flow/engine.hpp"
#include "hpc/cloud.hpp"
#include "sched/campaign.hpp"
#include "sched/directory.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::bench {

inline sim::Future<Status> finish_after(sim::Engine* eng, Seconds dt) {
  co_await sim::delay(*eng, dt);
  co_return Status::success();
}

// The scheduler alone: two sites (nersc, alcf) whose recon flows end
// 1,000 s after they start, and one scan arriving per second. No link,
// adapter or Slurm queue does any work, so what is counted is the
// scheduler's race, the flow engine's run and the sim engine's events.
class SchedulerRaceRig {
 public:
  explicit SchedulerRaceRig(const std::string& policy_name)
      : shard_(eng_, dir_, policy_name) {
    // Wide enough that no run waits for a pool slot: about 2,000 flows
    // are in flight at once under static_dual.
    shard_.flows.set_pool_limit("default", 4096);
    for (const char* site : {"nersc", "alcf"}) {
      adapters_.push_back(
          std::make_unique<hpc::CloudBurstAdapter>(eng_, hpc::ComputeModel{}));
      sched::FacilityInfo info;
      info.name = site;
      info.flow_name = std::string("recon_") + site;
      info.adapter = adapters_.back().get();
      dir_.add(info);
      sim::Engine* eng = &eng_;
      shard_.flows.register_flow(info.flow_name, [eng](flow::FlowContext) {
        return finish_after(eng, 1000.0);
      });
    }
  }

  // Submits `scans` scans one second apart, runs to quiescence and
  // returns the operator new calls per scan. Call once per rig.
  double allocations_per_scan(int scans) {
    results_.reserve(std::size_t(scans));
    const std::uint64_t before = hotguard::allocations();
    for (int i = 0; i < scans; ++i) {
      eng_.schedule_at(double(i), [this, i] {
        sched::ScanRequest scan;
        scan.scan_id = "scan-" + std::to_string(i);
        scan.raw_bytes = Bytes(1) << 30;
        scan.recon_bytes = Bytes(1) << 30;
        scan.nz = 512;
        scan.n = 1024;
        results_.push_back(shard_.scheduler.submit(std::move(scan)).state());
      });
    }
    eng_.run();
    return double(hotguard::allocations() - before) / double(scans);
  }

  std::size_t completed() const {
    return shard_.scheduler.scans_completed();
  }

 private:
  sim::Engine eng_;
  std::vector<std::unique_ptr<hpc::CloudBurstAdapter>> adapters_;
  sched::FacilityDirectory dir_;
  sched::Shard shard_;
  std::vector<std::shared_ptr<sim::SharedState<sched::ScanResult>>> results_;
};

// perfbench's fleet_campaign configuration: `beamlines` x `scans` scans
// under greedy placement, with a one-hour NERSC outage halfway through the
// arrivals.
inline sched::FleetCampaignConfig fleet_config(int beamlines, int scans) {
  sched::FleetCampaignConfig cfg;
  cfg.beamlines = beamlines;
  cfg.scans_per_beamline = scans;
  cfg.policy = "greedy";
  const Seconds arrivals = cfg.scan_interval * cfg.scans_per_beamline;
  cfg.scenario = {"nersc_outage",
                  {{chaos::FaultKind::FacilityOutage, arrivals / 2, hours(1),
                    "nersc", 0.0}}};
  return cfg;
}

struct FleetAllocations {
  sched::FleetCampaignReport report;
  double per_scan = 0.0;
};

// Runs one fleet campaign; the world is built before counting starts.
inline FleetAllocations fleet_allocations(
    const sched::FleetCampaignConfig& cfg) {
  sched::FleetWorld world(cfg);
  FleetAllocations out;
  const std::uint64_t before = hotguard::allocations();
  out.report = world.run();
  out.per_scan = double(hotguard::allocations() - before) /
                 double(out.report.offered);
  return out;
}

}  // namespace alsflow::bench
