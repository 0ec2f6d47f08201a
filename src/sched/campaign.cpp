#include "sched/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/checksum.hpp"

namespace alsflow::sched {

using flow::keyed;
using flow::task_spec;

FleetWorld::FleetWorld(FleetCampaignConfig config)
    : config_(std::move(config)),
      sites_(eng_, "recon_nersc", "recon_alcf", "recon_cloud"),
      chaos_(eng_) {
  for (int b = 0; b < config_.beamlines; ++b) {
    Shard& shard = shards_.emplace_back(eng_, sites_.directory(),
                                        config_.policy, config_.scheduler);
    register_shard_flows(shard.flows);
  }
  sites_.bind_chaos(chaos_);
}

void FleetWorld::register_shard_flows(flow::FlowEngine& flows) {
  // Orchestration itself must not be the bottleneck at fleet scale:
  // queueing belongs at the facilities (Slurm, pilot pool), not the pool.
  flows.set_pool_limit("fleet", 32);
  for (const FacilityInfo& site : sites_.directory().facilities()) {
    const std::string& flow_name = site.flow_name;
    flow::FlowSpec spec;
    spec.tasks = {
        task_spec(flow_name, "stage_out", {}, true, false),
        task_spec(flow_name, "recon", {"stage_out"}, false, true),
        task_spec(flow_name, "stage_back", {"recon"}, true, false),
    };
    flow::FlowOptions options;
    options.max_retries = 0;
    options.work_pool = "fleet";
    const FacilityInfo* row = &site;
    flows.register_flow(
        flow_name,
        [this, row](flow::FlowContext ctx) { return recon_flow(ctx, row); },
        options, spec);
  }
}

sim::Future<Status> FleetWorld::recon_flow(flow::FlowContext ctx,
                                           const FacilityInfo* site) {
  const ScanRequest scan = scans_.at(ctx.parameters);
  flow::FlowEngine& flows = ctx.engine;

  // Task bodies bound to named std::function locals (GCC 12: inline
  // lambda temporaries in a co_await expression are double-destroyed).
  std::function<sim::Future<Status>()> stage_out_task =
      [site, scan]() -> sim::Future<Status> {
        (void)co_await site->link->send(scan.raw_bytes);
        co_return Status::success();
      };
  Status out = co_await flows.run_task(
      ctx, "stage_out", std::move(stage_out_task), keyed(ctx, "stage_out"));
  if (!out.ok()) co_return out;

  std::function<sim::Future<Status>()> recon_task =
      [site, scan]() -> sim::Future<Status> {
        hpc::ReconJob job;
        job.name = "fleet-" + scan.scan_id;
        job.nz = scan.nz;
        job.n = scan.n;
        auto outcome = co_await site->adapter->run(job);
        co_return outcome.status;
      };
  Status recon = co_await flows.run_task(ctx, "recon", std::move(recon_task),
                                         keyed(ctx, "recon"));
  if (!recon.ok()) co_return recon;

  std::function<sim::Future<Status>()> stage_back_task =
      [site, scan]() -> sim::Future<Status> {
        // TIFF stack + Zarr pyramid overhead, matching the pipeline's 1.3x.
        (void)co_await site->link->send(
            Bytes(double(scan.recon_bytes) * 1.3));
        co_return Status::success();
      };
  co_return co_await flows.run_task(
      ctx, "stage_back", std::move(stage_back_task), keyed(ctx, "stage_back"));
}

ScanRequest FleetWorld::make_scan(Rng* rng, const std::string& beamline,
                                  int index) {
  // Production-mix volume shapes, heavy enough that facility capacity —
  // not arrival cadence — bounds the campaign.
  static constexpr std::size_t kNz[] = {384, 512, 640};
  static constexpr std::size_t kN[] = {1024, 1280, 1536};
  ScanRequest s;
  s.scan_id = beamline + "-scan-" + std::to_string(index);
  s.nz = kNz[std::size_t(rng->uniform_int(0, 2))];
  s.n = kN[std::size_t(rng->uniform_int(0, 2))];
  const std::size_t n_angles = (3 * s.n) / 2;
  s.raw_bytes = Bytes(n_angles + 20) * s.nz * s.n * 2;
  s.recon_bytes = Bytes(s.nz) * s.n * s.n * 4;
  if (config_.deadline_every > 0 && index % config_.deadline_every == 0) {
    s.deadline = config_.deadline;
  }
  return s;
}

FleetCampaignReport FleetWorld::run() {
  Rng rng(config_.seed);
  std::vector<std::shared_ptr<sim::SharedState<ScanResult>>> results;
  results.reserve(std::size_t(config_.beamlines) *
                  std::size_t(config_.scans_per_beamline));

  for (int b = 0; b < config_.beamlines; ++b) {
    char name[16];
    std::snprintf(name, sizeof name, "bl-%02d", b + 1);
    const std::string beamline = name;
    // Phase-offset the shards so the fleet's aggregate arrivals are smooth.
    const Seconds offset = config_.scan_interval * double(b) /
                           double(std::max(1, config_.beamlines));
    FederatedScheduler* scheduler = &shards_[std::size_t(b)].scheduler;
    for (int i = 0; i < config_.scans_per_beamline; ++i) {
      ScanRequest scan = make_scan(&rng, beamline, i);
      scans_[scan.scan_id] = scan;
      const Seconds at = offset + config_.scan_interval * double(i);
      eng_.schedule_at(at, [scheduler, scan, &results] {
        results.push_back(scheduler->submit(scan).state());
      });
    }
  }

  if (!config_.scenario.events.empty()) chaos_.arm(config_.scenario);
  eng_.run();

  FleetCampaignReport rep;
  rep.policy = config_.policy;
  rep.offered = results.size();
  std::vector<double> turnarounds;
  turnarounds.reserve(results.size());
  Fnv1a64 h;
  for (const auto& st : results) {
    if (!st->ready()) continue;  // cannot happen once the engine quiesces
    const ScanResult& r = st->value();
    if (r.completed) {
      ++rep.completed;
      turnarounds.push_back(r.turnaround());
    } else {
      ++rep.lost;
    }
    rep.makespan = std::max(rep.makespan, r.finished_at);
    h.update(r.scan_id.data(), r.scan_id.size());
    h.update(r.facility.data(), r.facility.size());
    const double t = r.turnaround();
    h.update(&t, sizeof t);
  }
  rep.digest = h.digest();
  rep.turnaround = summarize(turnarounds);
  if (!turnarounds.empty()) {
    std::sort(turnarounds.begin(), turnarounds.end());
    rep.turnaround_p99 = percentile_sorted(turnarounds, 0.99);
  }
  for (const Shard& shard : shards_) {
    for (const auto& [facility, n] : shard.scheduler.placements()) {
      rep.placements[facility] += n;
    }
    rep.failovers += shard.scheduler.failovers();
    rep.hedges += shard.scheduler.hedges_launched();
  }
  return rep;
}

FleetCampaignReport run_fleet_campaign(const FleetCampaignConfig& config) {
  FleetWorld world(config);
  return world.run();
}

}  // namespace alsflow::sched
