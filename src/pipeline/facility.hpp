// The full multi-facility world (Figure 3), wired end to end.
//
// A Facility owns every operational layer on one simulation engine:
//   Acquisition  — Detector -> PVA mirror -> FileWriterService
//   Orchestration— one sched::Shard: FlowEngine + RunDatabase with the
//                  production flows (new_file_832 plus one route-table
//                  recon flow per facility: nersc, alcf, cloud) and
//                  scheduled pruning flows; its FederatedScheduler places
//                  every scan's reconstruction under
//                  FacilityConfig::policy
//   Movement     — Globus TransferService over the sites' ESnet links;
//                  streaming via the PVA mirror + ZeroMQ return path
//   Compute      — the shared sched::Sites: Perlmutter (Slurm + SFAPI,
//                  realtime QOS), Polaris (Globus Compute pilot endpoint)
//                  and the cloud burst region, with their directory rows
//   Access       — SciCat metadata catalogue (+ TiledService at library
//                  level for real-pixel runs)
//
// process_scan() drives one acquisition through streaming, staging and the
// scheduler's recon placement, and returns when all of them finish; benches
// call it at production cadence.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "access/tiled.hpp"
#include "beamline/detector.hpp"
#include "beamline/file_writer.hpp"
#include "catalog/scicat.hpp"
#include "common/rng.hpp"
#include "flow/engine.hpp"
#include "hpc/adapter.hpp"
#include "net/link.hpp"
#include "net/pubsub.hpp"
#include "pipeline/streaming_service.hpp"
#include "sched/directory.hpp"
#include "sched/scheduler.hpp"
#include "sched/sites.hpp"
#include "sim/engine.hpp"
#include "storage/endpoint.hpp"
#include "storage/retention.hpp"
#include "transfer/transfer_service.hpp"

namespace alsflow::chaos {
class ChaosEngine;
}  // namespace alsflow::chaos

namespace alsflow::pipeline {

struct FacilityConfig {
  std::uint64_t seed = 42;

  // Background (non-beamline) Perlmutter load: target utilization and mean
  // job length — what the realtime QOS has to cut through.
  double background_utilization = 0.8;
  Seconds background_job_mean = 900.0;

  // In-job CFS -> pscratch staging copy rate.
  double pscratch_stage_rate = 5e9;

  // Flow behaviour.
  bool verify_checksums = true;
  // Fail-early + remote auto-cancel (the post-incident behaviour).
  bool fail_early = true;

  // Recon placement policy, by sched::make_policy name. "static_dual" is
  // the paper's production configuration: every scan reconstructs at both
  // NERSC and ALCF.
  std::string policy = "static_dual";
};

struct ScanOptions {
  bool streaming = false;
  // Archive raw + reconstruction to HPSS tape after a NERSC recon run
  // completes (Section 4.2.3: long-term archival through Slurm/SFAPI).
  bool archive = true;
};

struct ScanOutcome {
  data::ScanMetadata scan;
  Status new_file_status = Status::success();
  sched::ScanResult recon;  // the scheduler's placement and its attempts
  std::optional<StreamingReport> streaming;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;
};

class Facility {
 public:
  explicit Facility(FacilityConfig config = {});

  sim::Engine& engine() { return eng_; }
  const FacilityConfig& config() const { return config_; }

  // --- world components (exposed for tests and benches) ---
  storage::StorageEndpoint& acq_server() { return acq_server_; }
  storage::StorageEndpoint& beamline_data() { return beamline_data_; }
  storage::StorageEndpoint& cfs() { return cfs_; }
  storage::StorageEndpoint& eagle() { return eagle_; }
  storage::StorageEndpoint& hpss() { return hpss_; }
  transfer::TransferService& globus() { return globus_; }
  hpc::SlurmCluster& perlmutter() { return sites_.perlmutter(); }
  hpc::GlobusComputeEndpoint& polaris() { return sites_.polaris(); }
  flow::FlowEngine& flows() { return shard_.flows; }
  flow::RunDatabase& run_db() { return shard_.db; }
  catalog::SciCatalog& scicat() { return scicat_; }
  access::TiledService& tiled() { return tiled_; }
  StreamingService& streaming() { return streaming_; }
  hpc::NerscSlurmAdapter& nersc_adapter() { return sites_.nersc(); }
  net::Link& esnet_nersc() { return sites_.esnet_nersc(); }
  sched::FacilityDirectory& directory() { return sites_.directory(); }
  sched::FederatedScheduler& scheduler() { return shard_.scheduler; }

  // Bind every named component to `chaos`, so a scenario can target any of
  // them by name: the beamline LAN, the transfer service, the storage
  // endpoints, the flow engine and its run database, plus the sites'
  // links and compute adapters (sched::Sites::bind_chaos).
  void bind_chaos(chaos::ChaosEngine& chaos);

  // Generate non-beamline Perlmutter load for `duration` (call once,
  // before driving scans, to model realistic realtime queue waits).
  void start_background_load(Seconds duration);

  // Start the scheduled pruning flows (Section 4.2.2) with the given
  // period; uses per-tier default retention policies.
  void start_pruning(Seconds period = hours(12));

  // Drive one scan end to end: acquisition -> file write -> new_file_832
  // -> scheduled recon (plus the streaming preview, if asked for).
  // Resolves when all of them complete.
  // (Wrapper over the coroutine impl: see flow/engine.hpp on GCC 12.)
  sim::Future<ScanOutcome> process_scan(data::ScanMetadata scan,
                                        ScanOptions options) {
    return process_scan_impl(std::move(scan), options);
  }

  // Stage a reconstructed multiscale volume for publication, then run the
  // FlowSpec-validated "publish_volume" flow (parameters = key) to move it
  // into the Tiled access service: catalogue ingest + registration happen
  // through the orchestrated, validated path rather than by poking the
  // service directly, so the serving front end only ever sees volumes that
  // entered through the flow.
  void stage_volume(const std::string& key,
                    std::shared_ptr<const data::MultiscaleVolume> volume);

  // Fire-and-forget variant for campaign driving at production cadence.
  void submit_scan(data::ScanMetadata scan, ScanOptions options);

  std::size_t scans_completed() const { return scans_completed_; }
  Bytes raw_bytes_ingested() const { return raw_bytes_ingested_; }
  std::vector<ScanOutcome> completed_outcomes() const { return outcomes_; }

 private:
  // One remote reconstruction branch, as data: every facility's recon
  // flow is the same four-task shape (move raw out, reconstruct, move
  // products back, register provenance) over different endpoints, labels,
  // and adapters. The route table replaced the hand-duplicated
  // nersc_recon_flow / alcf_recon_flow pair and is what makes adding a
  // facility (cloud) a table entry instead of a fourth copy.
  struct ReconRoute {
    std::string flow_name;       // registered flow ("nersc_recon_flow", ...)
    std::string pool;            // work pool ("hpc-nersc", ...)
    storage::StorageEndpoint* remote = nullptr;  // facility-side store
    hpc::ComputeAdapter* adapter = nullptr;
    std::string to_remote_task;  // task 1 name ("globus_to_cfs", ...)
    std::string recon_task;      // task 2 name ("sfapi_recon_job", ...)
    std::string out_label;       // transfer label ("nersc:raw_to_cfs", ...)
    std::string back_label;      // transfer label ("nersc:recon_back", ...)
    std::string back_prefix;     // beamline-side path ("/recon/nersc/", ...)
    // In-job CFS -> pscratch staging copy before the solver (NERSC only).
    bool stage_in_copy = false;
  };

  sim::Future<ScanOutcome> process_scan_impl(data::ScanMetadata scan,
                                             ScanOptions options);
  void register_flows();
  // Background load as a timer chain: each arrival submits one job and
  // arms the next arrival, until `until`.
  void arm_background_arrival(Seconds until);
  sim::Future<Status> new_file_832(flow::FlowContext ctx);
  // The generic facility recon flow, parameterized by route. Pointer, not
  // reference: routes are Facility members and the coroutine frame
  // outlives the call (astcheck coroutine-ref-param).
  sim::Future<Status> recon_route_flow(flow::FlowContext ctx,
                                       const ReconRoute* route);
  sim::Future<Status> hpss_archive_flow(flow::FlowContext ctx);
  sim::Future<Status> publish_volume_flow(flow::FlowContext ctx);
  // Pointer, not reference: the endpoint is a Facility member and the
  // coroutine frame outlives the call (astcheck coroutine-ref-param).
  sim::Future<Status> prune_endpoint_flow(storage::StorageEndpoint* ep);

  const data::ScanMetadata& scan_for(const std::string& scan_id) const {
    return scans_.at(scan_id);
  }

  FacilityConfig config_;
  sim::Engine eng_;
  Rng rng_;

  // Storage.
  storage::StorageEndpoint acq_server_;
  storage::StorageEndpoint beamline_data_;
  storage::StorageEndpoint cfs_;
  storage::StorageEndpoint eagle_;
  storage::StorageEndpoint hpss_;

  // Network (the ESnet paths belong to sites_).
  net::Link lan_;
  net::Link zmq_back_;

  // Movement.
  transfer::TransferService globus_;

  // Compute: the shared sites, their ESnet links and directory rows.
  sched::Sites sites_;

  // Orchestration: the run database, the flow engine, and the placement
  // policy and scheduler over sites_'s directory. Constructing it
  // schedules no sim event, so its place among the members moves none.
  sched::Shard shard_;

  // Access.
  catalog::SciCatalog scicat_;
  access::TiledService tiled_;
  // Volumes handed to stage_volume, awaiting the publish_volume flow.
  std::map<std::string, std::shared_ptr<const data::MultiscaleVolume>>
      staged_volumes_;

  // Acquisition.
  beamline::Detector detector_;
  net::MirrorServer<beamline::FrameBatch> mirror_;
  beamline::FileWriterService file_writer_;
  StreamingService streaming_;

  // Scan bookkeeping.
  std::map<std::string, data::ScanMetadata> scans_;
  std::map<std::string, sim::Event<std::string>> write_done_;  // scan -> path
  std::map<std::string, std::string> raw_pids_;  // scan -> SciCat PID
  std::size_t scans_completed_ = 0;
  Bytes raw_bytes_ingested_ = 0;
  std::vector<ScanOutcome> outcomes_;

  // Recon routes. Appended after the older members, and none of these
  // schedules a simulation event at construction: that keeps static_dual
  // campaigns byte-identical to BENCH_chaos_campaign.json.
  storage::StorageEndpoint cloud_s3_;
  ReconRoute nersc_route_;
  ReconRoute alcf_route_;
  ReconRoute cloud_route_;
};

}  // namespace alsflow::pipeline
