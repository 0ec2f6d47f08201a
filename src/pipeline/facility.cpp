#include "pipeline/facility.hpp"

#include <cassert>
#include <initializer_list>

#include "chaos/chaos_engine.hpp"
#include "common/checksum.hpp"
#include "common/log.hpp"

namespace alsflow::pipeline {

using flow::keyed;
using flow::task_spec;

Facility::Facility(FacilityConfig config)
    : config_(config),
      rng_(config.seed),
      acq_server_("als-acq", storage::Tier::BeamlineLocal, 50 * TiB),
      beamline_data_("als-data", storage::Tier::BeamlineLocal, 200 * TiB),
      cfs_("nersc-cfs", storage::Tier::Cfs, 2000 * TiB),
      eagle_("alcf-eagle", storage::Tier::Eagle, 2000 * TiB),
      hpss_("nersc-hpss", storage::Tier::Hpss, 100000 * TiB),
      // Paper: 10 Gbps beamline NIC; the ZeroMQ preview return shares
      // the NERSC path's 10 Gbps.
      lan_(eng_, "beamline-lan", gbps(10.0), 0.001),
      zmq_back_(eng_, "zmq-return", gbps(10.0), 0.03),
      globus_(eng_, config.seed ^ 0x5eed),
      sites_(eng_, "nersc_recon_flow", "alcf_recon_flow", "cloud_recon_flow"),
      shard_(eng_, sites_.directory(), config.policy),
      detector_(eng_, beamline::Detector::Config{}, config.seed ^ 0xde7),
      mirror_(eng_, detector_.ioc_channel(), "pva-mirror"),
      file_writer_(eng_, mirror_.channel(), acq_server_),
      streaming_(eng_, mirror_.channel(), sites_.esnet_nersc(), zmq_back_,
                 hpc::ComputeModel{}),
      cloud_s3_("cloud-s3", storage::Tier::Eagle, 2000 * TiB) {
  // Globus routes between every endpoint pair in use.
  globus_.add_route("als-acq", "als-data", &lan_);
  globus_.add_route("als-data", "nersc-cfs", &sites_.esnet_nersc());
  globus_.add_route("nersc-cfs", "als-data", &sites_.esnet_nersc());
  globus_.add_route("als-data", "alcf-eagle", &sites_.esnet_alcf());
  globus_.add_route("alcf-eagle", "als-data", &sites_.esnet_alcf());
  globus_.add_route("nersc-cfs", "nersc-hpss", &sites_.esnet_nersc());
  globus_.add_route("als-data", "cloud-s3", &sites_.esnet_cloud());
  globus_.add_route("cloud-s3", "als-data", &sites_.esnet_cloud());

  // Paper: high concurrency for scan detection, lower for HPC submission
  // (but at least the steady-state number of in-flight reconstructions).
  // Each facility gets its own submission pool so a backlog at one site
  // cannot stall the other.
  shard_.flows.set_pool_limit("default", 16);
  shard_.flows.set_pool_limit("hpc-nersc", 8);
  shard_.flows.set_pool_limit("hpc-alcf", 8);
  shard_.flows.set_pool_limit("hpc-cloud", 8);

  file_writer_.on_complete(
      [this](const data::ScanMetadata& scan, const std::string& path) {
        auto it = write_done_.find(scan.scan_id);
        if (it != write_done_.end()) it->second.trigger(path);
      });

  // The facility recon branches, as route-table rows. Task names, labels,
  // remote paths, and staging formulas are pinned by the golden chaos
  // campaign — a row must reproduce its hand-written predecessor exactly.
  nersc_route_ = {"nersc_recon_flow", "hpc-nersc",
                  &cfs_,              &sites_.nersc(),
                  "globus_to_cfs",    "sfapi_recon_job",
                  "nersc:raw_to_cfs", "nersc:recon_back",
                  "/recon/nersc/",    /*stage_in_copy=*/true};
  alcf_route_ = {"alcf_recon_flow",   "hpc-alcf",
                 &eagle_,             &sites_.alcf(),
                 "globus_to_eagle",   "globus_compute_recon",
                 "alcf:raw_to_eagle", "alcf:recon_back",
                 "/recon/alcf/",      /*stage_in_copy=*/false};
  cloud_route_ = {"cloud_recon_flow", "hpc-cloud",
                  &cloud_s3_,         &sites_.cloud(),
                  "globus_to_cloud",  "cloud_recon_job",
                  "cloud:raw_to_s3",  "cloud:recon_back",
                  "/recon/cloud/",    /*stage_in_copy=*/false};

  register_flows();

  // Pre-flight: every shipped flow graph must validate clean before the
  // first scan. A malformed graph is a programming error, caught here in
  // milliseconds rather than mid-shift (ISSUE: beam time is too scarce to
  // discover a bad flow at run time).
  const auto issues = shard_.flows.validate();
  for (const auto& iss : issues) {
    log_error("facility") << "flow validation: " << iss.render();
  }
  assert(issues.empty() && "shipped flow specs must validate clean");
  (void)issues;
}

void Facility::register_flows() {
  flow::FlowOptions staging;
  staging.max_retries = 2;
  staging.retry_delay = 30.0;
  staging.work_pool = "default";
  flow::FlowSpec staging_spec;
  staging_spec.tasks = {
      task_spec("new_file_832", "copy_to_data_server", {}, true, false),
      task_spec("new_file_832", "scicat_ingest", {"copy_to_data_server"},
                false, false),
  };
  shard_.flows.register_flow(
      "new_file_832",
      [this](flow::FlowContext ctx) { return new_file_832(ctx); }, staging,
      staging_spec);

  // Every facility branch is one registration of the generic route flow:
  // the declared graph and the executed tasks come from the same row, so
  // a route cannot drift from its spec.
  for (const ReconRoute* route :
       {&nersc_route_, &alcf_route_, &cloud_route_}) {
    flow::FlowOptions hpc_opts;
    hpc_opts.max_retries = 1;
    hpc_opts.retry_delay = 60.0;
    hpc_opts.work_pool = route->pool;
    flow::FlowSpec spec;
    spec.tasks = {
        task_spec(route->flow_name, route->to_remote_task, {}, true, false),
        task_spec(route->flow_name, route->recon_task,
                  {route->to_remote_task}, false, true),
        task_spec(route->flow_name, "globus_back_to_beamline",
                  {route->recon_task}, true, false),
        task_spec(route->flow_name, "scicat_derived",
                  {"globus_back_to_beamline"}, false, false),
    };
    shard_.flows.register_flow(
        route->flow_name,
        [this, route](flow::FlowContext ctx) {
          return recon_route_flow(ctx, route);
        },
        hpc_opts, spec);
  }

  flow::FlowOptions archive_opts;
  archive_opts.max_retries = 2;
  archive_opts.retry_delay = 300.0;  // tape is patient
  archive_opts.work_pool = "hpc-nersc";
  flow::FlowSpec archive_spec;
  archive_spec.tasks = {
      task_spec("hpss_archive_flow", "archive_to_tape", {}, true, true),
  };
  shard_.flows.register_flow(
      "hpss_archive_flow",
      [this](flow::FlowContext ctx) { return hpss_archive_flow(ctx); },
      archive_opts, archive_spec);

  // Access-layer publication: one validated task that ingests the derived
  // product into SciCat and registers it with the Tiled service. The flow
  // retries, so the task carries an idempotency key (validation enforces
  // this pairing).
  flow::FlowOptions publish_opts;
  publish_opts.max_retries = 1;
  publish_opts.retry_delay = 5.0;
  publish_opts.work_pool = "default";
  flow::FlowSpec publish_spec;
  publish_spec.tasks = {
      task_spec("publish_volume", "publish_volume", {}, false, false),
  };
  shard_.flows.register_flow(
      "publish_volume",
      [this](flow::FlowContext ctx) { return publish_volume_flow(ctx); },
      publish_opts, publish_spec);

  // Pruning flows run no tracked tasks; an empty spec still pins the
  // work-pool declaration check.
  flow::FlowOptions prune_opts;
  prune_opts.work_pool = "default";
  shard_.flows.register_flow(
      "prune_beamline",
      [this](flow::FlowContext) { return prune_endpoint_flow(&beamline_data_); },
      prune_opts, flow::FlowSpec{});
  shard_.flows.register_flow(
      "prune_cfs",
      [this](flow::FlowContext) { return prune_endpoint_flow(&cfs_); },
      prune_opts, flow::FlowSpec{});
  shard_.flows.register_flow(
      "prune_eagle",
      [this](flow::FlowContext) { return prune_endpoint_flow(&eagle_); },
      prune_opts, flow::FlowSpec{});
}

// ---------------------------------------------------------------------------
// Flows
// ---------------------------------------------------------------------------

sim::Future<Status> Facility::new_file_832(flow::FlowContext ctx) {
  const data::ScanMetadata scan = scan_for(ctx.parameters);
  const std::string raw_path = file_writer_.path_for(scan);

  // Dataset close-out: detection debounce, HDF5 header verification and
  // metadata extraction (reads the file once at local-disk rate).
  co_await sim::delay(eng_, 20.0 + double(scan.raw_bytes()) / 2.5e9);

  // Task 1: move raw data from the acquisition server to the
  // user-accessible beamline data server.
  // Task bodies are bound to named std::function locals: inline
  // lambda temporaries in a co_await expression are double-destroyed
  // by GCC 12 (see the note in flow/engine.hpp).
  std::function<sim::Future<Status>()> copied_task =
      [this, raw_path, run_id = ctx.run_id]() -> sim::Future<Status> {
        transfer::TransferSpec spec;
        spec.src = &acq_server_;
        spec.dst = &beamline_data_;
        spec.files = {{raw_path, raw_path}};
        spec.verify_checksum = config_.verify_checksums;
        spec.label = "new_file_832:stage";
        spec.trace_parent = shard_.flows.task_span(run_id);
        auto outcome = co_await globus_.submit(std::move(spec));
        co_return outcome.status;
      };
  Status copied = co_await shard_.flows.run_task(
      ctx, "copy_to_data_server", std::move(copied_task),
      keyed(ctx, "copy_to_data_server"));
  if (!copied.ok()) co_return copied;

  // Task 2: ingest scan metadata into SciCat.
  std::function<sim::Future<Status>()> scicat_ingest_task =
      [this, scan, raw_path]() -> sim::Future<Status> {
        co_await sim::delay(eng_, 2.0);  // catalogue API round trip
        raw_pids_[scan.scan_id] =
            scicat_.ingest(catalog::DatasetType::Raw, raw_path,
                           beamline_data_.name(), eng_.now(),
                           scan.as_fields());
        co_return Status::success();
      };
  co_return co_await shard_.flows.run_task(
      ctx, "scicat_ingest", std::move(scicat_ingest_task),
      keyed(ctx, "scicat_ingest"));
}

sim::Future<Status> Facility::recon_route_flow(flow::FlowContext ctx,
                                               const ReconRoute* route) {
  const data::ScanMetadata scan = scan_for(ctx.parameters);
  const std::string raw_path = file_writer_.path_for(scan);
  const std::string remote_raw = "/als/raw/" + scan.scan_id + ".ah5";
  const std::string remote_recon = "/als/recon/" + scan.scan_id + ".zarr";
  const std::string back_path = route->back_prefix + scan.scan_id + ".zarr";

  // Task 1: Globus transfer of the raw file to the facility-side store.
  std::function<sim::Future<Status>()> moved_task =
      [this, route, raw_path, remote_raw,
       run_id = ctx.run_id]() -> sim::Future<Status> {
        transfer::TransferSpec spec;
        spec.src = &beamline_data_;
        spec.dst = route->remote;
        spec.files = {{raw_path, remote_raw}};
        spec.verify_checksum = config_.verify_checksums;
        spec.label = route->out_label;
        spec.trace_parent = shard_.flows.task_span(run_id);
        auto outcome = co_await globus_.submit(std::move(spec));
        co_return outcome.status;
      };
  Status moved = co_await shard_.flows.run_task(
      ctx, route->to_remote_task, std::move(moved_task),
      keyed(ctx, route->to_remote_task));
  if (!moved.ok()) co_return moved;

  // Task 2: the facility's reconstruction submission (Slurm realtime job
  // via SFAPI, Globus Compute function, or a cloud burst instance),
  // writing the TIFF stack + Zarr pyramid to the facility store. NERSC
  // additionally pays the in-job CFS -> pscratch staging copy.
  std::function<sim::Future<Status>()> recon_task =
      [this, route, scan, remote_recon,
       run_id = ctx.run_id]() -> sim::Future<Status> {
        hpc::ReconJob job;
        job.name = "tomopy-" + scan.scan_id;
        job.nz = scan.rows;
        job.n = scan.cols;
        job.algorithm = tomo::Algorithm::Gridrec;
        // TIFF + Zarr product writes at 2 GB/s.
        job.staging_seconds = double(scan.recon_bytes()) * 1.3 / 2e9;
        if (route->stage_in_copy) {
          job.staging_seconds +=
              double(scan.raw_bytes()) / config_.pscratch_stage_rate;
        }
        job.trace_parent = shard_.flows.task_span(run_id);
        auto outcome = co_await route->adapter->run(job);
        if (!outcome.status.ok()) co_return outcome.status;
        co_return route->remote->put(remote_recon,
                                     Bytes(double(scan.recon_bytes()) * 1.3),
                                     fnv1a64(remote_recon), eng_.now());
      };
  Status recon = co_await shard_.flows.run_task(
      ctx, route->recon_task, std::move(recon_task),
      keyed(ctx, route->recon_task));
  if (!recon.ok()) co_return recon;

  // Task 3: move the reconstruction products back to the beamline.
  std::function<sim::Future<Status>()> back_task =
      [this, route, remote_recon, back_path,
       run_id = ctx.run_id]() -> sim::Future<Status> {
        transfer::TransferSpec spec;
        spec.src = route->remote;
        spec.dst = &beamline_data_;
        spec.files = {{remote_recon, back_path}};
        spec.verify_checksum = config_.verify_checksums;
        spec.label = route->back_label;
        spec.trace_parent = shard_.flows.task_span(run_id);
        auto outcome = co_await globus_.submit(std::move(spec));
        co_return outcome.status;
      };
  Status back = co_await shard_.flows.run_task(
      ctx, "globus_back_to_beamline", std::move(back_task),
      keyed(ctx, "globus_back_to_beamline"));
  if (!back.ok()) co_return back;

  // Task 4: register the derived dataset with provenance.
  std::function<sim::Future<Status>()> scicat_derived_task =
      [this, route, scan, back_path]() -> sim::Future<Status> {
        co_await sim::delay(eng_, 2.0);
        auto parent = raw_pids_.find(scan.scan_id);
        scicat_.ingest(catalog::DatasetType::Derived, back_path,
                       beamline_data_.name(), eng_.now(),
                       {{"scan_id", scan.scan_id},
                        {"pipeline", route->flow_name},
                        {"algorithm", "gridrec"}},
                       parent == raw_pids_.end() ? "" : parent->second);
        co_return Status::success();
      };
  co_return co_await shard_.flows.run_task(
      ctx, "scicat_derived", std::move(scicat_derived_task),
      keyed(ctx, "scicat_derived"));
}

sim::Future<Status> Facility::hpss_archive_flow(flow::FlowContext ctx) {
  const data::ScanMetadata scan = scan_for(ctx.parameters);
  const std::string cfs_raw = "/als/raw/" + scan.scan_id + ".ah5";
  const std::string cfs_recon = "/als/recon/" + scan.scan_id + ".zarr";

  // Tape ingest runs as a Slurm xfer-style job via SFAPI: queue for the
  // transfer slot, then stream both products to HPSS.
  std::function<sim::Future<Status>()> archive_task =
      [this, scan, cfs_raw, cfs_recon, run_id = ctx.run_id]() -> sim::Future<Status> {
        // Tape mount + positioning latency before the stream starts.
        co_await sim::delay(eng_, 45.0);
        transfer::TransferSpec spec;
        spec.src = &cfs_;
        spec.dst = &hpss_;
        spec.files = {{cfs_raw, "/archive" + cfs_raw},
                      {cfs_recon, "/archive" + cfs_recon}};
        spec.verify_checksum = config_.verify_checksums;
        spec.label = "hpss:archive";
        spec.trace_parent = shard_.flows.task_span(run_id);
        auto outcome = co_await globus_.submit(std::move(spec));
        co_return outcome.status;
      };
  co_return co_await shard_.flows.run_task(
      ctx, "archive_to_tape", std::move(archive_task),
      keyed(ctx, "archive_to_tape"));
}

void Facility::stage_volume(
    const std::string& key,
    std::shared_ptr<const data::MultiscaleVolume> volume) {
  staged_volumes_[key] = std::move(volume);
}

sim::Future<Status> Facility::publish_volume_flow(flow::FlowContext ctx) {
  const std::string key = ctx.parameters;
  std::function<sim::Future<Status>()> publish_task =
      [this, key]() -> sim::Future<Status> {
        auto it = staged_volumes_.find(key);
        if (it == staged_volumes_.end()) {
          co_return Error::make("not_found", "no staged volume for " + key);
        }
        auto volume = it->second;
        // Catalogue the multiscale product, then expose it for serving.
        // The derived record chains to the raw PID when the scan came
        // through acquisition (library-level callers may stage directly).
        co_await sim::delay(eng_, 1.0);
        auto parent = raw_pids_.find(key);
        scicat_.ingest(catalog::DatasetType::Derived,
                       "/als/multiscale/" + key + ".zarr",
                       beamline_data_.name(), eng_.now(),
                       {{"scan_id", key},
                        {"pipeline", "publish_volume"},
                        {"levels", std::to_string(volume->n_levels())}},
                       parent == raw_pids_.end() ? "" : parent->second);
        tiled_.register_volume(key, volume);
        staged_volumes_.erase(key);
        co_return Status::success();
      };
  co_return co_await shard_.flows.run_task(
      ctx, "publish_volume", std::move(publish_task),
      keyed(ctx, "publish_volume"));
}

sim::Future<Status> Facility::prune_endpoint_flow(
    storage::StorageEndpoint* ep) {
  co_await sim::delay(eng_, 1.0);  // directory walk
  auto policy = storage::default_policy(ep->tier());
  auto report = storage::prune_pass(*ep, policy, eng_.now());
  if (!report.errors.empty()) {
    // Post-incident behaviour: fail early and surface the error instead of
    // hammering the endpoint with doomed delete requests.
    if (config_.fail_early) co_return report.errors.front();
    // Pre-incident behaviour: keep retrying each file (modeled as extra
    // traffic + a hung-queue delay proportional to the error count).
    co_await sim::delay(eng_, 30.0 * double(report.errors.size()));
    co_return report.errors.front();
  }
  co_return Status::success();
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

void Facility::arm_background_arrival(Seconds until) {
  if (eng_.now() >= until) return;
  // Poisson arrivals sized to hold the requested utilization.
  const double arrival_mean =
      config_.background_job_mean /
      (config_.background_utilization *
       double(sites_.perlmutter().total_nodes()));
  eng_.schedule_in(rng_.exponential(arrival_mean), [this, until] {
    hpc::JobSpec job;
    job.name = "background";
    job.qos = hpc::Qos::Regular;
    job.duration = rng_.exponential(config_.background_job_mean);
    job.walltime_limit = job.duration + hours(1);
    sites_.perlmutter().submit(job);
    arm_background_arrival(until);
  });
}

void Facility::bind_chaos(chaos::ChaosEngine& chaos) {
  chaos.bind_link(&lan_);
  sites_.bind_chaos(chaos);
  chaos.bind_transfer(&globus_);
  for (storage::StorageEndpoint* ep : {&acq_server_, &beamline_data_, &cfs_,
                                       &eagle_, &hpss_, &cloud_s3_}) {
    chaos.bind_endpoint(ep);
  }
  chaos.bind_flow_engine(&shard_.flows);
  chaos.bind_run_db(&shard_.db);
}

void Facility::start_background_load(Seconds duration) {
  arm_background_arrival(eng_.now() + duration);
}

void Facility::start_pruning(Seconds period) {
  shard_.flows.schedule_periodic("prune_beamline", period, period * 0.5);
  shard_.flows.schedule_periodic("prune_cfs", period, period * 0.6);
  shard_.flows.schedule_periodic("prune_eagle", period, period * 0.7);
}

sim::Future<ScanOutcome> Facility::process_scan_impl(data::ScanMetadata scan,
                                                     ScanOptions options) {
  assert(scan.validate().ok());
  ScanOutcome outcome;
  outcome.started_at = eng_.now();
  scans_[scan.scan_id] = scan;
  write_done_.emplace(scan.scan_id, sim::Event<std::string>());

  // Umbrella scan span: the per-scan provenance anchor the trace
  // assembler keys on (flow runs remain separate roots linked to it by
  // their scan-id parameters).
  auto& tel = telemetry::global();
  const telemetry::SpanId scan_span =
      tel.begin("scan", scan.scan_id, 0, eng_.now());
  tel.attr(scan_span, "scan_id", scan.scan_id);

  file_writer_.begin_scan(scan);
  if (options.streaming) streaming_.begin_scan(scan);

  // Only under a recorded scan span: no orphan root.
  const telemetry::SpanId acq_span =
      scan_span != 0 ? tel.begin("scan", "acquisition", scan_span, eng_.now())
                     : 0;
  // Acquisition (frames fan out to the file-writer and streaming service).
  scan = co_await detector_.acquire(std::move(scan));
  tel.end(acq_span, eng_.now());
  outcome.scan = scan;

  // Wait for the file-writer to finish saving the HDF5 file.
  auto write_event = write_done_.at(scan.scan_id);
  (void)co_await write_event;
  raw_bytes_ingested_ += scan.raw_bytes();

  // Staging + metadata flow, then the scheduler places the recon: both DOE
  // sites under static_dual, one chosen site (with failover) otherwise.
  auto new_file = co_await shard_.flows.run_flow("new_file_832", scan.scan_id);
  outcome.new_file_status = new_file.status;

  sched::ScanRequest req;
  req.scan_id = scan.scan_id;
  req.raw_bytes = scan.raw_bytes();
  req.recon_bytes = scan.recon_bytes();
  req.nz = scan.rows;
  req.n = scan.cols;
  outcome.recon = co_await shard_.scheduler.submit(std::move(req));
  if (options.archive) {
    // Tape archival needs the products on CFS, so only a completed NERSC
    // run triggers it (background; scan completion does not wait on tape).
    for (const sched::AttemptRecord& a : outcome.recon.attempts) {
      if (a.facility == "nersc" && a.result == "completed") {
        shard_.flows.submit_flow("hpss_archive_flow", scan.scan_id);
        break;
      }
    }
  }
  if (options.streaming) {
    outcome.streaming = co_await streaming_.wait_preview(scan.scan_id);
  }

  outcome.finished_at = eng_.now();
  tel.end(scan_span, eng_.now());
  tel.emit(eng_.now(), "scan", "e2e", scan.scan_id,
           outcome.finished_at - outcome.started_at,
           outcome.new_file_status.ok() && outcome.recon.completed);
  ++scans_completed_;
  outcomes_.push_back(outcome);
  write_done_.erase(scan.scan_id);
  co_return outcome;
}

void Facility::submit_scan(data::ScanMetadata scan, ScanOptions options) {
  [](Facility* self, data::ScanMetadata s, ScanOptions o) -> sim::Proc {
    (void)co_await self->process_scan(std::move(s), o);
  }(this, std::move(scan), options)
      .detach();
}

}  // namespace alsflow::pipeline
