// Compute abstraction layer (Section 4.2.4).
//
// Flows describe *what* to reconstruct; facility adapters own *how*: NERSC
// runs Slurm jobs through SFAPI (realtime QOS, exclusive CPU node, podman
// container startup), ALCF executes functions through a Globus Compute
// pilot endpoint, and the cloud adapter (hpc/cloud.hpp) boots an instance
// per job. Identical analysis code, facility-specific submission — the
// paper's core portability claim. sched::Sites builds one of each; the
// historical workstation baseline is priced through ComputeModel's
// Device::Workstation, not an adapter.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "hpc/compute_model.hpp"
#include "hpc/globus_compute.hpp"
#include "hpc/sfapi.hpp"
#include "sim/task.hpp"

namespace alsflow::hpc {

struct ReconJob {
  std::string name;
  std::size_t nz = 0;  // output slices
  std::size_t n = 0;   // slice edge
  tomo::Algorithm algorithm = tomo::Algorithm::Gridrec;
  int n_iterations = 30;
  // Extra in-job time (e.g. the CFS -> pscratch staging copy at NERSC).
  Seconds staging_seconds = 0.0;
  // Telemetry parent span (the flow task submitting this job); 0 = root.
  telemetry::SpanId trace_parent = 0;
};

struct ReconJobOutcome {
  Status status = Status::success();
  std::string facility;
  Seconds submitted_at = 0.0;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;

  Seconds queue_wait() const { return started_at - submitted_at; }
  Seconds total() const { return finished_at - submitted_at; }
};

// Structured queue-state snapshot a scheduler reads instead of scraping
// telemetry histograms: recent queue-wait quantiles over a sliding window
// of completed jobs, plus the live in-flight count (submitted through
// run(), not yet reported back — held-at-gate outage submissions count,
// which is exactly what a placement decision needs to see).
struct QueueStats {
  std::size_t completed = 0;       // jobs that reported back, ever
  std::size_t inflight = 0;        // submitted, not yet finished
  Seconds last_queue_wait = 0.0;   // most recent completed job's wait
  Seconds queue_wait_p50 = 0.0;    // over the sliding window
  Seconds queue_wait_p95 = 0.0;
  Seconds exec_mean = 0.0;         // mean execute time over the window
};

class ComputeAdapter {
 public:
  virtual ~ComputeAdapter() = default;
  // Wrapper over the per-facility coroutine impl (see flow/engine.hpp on
  // GCC 12 and prvalue coroutine arguments). Also the in-flight accounting
  // seam: every submission path goes through here, so queue_stats() sees
  // jobs the moment they enter the adapter, including ones parked at the
  // availability gate during an outage.
  sim::Future<ReconJobOutcome> run(ReconJob job) {
    ++inflight_;
    auto fut = run_impl(std::move(job));
    if (fut.done()) {
      --inflight_;
    } else {
      // Sim-thread only (like all adapter state); the adapter outlives
      // every job it runs.
      fut.state()->add_callback([this] { --inflight_; });
    }
    return fut;
  }
  virtual std::string facility() const = 0;

  // Live queue-state snapshot (see QueueStats). Sim-thread only. The
  // window statistics are computed when a job reports back, so a snapshot
  // is a copy.
  QueueStats queue_stats() const {
    QueueStats s = stats_;
    s.inflight = inflight_;
    return s;
  }

  // --- chaos seam: facility health (src/chaos drives this) ---
  //
  // A facility in a maintenance window or outage still *accepts*
  // submissions but holds them until health is restored — how a scheduled
  // Slurm reservation or a paused Globus Compute endpoint behaves. Flows
  // see the window as queue wait, not failure, so a campaign rides out
  // maintenance without burning retry budget.
  void set_available(bool up);
  bool available() const { return available_; }

 protected:
  virtual sim::Future<ReconJobOutcome> run_impl(ReconJob job) = 0;

  // Resolves immediately while healthy, otherwise when set_available(true)
  // next fires. Every run_impl awaits this before submitting.
  sim::Future<sim::Unit> ensure_available() {
    return ensure_available_impl();
  }

  // Telemetry shared by every adapter: a job span (with retroactive
  // queue-wait and execute child spans — timestamps are only known once the
  // job reports back), a per-facility job counter, and a queue-wait
  // histogram. No-op when telemetry is disabled or the job never started.
  void record_job_telemetry(const ReconJob& job,
                            const ReconJobOutcome& outcome);

 private:
  sim::Future<sim::Unit> ensure_available_impl();

  // Sliding-window queue-wait / execute-time samples behind queue_stats(),
  // oldest first; wait_sorted_ holds the wait window in ascending order.
  static constexpr std::size_t kStatsWindow = 64;
  std::size_t inflight_ = 0;
  QueueStats stats_;  // everything but inflight, as of the last report
  std::deque<Seconds> wait_window_;
  std::vector<Seconds> wait_sorted_;
  std::deque<Seconds> exec_window_;

  bool available_ = true;
  // One gate per outage window: held submissions await the current gate;
  // restoring health triggers it (releasing every waiter); the next outage
  // installs a fresh one.
  sim::Event<sim::Unit> gate_;
};

struct NerscAdapterTuning {
  Qos qos = Qos::Realtime;
  Seconds container_startup = 20.0;   // podman-hpc image spin-up
  Seconds min_walltime = minutes(15); // paper: >= 15-minute window
  double walltime_margin = 2.0;       // request margin x estimate
};

// NERSC: SFAPI -> Slurm, realtime QOS, exclusive 128-core CPU node.
class NerscSlurmAdapter : public ComputeAdapter {
 public:
  using Tuning = NerscAdapterTuning;

  NerscSlurmAdapter(sim::Engine& eng, SfApiClient& sfapi, ComputeModel model,
                    Tuning tuning = {})
      : eng_(eng), sfapi_(sfapi), model_(model), tuning_(tuning) {}

  std::string facility() const override { return "nersc"; }

 protected:
  sim::Future<ReconJobOutcome> run_impl(ReconJob job) override;

 private:
  sim::Engine& eng_;
  SfApiClient& sfapi_;
  ComputeModel model_;
  Tuning tuning_;
};

// ALCF: Globus Compute pilot endpoint on Polaris (demand queue).
class AlcfGlobusComputeAdapter : public ComputeAdapter {
 public:
  AlcfGlobusComputeAdapter(sim::Engine& eng, GlobusComputeEndpoint& endpoint,
                           ComputeModel model)
      : eng_(eng), endpoint_(endpoint), model_(model) {}

  std::string facility() const override { return "alcf"; }

 protected:
  sim::Future<ReconJobOutcome> run_impl(ReconJob job) override;

 private:
  sim::Engine& eng_;
  GlobusComputeEndpoint& endpoint_;
  ComputeModel model_;
};

}  // namespace alsflow::hpc
