#include "hpc/adapter.hpp"

#include <algorithm>
#include <vector>

#include "common/stats.hpp"

namespace alsflow::hpc {

void ComputeAdapter::set_available(bool up) {
  if (up == available_) return;
  available_ = up;
  auto& tel = telemetry::global();
  if (tel.enabled()) {
    tel.metrics()
        .gauge("alsflow_hpc_facility_up", "facility=\"" + facility() + "\"")
        .set(up ? 1.0 : 0.0);
  }
  if (up) {
    gate_.trigger();
  } else {
    gate_ = sim::Event<sim::Unit>();
  }
}

sim::Future<sim::Unit> ComputeAdapter::ensure_available_impl() {
  // Loop: the facility may drop again between the gate firing and this
  // waiter resuming (each outage installs a fresh gate, so re-read it).
  while (!available_) {
    sim::Event<sim::Unit> gate = gate_;
    co_await gate;
  }
  co_return sim::Unit{};
}

void ComputeAdapter::record_job_telemetry(const ReconJob& job,
                                          const ReconJobOutcome& outcome) {
  // Structured queue-state bookkeeping first, independent of whether
  // telemetry is enabled: queue_stats() must work in bare worlds too.
  // The window statistics are computed here, once per report, not per
  // snapshot: the sorted window changes by one insert and one erase.
  auto& tel = telemetry::global();
  const Seconds reported_at =
      std::max(outcome.finished_at, outcome.submitted_at);
  if (outcome.started_at >= outcome.submitted_at) {
    const Seconds wait = outcome.queue_wait();
    ++stats_.completed;
    stats_.last_queue_wait = wait;
    wait_window_.push_back(wait);
    wait_sorted_.insert(
        std::upper_bound(wait_sorted_.begin(), wait_sorted_.end(), wait),
        wait);
    if (wait_window_.size() > kStatsWindow) {
      wait_sorted_.erase(std::lower_bound(
          wait_sorted_.begin(), wait_sorted_.end(), wait_window_.front()));
      wait_window_.pop_front();
    }
    stats_.queue_wait_p50 = percentile_sorted(wait_sorted_, 0.50);
    stats_.queue_wait_p95 = percentile_sorted(wait_sorted_, 0.95);
    if (outcome.finished_at >= outcome.started_at) {
      exec_window_.push_back(outcome.finished_at - outcome.started_at);
      if (exec_window_.size() > kStatsWindow) exec_window_.pop_front();
      double sum = 0.0;
      for (Seconds x : exec_window_) sum += x;
      stats_.exec_mean = sum / double(exec_window_.size());
    }
    // Queue-wait health per facility: an outage holds submissions at the
    // gate, so the wait itself is the observable symptom (detection
    // happens when held jobs finally report back).
    tel.emit(reported_at, "hpc", "queue_wait", outcome.facility, wait,
             outcome.status);
  }
  // The metric labels and the job span's name are built strings, so the
  // rest runs only with tracing on.
  if (!tel.enabled()) return;
  const std::string fac_label = "facility=\"" + outcome.facility + "\"";
  tel.metrics().counter("alsflow_hpc_jobs_total", fac_label).add();
  if (!outcome.status.ok()) {
    tel.metrics().counter("alsflow_hpc_job_failures_total", fac_label).add();
  }

  const telemetry::SpanId span =
      tel.begin("hpc", outcome.facility + ":" + job.name, job.trace_parent,
                outcome.submitted_at);
  tel.attr(span, "facility", outcome.facility);
  tel.attr(span, "nz", std::uint64_t(job.nz));
  tel.attr(span, "n", std::uint64_t(job.n));
  if (!outcome.status.ok()) {
    tel.attr(span, "error", outcome.status.error().code);
  }
  // started_at/finished_at are only known after the fact; explicit
  // timestamps let us record the queue-wait and execution phases
  // retroactively as children of the job span.
  if (outcome.started_at >= outcome.submitted_at) {
    tel.end(tel.begin("hpc", "queue_wait", span, outcome.submitted_at),
            outcome.started_at);
    tel.metrics()
        .histogram("alsflow_hpc_queue_wait_seconds",
                   {10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0},
                   fac_label)
        .observe(outcome.queue_wait());
    if (outcome.finished_at >= outcome.started_at) {
      tel.end(tel.begin("hpc", "execute", span, outcome.started_at),
              outcome.finished_at);
    }
  }
  tel.end(span, reported_at);
}

sim::Future<ReconJobOutcome> NerscSlurmAdapter::run_impl(ReconJob job) {
  ReconJobOutcome outcome;
  outcome.facility = facility();
  outcome.submitted_at = eng_.now();
  co_await ensure_available();  // maintenance window shows up as queue wait

  const Seconds compute = model_.recon_seconds(
      Device::CpuNode128, job.algorithm, job.nz, job.n, job.n_iterations);
  const Seconds duration =
      tuning_.container_startup + job.staging_seconds + compute;

  JobSpec spec;
  spec.name = job.name;
  spec.qos = tuning_.qos;
  spec.nodes = 1;  // exclusive full CPU node
  spec.duration = duration;
  spec.walltime_limit =
      std::max(tuning_.min_walltime, duration * tuning_.walltime_margin);

  auto submitted = co_await sfapi_.submit_job(std::move(spec));
  if (!submitted.ok()) {
    outcome.status = submitted.error();
    outcome.finished_at = eng_.now();
    record_job_telemetry(job, outcome);
    co_return outcome;
  }
  JobInfo info = co_await sfapi_.wait_job(submitted.value());
  outcome.started_at = info.started_at;
  outcome.finished_at = info.finished_at;
  if (info.state != JobState::Completed) {
    outcome.status = Error::make("job_failed", job_state_name(info.state));
  }
  record_job_telemetry(job, outcome);
  co_return outcome;
}

sim::Future<ReconJobOutcome> AlcfGlobusComputeAdapter::run_impl(ReconJob job) {
  ReconJobOutcome outcome;
  outcome.facility = facility();
  outcome.submitted_at = eng_.now();
  co_await ensure_available();  // maintenance window shows up as queue wait

  FunctionTask task;
  task.name = job.name;
  task.duration = job.staging_seconds +
                  model_.recon_seconds(Device::CpuNode128, job.algorithm,
                                       job.nz, job.n, job.n_iterations) /
                      model_.alcf_speedup;
  FunctionResult result = co_await endpoint_.run(std::move(task));
  outcome.started_at = result.started_at;
  outcome.finished_at = result.finished_at;
  record_job_telemetry(job, outcome);
  co_return outcome;
}

}  // namespace alsflow::hpc
