#include "hpc/slurm.hpp"

#include <cassert>

#include "common/log.hpp"

namespace alsflow::hpc {

const char* qos_name(Qos q) {
  switch (q) {
    case Qos::Regular: return "regular";
    case Qos::Realtime: return "realtime";
    case Qos::Debug: return "debug";
  }
  return "?";
}

int qos_priority(Qos q) {
  switch (q) {
    case Qos::Realtime: return 100;
    case Qos::Debug: return 50;
    case Qos::Regular: return 10;
  }
  return 0;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Pending: return "PENDING";
    case JobState::Running: return "RUNNING";
    case JobState::Completed: return "COMPLETED";
    case JobState::Cancelled: return "CANCELLED";
    case JobState::TimedOut: return "TIMEOUT";
  }
  return "?";
}

SlurmCluster::SlurmCluster(sim::Engine& eng, std::string name, int n_nodes)
    : eng_(eng), name_(std::move(name)), n_nodes_(n_nodes) {
  assert(n_nodes > 0);
}

JobId SlurmCluster::submit(JobSpec spec) {
  assert(spec.nodes >= 1 && spec.nodes <= n_nodes_);
  const JobId id = next_id_++;
  JobRecord rec;
  rec.info.id = id;
  rec.info.spec = std::move(spec);
  rec.info.submitted_at = eng_.now();
  const int priority = qos_priority(rec.info.spec.qos);
  jobs_.emplace(id, std::move(rec));
  pending_.emplace(-priority, id);
  // Scheduling runs as a separate event so a submit inside another job's
  // callback observes consistent state.
  eng_.schedule_in(0.0, [this] { try_schedule(); });
  return id;
}

void SlurmCluster::try_schedule() {
  // FCFS without backfill: stop at the first job that does not fit, so a
  // wide high-priority job is never starved by narrow later arrivals.
  while (!pending_.empty()) {
    JobRecord& rec = jobs_.at(pending_.begin()->second);
    if (busy_nodes_ + rec.info.spec.nodes > n_nodes_) break;
    pending_.erase(pending_.begin());

    busy_nodes_ += rec.info.spec.nodes;
    rec.info.state = JobState::Running;
    rec.info.started_at = eng_.now();
    if (rec.info.spec.on_start) rec.info.spec.on_start();

    const bool times_out = rec.info.spec.duration > rec.info.spec.walltime_limit;
    const Seconds run_for =
        times_out ? rec.info.spec.walltime_limit : rec.info.spec.duration;
    const JobId id = rec.info.id;
    rec.completion_event = eng_.schedule_in(run_for, [this, id, times_out] {
      JobRecord& r = jobs_.at(id);
      r.completion_event = 0;
      finish_job(r, times_out ? JobState::TimedOut : JobState::Completed);
    });
    log_debug("slurm") << name_ << ": start job " << id << " ("
                       << rec.info.spec.name << ", "
                       << qos_name(rec.info.spec.qos) << ")";
  }
}

void SlurmCluster::finish_job(JobRecord& rec, JobState final_state) {
  assert(rec.info.state == JobState::Running);
  busy_nodes_ -= rec.info.spec.nodes;
  rec.info.state = final_state;
  rec.info.finished_at = eng_.now();
  if (final_state == JobState::Completed && rec.info.spec.on_finish) {
    rec.info.spec.on_finish();
  }
  rec.done.trigger();
  try_schedule();
}

sim::Future<JobInfo> SlurmCluster::wait(JobId id) {
  auto it = jobs_.find(id);
  assert(it != jobs_.end());
  auto done = it->second.done;
  co_await done;
  co_return jobs_.at(id).info;
}

Status SlurmCluster::cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Error::make("not_found", "unknown job");
  JobRecord& rec = it->second;
  switch (rec.info.state) {
    case JobState::Pending: {
      pending_.erase({-qos_priority(rec.info.spec.qos), id});
      rec.info.state = JobState::Cancelled;
      rec.info.finished_at = eng_.now();
      rec.done.trigger();
      return Status::success();
    }
    case JobState::Running: {
      if (rec.completion_event != 0) {
        eng_.cancel(rec.completion_event);
        rec.completion_event = 0;
      }
      finish_job(rec, JobState::Cancelled);
      return Status::success();
    }
    default:
      return Error::make("invalid_state", "job already terminal");
  }
}

Result<JobInfo> SlurmCluster::info(JobId id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Error::make("not_found", "unknown job");
  return it->second.info;
}

std::vector<JobInfo> SlurmCluster::all_jobs() const {
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) out.push_back(rec.info);
  return out;
}

}  // namespace alsflow::hpc
