// Batch scheduler simulation (Slurm-equivalent).
//
// Models a homogeneous partition of nodes with FCFS-within-priority
// scheduling. The `realtime` QOS the paper's NERSC jobs use outranks
// regular work, so beamline reconstructions start as soon as nodes free up
// instead of queueing behind the general workload. Jobs carry a modeled
// execution duration (from hpc::ComputeModel) and a walltime limit;
// exceeding the limit ends the job in TimedOut, as on the real machine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::hpc {

enum class Qos { Regular, Realtime, Debug };
const char* qos_name(Qos q);

// Priority ordering used by the scheduler (higher runs first).
int qos_priority(Qos q);

enum class JobState { Pending, Running, Completed, Cancelled, TimedOut };
const char* job_state_name(JobState s);

using JobId = std::uint64_t;

struct JobSpec {
  std::string name;
  Qos qos = Qos::Regular;
  int nodes = 1;
  Seconds walltime_limit = hours(1);
  Seconds duration = 60.0;                 // modeled execution time
  std::function<void()> on_start;          // optional side effect
  std::function<void()> on_finish;         // optional side effect (success)
};

struct JobInfo {
  JobId id = 0;
  JobSpec spec;
  JobState state = JobState::Pending;
  Seconds submitted_at = 0.0;
  Seconds started_at = -1.0;
  Seconds finished_at = -1.0;

  Seconds queue_wait() const {
    return started_at >= 0.0 ? started_at - submitted_at : -1.0;
  }
};

class SlurmCluster {
 public:
  SlurmCluster(sim::Engine& eng, std::string name, int n_nodes);

  const std::string& name() const { return name_; }
  int total_nodes() const { return n_nodes_; }
  int busy_nodes() const { return busy_nodes_; }
  std::size_t pending_jobs() const { return pending_.size(); }

  JobId submit(JobSpec spec);

  // Resolves when the job leaves the system (any terminal state).
  sim::Future<JobInfo> wait(JobId id);

  Status cancel(JobId id);

  Result<JobInfo> info(JobId id) const;

  // All jobs ever submitted (for stats and tests).
  std::vector<JobInfo> all_jobs() const;

 private:
  struct JobRecord {
    JobInfo info;
    sim::Event<sim::Unit> done;
    sim::EventId completion_event = 0;
  };

  void try_schedule();
  void finish_job(JobRecord& rec, JobState final_state);

  sim::Engine& eng_;
  std::string name_;
  int n_nodes_;
  int busy_nodes_ = 0;
  JobId next_id_ = 1;
  std::map<JobId, JobRecord> jobs_;
  // Pending jobs keyed by (-qos priority, id). Ids are issued in
  // submission order, so begin() is the next job to start: highest
  // priority first, FIFO within a priority class.
  std::set<std::pair<int, JobId>> pending_;
};

}  // namespace alsflow::hpc
