// Flow/task run database — the queryable state store behind the
// orchestration UI.
//
// Every flow run and task attempt is recorded with timestamps and terminal
// state. The paper's Table 2 is produced by querying the Prefect server API
// for the last 100 successful runs of each flow and aggregating completion
// times; duration_summary() is that exact query against our store.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_safety.hpp"
#include "common/units.hpp"

namespace alsflow::flow {

enum class RunState { Scheduled, Running, Retrying, Completed, Failed, Cancelled };
// Inline: a span's "state" attribute names the state on every run, and with
// tracing off the name must cost no call.
inline const char* run_state_name(RunState s) {
  switch (s) {
    case RunState::Scheduled: return "SCHEDULED";
    case RunState::Running: return "RUNNING";
    case RunState::Retrying: return "RETRYING";
    case RunState::Completed: return "COMPLETED";
    case RunState::Failed: return "FAILED";
    case RunState::Cancelled: return "CANCELLED";
  }
  return "?";
}
bool is_terminal(RunState s);

struct FlowRunRecord {
  std::string id;
  std::string flow_name;
  RunState state = RunState::Scheduled;
  Seconds created_at = 0.0;
  Seconds started_at = -1.0;
  Seconds finished_at = -1.0;
  int retries = 0;
  std::string error;           // code of the final error, if failed
  std::string parameters;      // free-form (scan id etc.)

  // Completion time as the production metric reports it: scheduled ->
  // finished.
  Seconds duration() const {
    return finished_at >= 0.0 ? finished_at - created_at : -1.0;
  }
};

struct TaskRunRecord {
  std::string flow_run_id;
  std::string task_name;
  RunState state = RunState::Scheduled;
  int attempts = 0;
  Seconds started_at = -1.0;
  Seconds finished_at = -1.0;
  std::string error;
  // The key the task ran under (empty if none). Durable counterpart of the
  // engine's volatile idempotency cache: FlowEngine::replay() rebuilds the
  // cache from completed task records so a restarted engine skips work that
  // already finished before the crash.
  std::string idempotency_key;
};

// Thread-safe: the sim thread writes (FlowEngine records run/task state)
// while pool threads read (watermark probes, exporters, tests polling
// progress); mu_ (rank kFlowRunDb) serializes the containers. run() and
// task_records() return stable references into the store — std::map nodes
// and the append-only task vector's elements don't move — but reading a
// record's *fields* while the engine is still mutating that run remains
// an engine-thread contract, as before.
class RunDatabase {
 public:
  // Flow runs -----------------------------------------------------------
  std::string create_run(const std::string& flow_name, Seconds now,
                         std::string parameters = "");
  void mark_running(const std::string& run_id, Seconds now);
  void mark_retrying(const std::string& run_id, Seconds now);
  void mark_finished(const std::string& run_id, RunState final_state,
                     Seconds now, const std::string& error = "");
  void add_retry(const std::string& run_id);

  const FlowRunRecord* run(const std::string& run_id) const
      ALSFLOW_EXCLUDES(mu_);

  // All runs of a flow (in creation order); empty name matches all flows.
  std::vector<FlowRunRecord> runs(const std::string& flow_name = "") const;
  std::vector<FlowRunRecord> runs_in_state(const std::string& flow_name,
                                           RunState state) const;

  // The Table 2 query: durations of the most recent `last_n` runs of
  // `flow_name` in `state` (default Completed).
  Summary duration_summary(const std::string& flow_name, std::size_t last_n,
                           RunState state = RunState::Completed) const;

  double success_rate(const std::string& flow_name) const;

  // Task runs ------------------------------------------------------------
  void record_task(TaskRunRecord rec);
  std::vector<TaskRunRecord> tasks(const std::string& flow_run_id) const;
  // Every task record in insertion order (replay scans this to rebuild the
  // idempotency cache; the reference stays stable between record_task calls).
  // Lock-free by design (replay's hot scan); the reference is stable and
  // record_task only appends. Engine-thread use only — see class comment.
  const std::vector<TaskRunRecord>& task_records() const
      ALSFLOW_NO_THREAD_SAFETY_ANALYSIS {
    return task_runs_;
  }
  // Drop the task ledger (models losing the run database's task table —
  // e.g. a database volume loss). Flow-run records survive, so a later
  // replay() still knows *what* was interrupted but restores no
  // idempotency keys: recovery degrades from skip-completed to
  // at-least-once re-execution.
  void clear_task_records() {
    LockGuard lock(mu_);
    task_runs_.clear();
  }

  // Stage-level Table 2: durations of the most recent `last_n` completed
  // runs of `task_name` within `flow_name` (empty flow_name matches any
  // flow). This is the per-task breakdown the whole-flow summary hides.
  Summary task_duration_summary(const std::string& flow_name,
                                const std::string& task_name,
                                std::size_t last_n = 100) const;

  // p50/p95/p99 of the same sample set task_duration_summary aggregates:
  // exact order statistics (percentile_sorted), so min <= p50 <= p95 <=
  // p99 <= max always holds. n = 0 (and every quantile 0) when no
  // completed records match.
  struct TaskQuantiles {
    std::size_t n = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  TaskQuantiles task_duration_quantiles(const std::string& flow_name,
                                        const std::string& task_name,
                                        std::size_t last_n = 100) const;

  // Distinct task names seen for a flow, in first-seen order (drives
  // per-task report tables).
  std::vector<std::string> task_names(const std::string& flow_name) const;

  std::size_t total_runs() const {
    LockGuard lock(mu_);
    return order_.size();
  }

 private:
  // Durations of every completed record of `task_name` within `flow_name`
  // (empty matches any flow), in insertion order.
  std::vector<double> completed_task_durations(
      const std::string& flow_name, const std::string& task_name) const;

  // Calls fn on every run of `flow_name` ("" = every flow), in creation
  // order, reading the records in place.
  template <typename Fn>
  void for_each_run_locked(const std::string& flow_name, Fn&& fn) const
      ALSFLOW_REQUIRES(mu_) {
    for (const FlowRunRecord* rec : order_) {
      if (flow_name.empty() || rec->flow_name == flow_name) fn(*rec);
    }
  }
  std::vector<FlowRunRecord> runs_locked(const std::string& flow_name) const
      ALSFLOW_REQUIRES(mu_);
  std::vector<FlowRunRecord> runs_in_state_locked(
      const std::string& flow_name, RunState state) const
      ALSFLOW_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kFlowRunDb, "flow.run_db"};
  std::map<std::string, FlowRunRecord> runs_ ALSFLOW_GUARDED_BY(mu_);
  // Creation order: runs_'s nodes, which keep their addresses (no run is
  // ever erased).
  std::vector<const FlowRunRecord*> order_ ALSFLOW_GUARDED_BY(mu_);
  std::vector<TaskRunRecord> task_runs_ ALSFLOW_GUARDED_BY(mu_);
  std::uint64_t next_id_ ALSFLOW_GUARDED_BY(mu_) = 1;
};

}  // namespace alsflow::flow
