// Workflow orchestration engine (Prefect-server equivalent).
//
// Flows are registered by name with retry policy and a work-pool
// assignment; submitting a flow run queues it on its pool, whose
// concurrency limit models the paper's tuned worker concurrency (high for
// scan-detection work, low for HPC submission to avoid queue conflicts).
// Tasks inside a flow get retry-with-backoff and idempotency-key
// semantics so a retried flow can safely re-execute completed steps.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "common/units.hpp"
#include "flow/run_db.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"

namespace alsflow::flow {

class FlowEngine;

// Handed to every flow invocation.
struct FlowContext {
  FlowEngine& engine;
  std::string run_id;
  std::string parameters;
  // Telemetry span of this flow run (0 when telemetry is disabled). Tasks
  // started through run_task become children of this span.
  telemetry::SpanId span = 0;
  // Name the run was registered under (validation cross-checks run_task
  // calls against the flow's declared FlowSpec).
  std::string flow_name;
};

using FlowFn = std::function<sim::Future<Status>(FlowContext)>;

struct FlowOptions {
  int max_retries = 0;             // whole-flow retries on failure
  Seconds retry_delay = 10.0;
  std::string work_pool = "default";
};

struct TaskOptions {
  int max_retries = 3;
  Seconds retry_delay = 5.0;
  double backoff = 2.0;            // delay multiplier per attempt
  // If set and a previous invocation with this key succeeded, the task is
  // skipped (idempotent re-execution on flow retry).
  std::string idempotency_key;
};

struct FlowRunResult {
  std::string run_id;
  RunState state = RunState::Completed;
  Status status = Status::success();
};

// What FlowEngine::replay() did to recover from a halt: how much finished
// work it could prove durable, and what it had to restart.
struct ReplayReport {
  std::size_t keys_restored = 0;     // completed-task idempotency keys
  std::size_t runs_cancelled = 0;    // stale non-terminal flow runs
  std::size_t runs_resubmitted = 0;  // interrupted (flow, parameters) pairs
  std::size_t records_ignored = 0;   // malformed / unregistered-flow records
};

// ---------------------------------------------------------------------------
// Static flow-graph description (pre-flight validation)
// ---------------------------------------------------------------------------
//
// A FlowSpec is the declared task graph of a flow: which tasks it runs,
// their dependency edges, and their resilience contract (retry policy,
// idempotency key, external-facility usage). FlowEngine::validate() checks
// the spec *before any task executes*, so a malformed flow fails in
// milliseconds at registration/campaign start instead of mid-shift with
// beam time on the clock. Specs are opt-in per flow; spec-less flows
// (tests, ad-hoc experiments) run unchecked as before.

struct TaskSpec {
  std::string name;
  std::vector<std::string> depends_on;  // names of tasks that must precede
  bool uses_transfer = false;  // touches the TransferService (Globus)
  bool uses_hpc = false;       // touches an HPC facility adapter
  int max_retries = 3;         // mirrors the TaskOptions used at run time
  // Static key or key prefix; required on every task of a flow that has
  // flow-level retries (a retried flow must skip completed work).
  std::string idempotency_key;
};

struct FlowSpec {
  std::vector<TaskSpec> tasks;
  bool empty() const { return tasks.empty(); }
};

// The one idempotency-key format. A declared task's key is the static
// prefix "<flow>:<task>"; keyed() appends the run's parameters (the scan
// id) at run time, so a retried or resubmitted flow skips the tasks that
// already succeeded for *this* scan only.
TaskSpec task_spec(const std::string& flow, const std::string& name,
                   std::vector<std::string> deps, bool uses_transfer,
                   bool uses_hpc);
TaskOptions keyed(const FlowContext& ctx, const std::string& task);

// One rejected property of a flow graph. `task` names the offending task
// ("" for flow-level issues); `rule` is the machine-readable rejection:
//   duplicate-task | unknown-dependency | dependency-cycle |
//   unreachable-task | missing-retry-policy | missing-idempotency-key |
//   undeclared-pool
struct ValidationIssue {
  std::string flow;
  std::string task;
  std::string rule;
  std::string message;
  std::string render() const;
};

class FlowEngine {
 public:
  FlowEngine(sim::Engine& sim, RunDatabase& db);

  sim::Engine& sim() { return sim_; }
  RunDatabase& db() { return db_; }

  void register_flow(const std::string& name, FlowFn fn,
                     FlowOptions options = {});
  // Registration with a declared task graph: the spec is validated lazily
  // on the first run (and eagerly by validate()); a run of an invalid flow
  // fails immediately with `flow_validation_failed` before any task body
  // executes.
  void register_flow(const std::string& name, FlowFn fn, FlowOptions options,
                     FlowSpec spec);

  // Static pre-flight pass over registered flow specs. Returns every
  // violated graph property (empty == all declared graphs are sound).
  // The one-argument form checks a single flow.
  std::vector<ValidationIssue> validate() const;
  std::vector<ValidationIssue> validate(const std::string& name) const;

  // Set (or resize) a work pool's concurrency limit. Also *declares* the
  // pool: validate() rejects specs whose flow routes to a pool that was
  // never declared (run-time would silently auto-create it instead of
  // honouring the tuned concurrency).
  void set_pool_limit(const std::string& pool, int limit);

  // Submit a run; resolves when the run reaches a terminal state.
  //
  // NOTE on the wrapper style used for every public coroutine in alsflow:
  // GCC 12 miscompiles *prvalue* class-type arguments to coroutine calls
  // (the frame copy is elided but the caller temporary is still
  // destroyed -> double free). Public entry points are therefore plain
  // functions that take arguments by value and forward them as xvalues to
  // a private coroutine, which is always safe.
  sim::Future<FlowRunResult> run_flow(std::string name,
                                      std::string parameters = "") {
    return run_flow_impl(std::move(name), std::move(parameters));
  }

  // Fire-and-forget submission (acquisition callbacks use this).
  void submit_flow(const std::string& name, std::string parameters = "");

  // Run `body` as a tracked task of the current flow run with retry +
  // idempotency semantics. Returns the final status.
  //
  // Coroutine-parameter rules: everything is taken by value (copied into
  // the frame) except ctx, which must outlive the call — flows pass their
  // own context and co_await the result directly. No class-type default
  // arguments on coroutines (GCC 12 mis-destroys the temporary), hence the
  // explicit overload.
  sim::Future<Status> run_task(const FlowContext& ctx, std::string task_name,
                               std::function<sim::Future<Status>()> body,
                               TaskOptions options) {
    return run_task_impl(ctx, std::move(task_name), std::move(body),
                         std::move(options));
  }
  sim::Future<Status> run_task(const FlowContext& ctx, std::string task_name,
                               std::function<sim::Future<Status>()> body) {
    return run_task_impl(ctx, std::move(task_name), std::move(body),
                         TaskOptions{});
  }

  // Periodic schedule (pruning flows): run `name` every `interval`,
  // starting after `initial_delay`. Returns a handle for cancellation.
  int schedule_periodic(const std::string& name, Seconds interval,
                        Seconds initial_delay = 0.0,
                        std::string parameters = "");
  void cancel_schedule(int handle);

  std::size_t registered_flows() const { return flows_.size(); }

  // Telemetry span of the task currently executing for `run_id` (0 when
  // telemetry is disabled or no task is active). Task bodies use this to
  // parent their transfer / HPC-job spans under the task span.
  telemetry::SpanId task_span(const std::string& run_id) const
      ALSFLOW_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    auto it = active_task_spans_.find(run_id);
    return it == active_task_spans_.end() ? 0 : it->second;
  }

  // Successful-task idempotency cache: bounded (FIFO eviction) so long
  // campaigns don't grow it without limit.
  static constexpr std::size_t kIdempotencyCacheCapacity = 4096;
  std::size_t idempotency_cache_size() const ALSFLOW_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return idempotency_cache_.size();
  }

  // --- crash recovery (the chaos EngineCrash fault drives this) ----------
  //
  // halt() models the orchestrator process dying: the volatile idempotency
  // cache is lost, no new flow run starts (submissions park until replay),
  // in-flight tasks stop retrying and fail fast with `engine_halted`, and —
  // like a real crash — nothing more is written to the run database for
  // interrupted runs, so they stay non-terminal.
  //
  // replay() is the restart: it rebuilds the idempotency cache from durable
  // completed TaskRunRecords, marks stale non-terminal flow runs Cancelled,
  // and resubmits each interrupted (flow, parameters) pair once (skipping
  // pairs that some other run already completed). Completed tasks of the
  // resubmitted runs are skipped via the restored cache, so recovery
  // re-executes only work that was genuinely in flight. Malformed records —
  // duplicates, unknown flow names, partial (started-but-unfinished) tasks
  // — are tolerated and counted, never fatal.
  void halt() ALSFLOW_EXCLUDES(mu_);
  ReplayReport replay() ALSFLOW_EXCLUDES(mu_);

 private:
  struct Registration {
    FlowFn fn;
    FlowOptions options;
    FlowSpec spec{};
    bool has_spec = false;
    bool validated = false;  // cached clean verdict; reset on re-register
  };

  void validate_registration(const std::string& name, const Registration& reg,
                             std::vector<ValidationIssue>& out) const;

  sim::Future<FlowRunResult> run_flow_impl(std::string name,
                                           std::string parameters);
  sim::Future<Status> run_task_impl(const FlowContext& ctx,
                                    std::string task_name,
                                    std::function<sim::Future<Status>()> body,
                                    TaskOptions options);

  sim::Semaphore& pool(const std::string& name);
  // A periodic schedule is a chain of engine timers: each tick starts one
  // run of `flow`, and that run arms the next tick when it finishes.
  struct Schedule {
    std::string flow;
    std::string parameters;
    Seconds interval = 0.0;
    bool alive = true;  // cleared by cancel_schedule
  };
  void arm_schedule(std::shared_ptr<Schedule> schedule, Seconds delay);
  void remember_idempotent_success(const std::string& key)
      ALSFLOW_EXCLUDES(mu_);
  bool idempotency_hit(const std::string& key) const ALSFLOW_EXCLUDES(mu_);
  void set_active_task_span(const std::string& run_id, telemetry::SpanId span)
      ALSFLOW_EXCLUDES(mu_);
  void clear_active_task_span(const std::string& run_id) ALSFLOW_EXCLUDES(mu_);

  sim::Engine& sim_;
  RunDatabase& db_;
  std::map<std::string, Registration> flows_;
  std::map<std::string, std::unique_ptr<sim::Semaphore>> pools_;
  std::set<std::string> declared_pools_;
  // Flow/task bookkeeping mutates on the single engine thread, but is read
  // by cross-thread observers (tests, exporters); mu_ makes the contract
  // machine-checked instead of conventional. Never held across co_await.
  mutable Mutex mu_{LockRank::kFlowEngine, "flow.engine"};
  std::map<std::string, telemetry::SpanId> active_task_spans_
      ALSFLOW_GUARDED_BY(mu_);
  // Successful keys only.
  std::set<std::string> idempotency_cache_ ALSFLOW_GUARDED_BY(mu_);
  // Insertion order (FIFO eviction): the cache's own nodes, which keep
  // their addresses until erased, so each key is stored once.
  std::deque<std::set<std::string>::iterator> idempotency_order_
      ALSFLOW_GUARDED_BY(mu_);
  std::map<int, std::shared_ptr<Schedule>> schedules_;
  int next_schedule_ = 1;
  // Crash state: true between halt() and replay(). Engine-thread only.
  bool halted_ = false;
  // One gate per halt window: run_flow submissions arriving while halted
  // await it; replay() triggers it after recovery state is rebuilt.
  sim::Event<sim::Unit> resume_gate_;
};

}  // namespace alsflow::flow
