#include "flow/engine.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace alsflow::flow {

FlowEngine::FlowEngine(sim::Engine& sim, RunDatabase& db)
    : sim_(sim), db_(db) {
  set_pool_limit("default", 8);
}

void FlowEngine::register_flow(const std::string& name, FlowFn fn,
                               FlowOptions options) {
  flows_[name] = Registration{std::move(fn), std::move(options)};
}

void FlowEngine::register_flow(const std::string& name, FlowFn fn,
                               FlowOptions options, FlowSpec spec) {
  Registration reg{std::move(fn), std::move(options)};
  reg.spec = std::move(spec);
  reg.has_spec = true;
  flows_[name] = std::move(reg);
}

void FlowEngine::set_pool_limit(const std::string& pool, int limit) {
  pools_[pool] = std::make_unique<sim::Semaphore>(limit);
  declared_pools_.insert(pool);
}

// ---------------------------------------------------------------------------
// Static flow-graph validation
// ---------------------------------------------------------------------------

std::string ValidationIssue::render() const {
  std::string out = "flow '" + flow + "'";
  if (!task.empty()) out += " task '" + task + "'";
  return out + ": [" + rule + "] " + message;
}

TaskSpec task_spec(const std::string& flow, const std::string& name,
                   std::vector<std::string> deps, bool uses_transfer,
                   bool uses_hpc) {
  TaskSpec t;
  t.name = name;
  t.depends_on = std::move(deps);
  t.uses_transfer = uses_transfer;
  t.uses_hpc = uses_hpc;
  t.idempotency_key = flow + ":" + name;
  return t;
}

TaskOptions keyed(const FlowContext& ctx, const std::string& task) {
  TaskOptions o;
  std::string& key = o.idempotency_key;
  key.reserve(ctx.flow_name.size() + task.size() + ctx.parameters.size() + 2);
  key.append(ctx.flow_name).append(1, ':').append(task).append(1, ':');
  key.append(ctx.parameters);
  return o;
}

namespace {

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const auto& p : path) {
    if (!out.empty()) out += " -> ";
    out += p;
  }
  return out;
}

}  // namespace

void FlowEngine::validate_registration(const std::string& name,
                                       const Registration& reg,
                                       std::vector<ValidationIssue>& out)
    const {
  const FlowSpec& spec = reg.spec;
  auto issue = [&](const std::string& task, const std::string& rule,
                   std::string message) {
    out.push_back(ValidationIssue{name, task, rule, std::move(message)});
  };

  // Task name index (duplicates rejected; later rules use the first).
  std::map<std::string, const TaskSpec*> by_name;
  for (const auto& t : spec.tasks) {
    if (!by_name.emplace(t.name, &t).second) {
      issue(t.name, "duplicate-task",
            "task '" + t.name + "' is declared more than once");
    }
  }

  // Dependency edges must point at declared tasks.
  std::set<std::string> broken;  // tasks that can never become runnable
  for (const auto& t : spec.tasks) {
    for (const auto& dep : t.depends_on) {
      if (!by_name.count(dep)) {
        issue(t.name, "unknown-dependency",
              "task '" + t.name + "' depends on undeclared task '" + dep +
                  "'");
        broken.insert(t.name);
      }
    }
  }

  // Cycle detection (iterative-friendly DFS; graphs here are tiny).
  // 0 = unvisited, 1 = on the current path, 2 = done.
  std::map<std::string, int> color;
  std::vector<std::string> path;
  std::function<void(const std::string&)> dfs = [&](const std::string& cur) {
    color[cur] = 1;
    path.push_back(cur);
    const TaskSpec* t = by_name.at(cur);
    for (const auto& dep : t->depends_on) {
      auto it = by_name.find(dep);
      if (it == by_name.end()) continue;  // reported above
      const int c = color[dep];
      if (c == 0) {
        dfs(dep);
        if (broken.count(dep)) broken.insert(cur);
      } else if (c == 1) {
        // Found a back edge: report the cycle once, from dep onward.
        auto start = std::find(path.begin(), path.end(), dep);
        std::vector<std::string> cycle(start, path.end());
        cycle.push_back(dep);
        issue(cur, "dependency-cycle",
              "task '" + cur + "' closes a dependency cycle: " +
                  join_path(cycle));
        broken.insert(cur);
      } else if (broken.count(dep)) {
        broken.insert(cur);
      }
    }
    path.pop_back();
    color[cur] = 2;
  };
  for (const auto& [task_name, t] : by_name) {
    (void)t;
    if (color[task_name] == 0) dfs(task_name);
  }

  for (const auto& [task_name, t] : by_name) {
    // A task downstream of a cycle or an unknown dependency never runs.
    if (broken.count(task_name)) {
      bool direct = false;  // already reported with a more specific rule
      for (const auto& o : out) {
        if (o.task == task_name && o.rule != "unreachable-task" &&
            (o.rule == "dependency-cycle" || o.rule == "unknown-dependency")) {
          direct = true;
        }
      }
      if (!direct) {
        issue(task_name, "unreachable-task",
              "task '" + task_name + "' can never run: a transitive "
              "dependency is cyclic or undeclared");
      }
    }
    // External-facility tasks must be retryable: the paper's whole premise
    // is that cross-facility flows survive transient outages.
    if ((t->uses_transfer || t->uses_hpc) && t->max_retries <= 0) {
      issue(task_name, "missing-retry-policy",
            "task '" + task_name + "' touches " +
                (t->uses_transfer ? std::string("the transfer service")
                                  : std::string("an HPC facility")) +
                " but has no retry policy (max_retries <= 0)");
    }
    // Flow-level retries re-execute the body; completed tasks are only
    // skipped if they carry an idempotency key.
    if (reg.options.max_retries > 0 && t->idempotency_key.empty()) {
      issue(task_name, "missing-idempotency-key",
            "task '" + task_name + "' has no idempotency key but flow '" +
                name + "' retries (max_retries=" +
                std::to_string(reg.options.max_retries) +
                "); a retried flow would re-execute completed work");
    }
  }

  // The flow must route to a pool someone actually declared; auto-created
  // pools get a default limit instead of the tuned concurrency.
  if (!declared_pools_.count(reg.options.work_pool)) {
    issue("", "undeclared-pool",
          "flow '" + name + "' routes to work pool '" +
              reg.options.work_pool +
              "' which was never declared via set_pool_limit()");
  }
}

std::vector<ValidationIssue> FlowEngine::validate() const {
  std::vector<ValidationIssue> out;
  for (const auto& [name, reg] : flows_) {
    if (reg.has_spec) validate_registration(name, reg, out);
  }
  return out;
}

std::vector<ValidationIssue> FlowEngine::validate(
    const std::string& name) const {
  std::vector<ValidationIssue> out;
  auto it = flows_.find(name);
  if (it == flows_.end()) {
    out.push_back(ValidationIssue{name, "", "unknown-flow",
                                  "flow '" + name + "' is not registered"});
    return out;
  }
  if (it->second.has_spec) validate_registration(name, it->second, out);
  return out;
}

sim::Semaphore& FlowEngine::pool(const std::string& name) {
  auto it = pools_.find(name);
  if (it == pools_.end()) {
    it = pools_.emplace(name, std::make_unique<sim::Semaphore>(8)).first;
  }
  return *it->second;
}

sim::Future<FlowRunResult> FlowEngine::run_flow_impl(std::string name,
                                                     std::string parameters) {
  auto reg_it = flows_.find(name);
  if (reg_it == flows_.end()) {
    FlowRunResult result;
    result.state = RunState::Failed;
    result.status = Error::make("unknown_flow", name);
    co_return result;
  }
  // Pre-flight: a spec'd flow must validate before any task executes. The
  // clean verdict is cached per registration (re-registering resets it).
  if (reg_it->second.has_spec && !reg_it->second.validated) {
    auto issues = validate(name);
    if (!issues.empty()) {
      for (const auto& iss : issues) {
        log_error("prefect") << "validation: " << iss.render();
      }
      FlowRunResult result;
      result.state = RunState::Failed;
      result.status = Error::make("flow_validation_failed",
                                  issues.front().render());
      co_return result;
    }
    reg_it->second.validated = true;
  }
  // Copy the registration into the coroutine frame before the first
  // suspension: re-registering the same flow name while this run is in
  // flight reassigns the mapped Registration, which would destroy a
  // referenced FlowFn mid-execution.
  const FlowFn fn = reg_it->second.fn;
  const FlowOptions options = reg_it->second.options;

  // A halted (crashed) orchestrator accepts nothing: park the submission
  // until replay() brings the engine back — the client retrying against a
  // dead server. Loop: the engine may halt again between the gate firing
  // and this waiter resuming (each halt installs a fresh gate).
  while (halted_) {
    sim::Event<sim::Unit> gate = resume_gate_;
    co_await gate;
  }

  FlowRunResult result;
  const Seconds submitted_at = sim_.now();
  result.run_id = db_.create_run(name, submitted_at, parameters);

  auto& tel = telemetry::global();
  // The flow span opens at submission so the pool queue wait is visible
  // inside it (a child span closes when the pool slot is acquired).
  const telemetry::SpanId flow_span = tel.begin("flow", name, 0, sim_.now());
  tel.attr(flow_span, "run_id", result.run_id);
  if (!parameters.empty()) tel.attr(flow_span, "parameters", parameters);

  sim::Semaphore& sem = pool(options.work_pool);
  if (tel.enabled()) {
    auto& m = tel.metrics();
    m.counter("alsflow_flow_runs_started_total", "flow=\"" + name + "\"")
        .add();
    m.gauge("alsflow_pool_queue_depth", "pool=\"" + options.work_pool + "\"")
        .set(double(sem.waiting()));
  }
  // A child opens only under a recorded parent, so a flow span missed while
  // tracing was off never leaves its children as orphan roots.
  const telemetry::SpanId queue_span =
      flow_span != 0 ? tel.begin("flow", "pool_wait", flow_span, sim_.now())
                     : 0;
  tel.attr(queue_span, "pool", options.work_pool);
  co_await sem.acquire();
  tel.end(queue_span, sim_.now());
  sim::SemaphoreGuard guard(sem);

  db_.mark_running(result.run_id, sim_.now());
  Status status = Status::success();
  int attempts = 1;
  for (int attempt = 0;; ++attempt) {
    FlowContext ctx{*this, result.run_id, parameters, flow_span, name};
    status = co_await fn(ctx);
    // No flow-level retries while halted: the crashed process quiesces and
    // replay() re-drives the interrupted run instead.
    if (status.ok() || attempt >= options.max_retries || halted_) break;
    attempts = attempt + 2;
    db_.add_retry(result.run_id);
    db_.mark_retrying(result.run_id, sim_.now());
    if (tel.enabled()) {
      tel.metrics()
          .counter("alsflow_flow_retries_total", "flow=\"" + name + "\"")
          .add();
    }
    log_warn("prefect") << name << " run " << result.run_id
                        << " failed (" << status.error().code
                        << "); retrying";
    co_await sim::delay(sim_, options.retry_delay);
    db_.mark_running(result.run_id, sim_.now());
  }

  if (halted_ && !status.ok()) {
    // Crash semantics: the dying process writes no terminal record. The
    // run stays non-terminal in the database, which is exactly the marker
    // replay() uses to find interrupted work.
    result.state = RunState::Running;
    result.status = status;
    tel.attr(flow_span, "state", "interrupted");
    tel.end(flow_span, sim_.now());
    co_return result;
  }

  result.state = status.ok() ? RunState::Completed : RunState::Failed;
  result.status = status;
  db_.mark_finished(result.run_id, result.state, sim_.now(),
                    status.ok() ? "" : status.error().code);
  tel.attr(flow_span, "state", run_state_name(result.state));
  tel.attr(flow_span, "attempts", std::uint64_t(attempts));
  if (!status.ok()) tel.attr(flow_span, "error", status.error().code);
  tel.end(flow_span, sim_.now());
  if (tel.enabled() && !status.ok()) {
    tel.metrics()
        .counter("alsflow_flow_runs_failed_total", "flow=\"" + name + "\"")
        .add();
  }
  tel.emit(sim_.now(), "flow", "run_done", name, sim_.now() - submitted_at,
           status);
  co_return result;
}

void FlowEngine::submit_flow(const std::string& name, std::string parameters) {
  [](FlowEngine* self, std::string n, std::string p) -> sim::Proc {
    (void)co_await self->run_flow(n, std::move(p));
  }(this, name, std::move(parameters))
      .detach();
}

sim::Future<Status> FlowEngine::run_task_impl(
    // ctx outlives the task by contract: it lives in the flow-body frame,
    // which is suspended on (and therefore outlives) this coroutine. See
    // the run_task comment in engine.hpp.
    const FlowContext& ctx,  // check:allow coroutine-ref-param caller-outlives contract, engine.hpp
    std::string task_name,
    std::function<sim::Future<Status>()> body, TaskOptions options) {
  // Cross-check execution against the declared graph: a task the spec
  // doesn't know about means the spec (and everything validate() proved
  // about it) is stale.
  if (!ctx.flow_name.empty()) {
    auto spec_it = flows_.find(ctx.flow_name);
    if (spec_it != flows_.end() && spec_it->second.has_spec) {
      const auto& ts = spec_it->second.spec.tasks;
      const bool declared =
          std::any_of(ts.begin(), ts.end(),
                      [&](const TaskSpec& t) { return t.name == task_name; });
      if (!declared) {
        log_warn("prefect") << ctx.flow_name << ": task '" << task_name
                            << "' executed but not declared in the FlowSpec";
      }
    }
  }
  auto& tel = telemetry::global();
  if (!options.idempotency_key.empty()) {
    if (idempotency_hit(options.idempotency_key)) {
      TaskRunRecord rec;
      rec.flow_run_id = ctx.run_id;
      rec.task_name = task_name;
      rec.state = RunState::Completed;
      rec.started_at = rec.finished_at = sim_.now();
      rec.idempotency_key = options.idempotency_key;
      db_.record_task(rec);
      // Zero-length span: the skip is visible in the trace.
      const telemetry::SpanId skip =
          tel.begin("task", task_name, ctx.span, sim_.now());
      tel.attr(skip, "skipped", "idempotency_hit");
      tel.end(skip, sim_.now());
      if (tel.enabled()) {
        tel.metrics().counter("alsflow_task_idempotent_skips_total").add();
      }
      co_return Status::success();
    }
  }

  TaskRunRecord rec;
  rec.flow_run_id = ctx.run_id;
  rec.task_name = task_name;
  rec.started_at = sim_.now();
  rec.idempotency_key = options.idempotency_key;

  const telemetry::SpanId task_span =
      tel.begin("task", task_name, ctx.span, sim_.now());
  // Expose the active task span so the task body can parent its transfer /
  // HPC spans under it. Keyed by run_id: tasks of one flow run execute
  // sequentially, but runs of different flows interleave freely.
  if (task_span != 0) set_active_task_span(ctx.run_id, task_span);

  Status status = Status::success();
  Seconds next_delay = options.retry_delay;
  for (int attempt = 0;; ++attempt) {
    // Fail fast under halt: a crashed orchestrator starts no attempt and
    // burns no retry budget; replay() re-queues the work instead.
    if (halted_) {
      status = Error::make("engine_halted", task_name);
      break;
    }
    ++rec.attempts;
    status = co_await body();
    if (status.ok() || attempt >= options.max_retries || halted_) break;
    if (tel.enabled()) {
      tel.metrics()
          .counter("alsflow_task_retries_total", "task=\"" + task_name + "\"")
          .add();
    }
    log_warn("prefect") << task_name << " attempt " << attempt + 1
                        << " failed (" << status.error().code << ")";
    co_await sim::delay(sim_, next_delay);
    next_delay *= options.backoff;
  }
  if (task_span != 0) clear_active_task_span(ctx.run_id);

  // A task cut off by halt() writes nothing (the crashed process never got
  // to): from the database's point of view it simply never finished, and
  // replay() re-queues it with the interrupted run. Successes still record
  // — the work is durably done even if the orchestrator died after.
  const bool crash_interrupted = halted_ && !status.ok();

  rec.finished_at = sim_.now();
  rec.state = status.ok() ? RunState::Completed : RunState::Failed;
  rec.error = status.ok() ? "" : status.error().code;
  if (!crash_interrupted) db_.record_task(rec);
  tel.attr(task_span, "attempts", std::uint64_t(rec.attempts));
  tel.attr(task_span, "state", run_state_name(rec.state));
  if (!status.ok()) tel.attr(task_span, "error", status.error().code);
  tel.end(task_span, sim_.now());
  // Cache *successes* only: recording a failed status would let a later
  // failed attempt clobber an earlier recorded success for the same key
  // and defeat skip-on-retry.
  if (!options.idempotency_key.empty() && status.ok()) {
    remember_idempotent_success(options.idempotency_key);
  }
  co_return status;
}

void FlowEngine::halt() {
  if (halted_) return;
  halted_ = true;
  resume_gate_ = sim::Event<sim::Unit>();
  {
    // The cache is process memory; a crash loses it. replay() proves what
    // survived from the durable task records instead.
    LockGuard lock(mu_);
    idempotency_cache_.clear();
    idempotency_order_.clear();
  }
  log_warn("prefect") << "engine halted: volatile state dropped, "
                         "submissions parked until replay";
}

ReplayReport FlowEngine::replay() {
  ReplayReport report;

  // 1. Rebuild the idempotency cache from durable completed-task records.
  // Duplicate records for one key collapse into a single entry; records
  // whose flow_run_id points at nothing are still safe to restore (the key
  // itself names the work); partial (non-terminal) records restore nothing
  // so the work re-runs.
  {
    std::set<std::string> restored;
    for (const auto& rec : db_.task_records()) {
      if (rec.state != RunState::Completed || rec.idempotency_key.empty()) {
        continue;
      }
      if (restored.insert(rec.idempotency_key).second) {
        remember_idempotent_success(rec.idempotency_key);
        ++report.keys_restored;
      }
    }
  }

  // 2. Every non-terminal flow run is work the crash cut off. Cancel the
  // stale record, then resubmit each distinct (flow, parameters) pair once
  // — unless some other run of that pair already completed.
  std::set<std::pair<std::string, std::string>> completed_pairs;
  for (const auto& run : db_.runs()) {
    if (run.state == RunState::Completed) {
      completed_pairs.insert({run.flow_name, run.parameters});
    }
  }
  std::vector<std::pair<std::string, std::string>> resubmit;  // db order
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& run : db_.runs()) {
    if (is_terminal(run.state)) continue;
    db_.mark_finished(run.id, RunState::Cancelled, sim_.now(),
                      "interrupted_by_crash");
    ++report.runs_cancelled;
    // A crash-cancelled run is a failed completion from the SLO's point of
    // view, attributed to the orchestrator, not any facility.
    telemetry::global().emit(sim_.now(), "flow", "run_done", run.flow_name,
                             sim_.now() - run.created_at, false,
                             "interrupted_by_crash");
    if (flows_.find(run.flow_name) == flows_.end()) {
      // A record for a flow nobody registered (renamed flow, foreign
      // database): tolerated, never fatal.
      ++report.records_ignored;
      log_warn("prefect") << "replay: run " << run.id
                          << " names unregistered flow '" << run.flow_name
                          << "'; skipped";
      continue;
    }
    const auto pair = std::make_pair(run.flow_name, run.parameters);
    if (completed_pairs.count(pair)) continue;  // finished elsewhere
    if (seen.insert(pair).second) resubmit.push_back(pair);
  }

  // 3. Back in business: release parked submissions, then re-drive the
  // interrupted work. Order matters — halted_ must drop first so the
  // resubmitted runs don't park on the gate themselves.
  halted_ = false;
  resume_gate_.trigger();
  for (const auto& [flow_name, parameters] : resubmit) {
    submit_flow(flow_name, parameters);
    ++report.runs_resubmitted;
  }
  log_warn("prefect") << "replay: restored " << report.keys_restored
                      << " completed-task keys, cancelled "
                      << report.runs_cancelled << " stale runs, resubmitted "
                      << report.runs_resubmitted;
  return report;
}

void FlowEngine::remember_idempotent_success(const std::string& key) {
  LockGuard lock(mu_);
  const auto [it, inserted] = idempotency_cache_.insert(key);
  if (!inserted) return;  // already cached
  idempotency_order_.push_back(it);
  // FIFO bound so long campaigns (millions of task runs) cannot grow the
  // cache without limit; an evicted key simply re-executes its task.
  while (idempotency_order_.size() > kIdempotencyCacheCapacity) {
    idempotency_cache_.erase(idempotency_order_.front());
    idempotency_order_.pop_front();
  }
}

bool FlowEngine::idempotency_hit(const std::string& key) const {
  LockGuard lock(mu_);
  return idempotency_cache_.count(key) != 0;
}

void FlowEngine::set_active_task_span(const std::string& run_id,
                                      telemetry::SpanId span) {
  LockGuard lock(mu_);
  active_task_spans_[run_id] = span;
}

void FlowEngine::clear_active_task_span(const std::string& run_id) {
  LockGuard lock(mu_);
  active_task_spans_.erase(run_id);
}

void FlowEngine::arm_schedule(std::shared_ptr<Schedule> schedule,
                              Seconds delay) {
  sim_.schedule_in(delay, [this, schedule] {
    if (!schedule->alive) return;
    [](FlowEngine* self, std::shared_ptr<Schedule> s) -> sim::Proc {
      (void)co_await self->run_flow(s->flow, s->parameters);
      self->arm_schedule(s, s->interval);
    }(this, schedule)
        .detach();
  });
}

int FlowEngine::schedule_periodic(const std::string& name, Seconds interval,
                                  Seconds initial_delay,
                                  std::string parameters) {
  auto schedule = std::make_shared<Schedule>();
  schedule->flow = name;
  schedule->parameters = std::move(parameters);
  schedule->interval = interval;
  const int handle = next_schedule_++;
  schedules_[handle] = schedule;
  arm_schedule(std::move(schedule), initial_delay);
  return handle;
}

void FlowEngine::cancel_schedule(int handle) {
  auto it = schedules_.find(handle);
  if (it != schedules_.end()) {
    it->second->alive = false;
    schedules_.erase(it);
  }
}

}  // namespace alsflow::flow
