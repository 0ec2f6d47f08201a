#include <gtest/gtest.h>

#include <vector>

#include "flow/engine.hpp"
#include "flow/run_db.hpp"

namespace alsflow::flow {
namespace {

using sim::Engine;

struct World {
  Engine eng;
  RunDatabase db;
  FlowEngine flows{eng, db};
};

TEST(RunDb, LifecycleAndQueries) {
  RunDatabase db;
  auto id = db.create_run("new_file_832", 10.0, "scan=abc");
  db.mark_running(id, 12.0);
  db.mark_finished(id, RunState::Completed, 70.0);

  const auto* rec = db.run(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->flow_name, "new_file_832");
  EXPECT_EQ(rec->parameters, "scan=abc");
  EXPECT_DOUBLE_EQ(rec->duration(), 60.0);
  EXPECT_EQ(db.runs("new_file_832").size(), 1u);
  EXPECT_EQ(db.runs("other").size(), 0u);
  EXPECT_EQ(db.runs().size(), 1u);
}

TEST(RunDb, DurationSummaryLastN) {
  RunDatabase db;
  for (int i = 0; i < 10; ++i) {
    auto id = db.create_run("f", double(i * 100));
    db.mark_running(id, double(i * 100));
    db.mark_finished(id, RunState::Completed, double(i * 100 + 10 + i));
  }
  // Last 5 runs have durations 15..19.
  auto s = db.duration_summary("f", 5);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 17.0);
  EXPECT_DOUBLE_EQ(s.min, 15.0);
  EXPECT_DOUBLE_EQ(s.max, 19.0);

  // "Last N" is the last N created: a run created first and finished last
  // is the oldest, however late it completes.
  RunDatabase late;
  const auto slow = late.create_run("f", 0.0);
  for (int i = 1; i <= 4; ++i) {
    auto id = late.create_run("f", double(i * 100));
    late.mark_finished(id, RunState::Completed, double(i * 100 + 10));
  }
  late.mark_finished(slow, RunState::Completed, 1000.0);
  auto last3 = late.duration_summary("f", 3);
  EXPECT_EQ(last3.n, 3u);
  EXPECT_DOUBLE_EQ(last3.max, 10.0);
  EXPECT_DOUBLE_EQ(late.duration_summary("f", 5).max, 1000.0);
}

TEST(RunDb, SummaryIgnoresFailures) {
  RunDatabase db;
  auto ok = db.create_run("f", 0.0);
  db.mark_finished(ok, RunState::Completed, 10.0);
  auto bad = db.create_run("f", 0.0);
  db.mark_finished(bad, RunState::Failed, 99.0, "timeout");
  auto s = db.duration_summary("f", 100);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 10.0);
  EXPECT_NEAR(db.success_rate("f"), 0.5, 1e-12);
}

TEST(RunDb, TaskDurationSummaryFiltersByFlowAndState) {
  RunDatabase db;
  auto add_task = [&](const std::string& run_id, const std::string& name,
                      double start, double finish, RunState state) {
    TaskRunRecord rec;
    rec.flow_run_id = run_id;
    rec.task_name = name;
    rec.state = state;
    rec.started_at = start;
    rec.finished_at = finish;
    db.record_task(rec);
  };
  auto a = db.create_run("recon", 0.0);
  auto b = db.create_run("recon", 0.0);
  auto other = db.create_run("archive", 0.0);
  add_task(a, "stage", 0.0, 10.0, RunState::Completed);
  add_task(a, "submit", 10.0, 40.0, RunState::Completed);
  add_task(b, "stage", 0.0, 20.0, RunState::Completed);
  add_task(b, "submit", 20.0, 30.0, RunState::Failed);     // excluded: failed
  add_task(other, "stage", 0.0, 99.0, RunState::Completed); // excluded: flow

  auto s = db.task_duration_summary("recon", "stage");
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 20.0);
  EXPECT_EQ(db.task_duration_summary("recon", "submit").n, 1u);
  // Empty flow name matches any flow.
  EXPECT_EQ(db.task_duration_summary("", "stage").n, 3u);

  auto names = db.task_names("recon");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "stage");
  EXPECT_EQ(names[1], "submit");
}

TEST(RunDb, TaskDurationSummaryLastN) {
  RunDatabase db;
  auto id = db.create_run("f", 0.0);
  const std::string task = "t";
  for (int i = 0; i < 10; ++i) {
    TaskRunRecord rec;
    rec.flow_run_id = id;
    rec.task_name = task;
    rec.state = RunState::Completed;
    rec.started_at = 0.0;
    rec.finished_at = double(i + 1);  // durations 1..10
    db.record_task(rec);
  }
  auto s = db.task_duration_summary("f", "t", 3);
  EXPECT_EQ(s.n, 3u);  // last 3: durations 8, 9, 10
  EXPECT_DOUBLE_EQ(s.mean, 9.0);
  EXPECT_DOUBLE_EQ(s.min, 8.0);
}

TEST(RunDb, TaskDurationQuantilesMatchSummarySampleSet) {
  RunDatabase db;
  auto id = db.create_run("f", 0.0);
  const std::string task = "t";
  for (int i = 0; i < 100; ++i) {
    TaskRunRecord rec;
    rec.flow_run_id = id;
    rec.task_name = task;
    rec.state = RunState::Completed;
    rec.started_at = 0.0;
    rec.finished_at = double(i + 1);  // durations 1..100
    db.record_task(rec);
  }
  auto q = db.task_duration_quantiles("f", "t");
  EXPECT_EQ(q.n, 100u);
  // Exact order statistics over the same samples the summary uses
  // (linear interpolation between ranks, as percentile_sorted does).
  EXPECT_DOUBLE_EQ(q.p50, db.task_duration_summary("f", "t").median);
  EXPECT_DOUBLE_EQ(q.p50, 50.5);
  EXPECT_DOUBLE_EQ(q.p95, 95.05);
  EXPECT_DOUBLE_EQ(q.p99, 99.01);
  // last_n windows the same way the summary does.
  EXPECT_EQ(db.task_duration_quantiles("f", "t", 10).n, 10u);
  // No matching records: all-zero result.
  auto none = db.task_duration_quantiles("f", "missing");
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);
}

TEST(FlowEngine, RunsRegisteredFlow) {
  World w;
  bool ran = false;
  w.flows.register_flow("hello", [&](FlowContext ctx) -> sim::Future<Status> {
    ran = true;
    EXPECT_FALSE(ctx.run_id.empty());
    co_await sim::delay(ctx.engine.sim(), 5.0);
    co_return Status::success();
  });
  auto fut = w.flows.run_flow("hello");
  w.eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fut.value().state, RunState::Completed);
  EXPECT_DOUBLE_EQ(w.db.runs("hello")[0].duration(), 5.0);
}

TEST(FlowEngine, UnknownFlowFails) {
  World w;
  auto fut = w.flows.run_flow("nope");
  w.eng.run();
  EXPECT_EQ(fut.value().state, RunState::Failed);
  EXPECT_EQ(fut.value().status.error().code, "unknown_flow");
}

TEST(FlowEngine, FlowRetriesOnFailure) {
  World w;
  int attempts = 0;
  FlowOptions opts;
  opts.max_retries = 2;
  opts.retry_delay = 1.0;
  w.flows.register_flow(
      "flaky",
      [&](FlowContext ctx) -> sim::Future<Status> {
        (void)ctx;
        ++attempts;
        if (attempts < 3) co_return Error::make("transient");
        co_return Status::success();
      },
      opts);
  auto fut = w.flows.run_flow("flaky");
  w.eng.run();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(fut.value().state, RunState::Completed);
  EXPECT_EQ(w.db.runs("flaky")[0].retries, 2);
}

TEST(FlowEngine, FlowFailsAfterRetriesExhausted) {
  World w;
  FlowOptions opts;
  opts.max_retries = 1;
  opts.retry_delay = 1.0;
  w.flows.register_flow(
      "doomed",
      [&](FlowContext) -> sim::Future<Status> {
        co_return Error::make("permission_denied");
      },
      opts);
  auto fut = w.flows.run_flow("doomed");
  w.eng.run();
  EXPECT_EQ(fut.value().state, RunState::Failed);
  EXPECT_EQ(w.db.runs("doomed")[0].error, "permission_denied");
}

TEST(FlowEngine, PoolConcurrencyLimit) {
  World w;
  w.flows.set_pool_limit("hpc", 2);
  std::vector<double> started;
  FlowOptions opts;
  opts.work_pool = "hpc";
  w.flows.register_flow(
      "job",
      [&](FlowContext ctx) -> sim::Future<Status> {
        started.push_back(ctx.engine.sim().now());
        co_await sim::delay(ctx.engine.sim(), 10.0);
        co_return Status::success();
      },
      opts);
  for (int i = 0; i < 4; ++i) w.flows.submit_flow("job");
  w.eng.run();
  ASSERT_EQ(started.size(), 4u);
  EXPECT_DOUBLE_EQ(started[0], 0.0);
  EXPECT_DOUBLE_EQ(started[1], 0.0);
  EXPECT_DOUBLE_EQ(started[2], 10.0);
  EXPECT_DOUBLE_EQ(started[3], 10.0);
}

TEST(FlowEngine, TaskRetriesWithBackoff) {
  World w;
  int attempts = 0;
  std::vector<double> attempt_times;
  w.flows.register_flow("f", [&](FlowContext ctx) -> sim::Future<Status> {
    TaskOptions topts;
    topts.max_retries = 3;
    topts.retry_delay = 1.0;
    topts.backoff = 2.0;
    co_return co_await ctx.engine.run_task(
        ctx, "stage",
        [&]() -> sim::Future<Status> {
          attempt_times.push_back(w.eng.now());
          ++attempts;
          if (attempts < 4) co_return Error::make("transient");
          co_return Status::success();
        },
        topts);
  });
  auto fut = w.flows.run_flow("f");
  w.eng.run();
  EXPECT_EQ(fut.value().state, RunState::Completed);
  ASSERT_EQ(attempt_times.size(), 4u);
  // Delays: 1, 2, 4 (exponential backoff).
  EXPECT_DOUBLE_EQ(attempt_times[1] - attempt_times[0], 1.0);
  EXPECT_DOUBLE_EQ(attempt_times[2] - attempt_times[1], 2.0);
  EXPECT_DOUBLE_EQ(attempt_times[3] - attempt_times[2], 4.0);
}

TEST(FlowEngine, TaskRecordsInDb) {
  World w;
  w.flows.register_flow("f", [&](FlowContext ctx) -> sim::Future<Status> {
    co_return co_await ctx.engine.run_task(
        ctx, "ingest", []() -> sim::Future<Status> {
          co_return Status::success();
        });
  });
  auto fut = w.flows.run_flow("f");
  w.eng.run();
  auto tasks = w.db.tasks(fut.value().run_id);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].task_name, "ingest");
  EXPECT_EQ(tasks[0].state, RunState::Completed);
  EXPECT_EQ(tasks[0].attempts, 1);
}

TEST(FlowEngine, IdempotentTaskSkipsSecondExecution) {
  World w;
  int executions = 0;
  w.flows.register_flow("f", [&](FlowContext ctx) -> sim::Future<Status> {
    TaskOptions topts;
    topts.idempotency_key = "copy:scan-123";
    co_return co_await ctx.engine.run_task(
        ctx, "copy",
        [&]() -> sim::Future<Status> {
          ++executions;
          co_return Status::success();
        },
        topts);
  });
  auto a = w.flows.run_flow("f");
  w.eng.run();
  auto b = w.flows.run_flow("f");
  w.eng.run();
  EXPECT_EQ(executions, 1);  // second run reuses the cached success
  EXPECT_EQ(b.value().state, RunState::Completed);
}

TEST(FlowEngine, FailedIdempotentTaskRetriesNextRun) {
  World w;
  int executions = 0;
  w.flows.register_flow("f", [&](FlowContext ctx) -> sim::Future<Status> {
    TaskOptions topts;
    topts.idempotency_key = "push:scan-9";
    topts.max_retries = 0;
    co_return co_await ctx.engine.run_task(
        ctx, "push",
        [&]() -> sim::Future<Status> {
          ++executions;
          if (executions == 1) co_return Error::make("transient");
          co_return Status::success();
        },
        topts);
  });
  auto a = w.flows.run_flow("f");
  w.eng.run();
  EXPECT_EQ(a.value().state, RunState::Failed);
  auto b = w.flows.run_flow("f");
  w.eng.run();
  EXPECT_EQ(executions, 2);  // failure is not cached as success
  EXPECT_EQ(b.value().state, RunState::Completed);
}

TEST(FlowEngine, ReRegisterWhileRunIsInFlightIsSafe) {
  // Regression: run_flow_impl used to hold a reference to the Registration
  // across co_await; re-registering the same name mid-run reassigned the
  // mapped value and destroyed the running FlowFn. The registration must
  // be copied into the coroutine frame instead.
  World w;
  bool old_body_finished = false;
  bool new_body_ran = false;
  w.flows.register_flow("recon", [&](FlowContext ctx) -> sim::Future<Status> {
    co_await sim::delay(ctx.engine.sim(), 5.0);
    // While this run is suspended, replace the registration.
    ctx.engine.register_flow("recon",
                             [&](FlowContext) -> sim::Future<Status> {
                               new_body_ran = true;
                               co_return Status::success();
                             });
    co_await sim::delay(ctx.engine.sim(), 5.0);
    old_body_finished = true;  // original fn must still be alive here
    co_return Status::success();
  });
  auto first = w.flows.run_flow("recon");
  w.eng.run();
  EXPECT_TRUE(old_body_finished);
  EXPECT_EQ(first.value().state, RunState::Completed);

  auto second = w.flows.run_flow("recon");
  w.eng.run();
  EXPECT_TRUE(new_body_ran);
  EXPECT_EQ(second.value().state, RunState::Completed);
}

TEST(FlowEngine, ReRegisterWithRetriesUsesCapturedOptions) {
  // The retry policy in effect when the run started must keep applying
  // even if the flow is re-registered (with different options) mid-run.
  World w;
  int attempts = 0;
  FlowOptions opts;
  opts.max_retries = 2;
  opts.retry_delay = 1.0;
  w.flows.register_flow(
      "flaky",
      [&](FlowContext ctx) -> sim::Future<Status> {
        ++attempts;
        FlowOptions none;  // 0 retries
        ctx.engine.register_flow(
            "flaky",
            [](FlowContext) -> sim::Future<Status> {
              co_return Status::success();
            },
            none);
        co_await sim::delay(ctx.engine.sim(), 1.0);
        if (attempts < 3) co_return Error::make("transient");
        co_return Status::success();
      },
      opts);
  auto fut = w.flows.run_flow("flaky");
  w.eng.run();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(fut.value().state, RunState::Completed);
}

TEST(FlowEngine, ConcurrentFailureDoesNotClobberCachedSuccess) {
  // Two in-flight flows share one idempotency key; the fast one succeeds,
  // the slow one fails afterwards. The failure must not overwrite the
  // recorded success (a third run still skips the task).
  World w;
  int executions = 0;
  auto body = [&w, &executions](FlowContext ctx, Seconds d,
                                bool fail) -> sim::Future<Status> {
    TaskOptions topts;
    topts.idempotency_key = "stage:scan-7";
    topts.max_retries = 0;
    const Seconds delay = d;
    const bool should_fail = fail;
    std::function<sim::Future<Status>()> task =
        [&w, &executions, delay, should_fail]() -> sim::Future<Status> {
      ++executions;
      co_await sim::delay(w.eng, delay);
      if (should_fail) co_return Error::make("transient");
      co_return Status::success();
    };
    co_return co_await ctx.engine.run_task(ctx, "stage", task, topts);
  };
  w.flows.register_flow("fast", [&](FlowContext ctx) -> sim::Future<Status> {
    co_return co_await body(ctx, 1.0, false);
  });
  w.flows.register_flow("slow", [&](FlowContext ctx) -> sim::Future<Status> {
    co_return co_await body(ctx, 3.0, true);
  });
  auto fa = w.flows.run_flow("fast");
  auto fb = w.flows.run_flow("slow");
  w.eng.run();
  EXPECT_EQ(fa.value().state, RunState::Completed);
  EXPECT_EQ(fb.value().state, RunState::Failed);
  EXPECT_EQ(executions, 2);

  w.flows.register_flow("again", [&](FlowContext ctx) -> sim::Future<Status> {
    co_return co_await body(ctx, 0.0, false);
  });
  auto fc = w.flows.run_flow("again");
  w.eng.run();
  EXPECT_EQ(fc.value().state, RunState::Completed);
  EXPECT_EQ(executions, 2);  // cached success survived the later failure
}

TEST(FlowEngine, IdempotencyCacheIsBounded) {
  World w;
  w.flows.register_flow("k", [&](FlowContext ctx) -> sim::Future<Status> {
    TaskOptions topts;
    topts.idempotency_key = ctx.parameters;
    std::function<sim::Future<Status>()> task = []() -> sim::Future<Status> {
      co_return Status::success();
    };
    co_return co_await ctx.engine.run_task(ctx, "t", task, topts);
  });
  const std::size_t total = FlowEngine::kIdempotencyCacheCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    (void)w.flows.run_flow("k", "key-" + std::to_string(i));
    w.eng.run();
  }
  EXPECT_EQ(w.flows.idempotency_cache_size(),
            FlowEngine::kIdempotencyCacheCapacity);
}

TEST(FlowEngine, PeriodicScheduleRunsAndCancels) {
  World w;
  int runs = 0;
  w.flows.register_flow("prune", [&](FlowContext) -> sim::Future<Status> {
    ++runs;
    co_return Status::success();
  });
  int handle = w.flows.schedule_periodic("prune", 100.0, 10.0);
  w.eng.run_until(350.0);
  EXPECT_EQ(runs, 4);  // t = 10, 110, 210, 310
  w.flows.cancel_schedule(handle);
  w.eng.run_until(1000.0);
  EXPECT_EQ(runs, 4);  // cancellation takes effect before the next firing
}

// ---------------------------------------------------------------------------
// Static flow-graph validation (FlowEngine::validate)
// ---------------------------------------------------------------------------

FlowFn noop_flow() {
  return [](FlowContext) -> sim::Future<Status> {
    co_return Status::success();
  };
}

TaskSpec simple_task(std::string name, std::vector<std::string> deps = {}) {
  TaskSpec t;
  t.name = name;
  t.depends_on = std::move(deps);
  t.idempotency_key = "corpus:" + name;
  return t;
}

const ValidationIssue* find_issue(const std::vector<ValidationIssue>& issues,
                                  const std::string& rule) {
  for (const auto& i : issues) {
    if (i.rule == rule) return &i;
  }
  return nullptr;
}

TEST(FlowValidation, CleanGraphPasses) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("stage"), simple_task("ingest", {"stage"})};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  EXPECT_TRUE(w.flows.validate().empty());
  EXPECT_TRUE(w.flows.validate("f").empty());
}

TEST(FlowValidation, SpecLessFlowsAreNotValidated) {
  World w;
  w.flows.register_flow("adhoc", noop_flow());
  EXPECT_TRUE(w.flows.validate().empty());
  EXPECT_TRUE(w.flows.validate("adhoc").empty());
}

TEST(FlowValidation, RejectsDuplicateTask) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("stage"), simple_task("stage")};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  auto issues = w.flows.validate("f");
  const auto* issue = find_issue(issues, "duplicate-task");
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->task, "stage");
  EXPECT_NE(issue->message.find("stage"), std::string::npos);
}

TEST(FlowValidation, RejectsUnknownDependency) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("ingest", {"phantom_task"})};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  auto issues = w.flows.validate("f");
  const auto* issue = find_issue(issues, "unknown-dependency");
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->task, "ingest");
  EXPECT_NE(issue->message.find("phantom_task"), std::string::npos);
}

TEST(FlowValidation, RejectsDependencyCycleNamingThePath) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("alpha", {"gamma"}),
                simple_task("beta", {"alpha"}),
                simple_task("gamma", {"beta"})};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  auto issues = w.flows.validate("f");
  const auto* issue = find_issue(issues, "dependency-cycle");
  ASSERT_NE(issue, nullptr);
  EXPECT_FALSE(issue->task.empty());
  // The diagnostic spells out the whole cycle, not just one edge.
  EXPECT_NE(issue->message.find("alpha"), std::string::npos);
  EXPECT_NE(issue->message.find("beta"), std::string::npos);
  EXPECT_NE(issue->message.find("gamma"), std::string::npos);
  EXPECT_NE(issue->message.find("->"), std::string::npos);
}

TEST(FlowValidation, RejectsTaskDownstreamOfCycleAsUnreachable) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("loop", {"loop"}),
                simple_task("downstream", {"loop"})};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  auto issues = w.flows.validate("f");
  ASSERT_NE(find_issue(issues, "dependency-cycle"), nullptr);
  const auto* issue = find_issue(issues, "unreachable-task");
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->task, "downstream");
  EXPECT_NE(issue->message.find("downstream"), std::string::npos);
}

TEST(FlowValidation, RejectsExternalFacilityTaskWithoutRetryPolicy) {
  World w;
  FlowSpec spec;
  TaskSpec move = simple_task("globus_move");
  move.uses_transfer = true;
  move.max_retries = 0;
  TaskSpec job = simple_task("slurm_job", {"globus_move"});
  job.uses_hpc = true;
  job.max_retries = -1;
  spec.tasks = {move, job};
  w.flows.register_flow("f", noop_flow(), FlowOptions{}, spec);
  auto issues = w.flows.validate("f");
  std::size_t n = 0;
  for (const auto& i : issues) {
    if (i.rule == "missing-retry-policy") {
      ++n;
      EXPECT_TRUE(i.task == "globus_move" || i.task == "slurm_job");
      EXPECT_NE(i.message.find(i.task), std::string::npos);
    }
  }
  EXPECT_EQ(n, 2u);
}

TEST(FlowValidation, RejectsMissingIdempotencyKeyOnRetryingFlow) {
  World w;
  FlowSpec spec;
  TaskSpec stage = simple_task("stage");
  stage.idempotency_key.clear();  // retried flow would re-run this task
  spec.tasks = {stage};
  FlowOptions options;
  options.max_retries = 2;
  w.flows.register_flow("f", noop_flow(), options, spec);
  auto issues = w.flows.validate("f");
  const auto* issue = find_issue(issues, "missing-idempotency-key");
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->task, "stage");
  EXPECT_NE(issue->message.find("stage"), std::string::npos);

  // The same graph without flow-level retries is fine: nothing re-executes.
  w.flows.register_flow("g", noop_flow(), FlowOptions{}, spec);
  EXPECT_TRUE(w.flows.validate("g").empty());
}

TEST(FlowValidation, RejectsUndeclaredWorkPool) {
  World w;
  FlowSpec spec;
  spec.tasks = {simple_task("stage")};
  FlowOptions options;
  options.work_pool = "mystery-pool";
  w.flows.register_flow("f", noop_flow(), options, spec);
  auto issues = w.flows.validate("f");
  const auto* issue = find_issue(issues, "undeclared-pool");
  ASSERT_NE(issue, nullptr);
  EXPECT_NE(issue->message.find("mystery-pool"), std::string::npos);

  // Declaring the pool clears the issue.
  w.flows.set_pool_limit("mystery-pool", 4);
  EXPECT_TRUE(w.flows.validate("f").empty());
}

TEST(FlowValidation, InvalidFlowFailsBeforeAnyTaskExecutes) {
  World w;
  bool executed = false;
  FlowSpec spec;
  spec.tasks = {simple_task("ingest", {"phantom_task"})};
  FlowFn body = [&](FlowContext) -> sim::Future<Status> {
    executed = true;
    co_return Status::success();
  };
  w.flows.register_flow("bad", body, FlowOptions{}, spec);
  auto fut = w.flows.run_flow("bad");
  w.eng.run();
  EXPECT_FALSE(executed);
  EXPECT_EQ(fut.value().state, RunState::Failed);
  EXPECT_EQ(fut.value().status.error().code, "flow_validation_failed");
  // The diagnostic carried by the status names the offending task.
  EXPECT_NE(fut.value().status.error().message.find("ingest"),
            std::string::npos);

  // Re-registering with a sound graph makes the same name runnable.
  FlowSpec fixed;
  fixed.tasks = {simple_task("ingest")};
  w.flows.register_flow("bad", body, FlowOptions{}, fixed);
  auto fut2 = w.flows.run_flow("bad");
  w.eng.run();
  EXPECT_TRUE(executed);
  EXPECT_EQ(fut2.value().state, RunState::Completed);
}

TEST(FlowValidation, ValidateUnknownFlowReportsIt) {
  World w;
  auto issues = w.flows.validate("nope");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().rule, "unknown-flow");
  EXPECT_NE(issues.front().render().find("nope"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Crash recovery: halt() / replay()
// ---------------------------------------------------------------------------

// A flow with one keyed task; `executions` counts real (non-skipped) runs
// of the task body.
void register_counting_flow(World& w, const std::string& name,
                            int* executions) {
  w.flows.register_flow(
      name, [&w, executions](FlowContext ctx) -> sim::Future<Status> {
        std::function<sim::Future<Status>()> body =
            [&w, executions]() -> sim::Future<Status> {
          ++*executions;
          co_await sim::delay(w.eng, 2.0);
          co_return Status::success();
        };
        TaskOptions opts;
        opts.idempotency_key = ctx.flow_name + ":work:" + ctx.parameters;
        co_return co_await ctx.engine.run_task(ctx, "work", body, opts);
      });
}

TEST(Replay, HaltParksSubmissionsUntilReplay) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  w.flows.halt();
  auto fut = w.flows.run_flow("f", "s1");
  w.eng.schedule_at(10.0, [&] { (void)w.flows.replay(); });
  w.eng.run();
  // The submission parked on the halt gate and only ran after replay.
  EXPECT_EQ(fut.value().state, RunState::Completed);
  EXPECT_EQ(executions, 1);
  EXPECT_GE(w.db.runs("f").back().started_at, 10.0);
}

TEST(Replay, RestoresIdempotencyFromDurableRecords) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  // Durable history: a crashed run of (f, s1) whose task completed before
  // the crash. The run record is non-terminal; the task record carries the
  // key.
  auto stale = w.db.create_run("f", 0.0, "s1");
  TaskRunRecord done;
  done.flow_run_id = stale;
  done.task_name = "work";
  done.state = RunState::Completed;
  done.attempts = 1;
  done.idempotency_key = "f:work:s1";
  w.db.record_task(done);

  auto report = w.flows.replay();
  w.eng.run();
  EXPECT_EQ(report.keys_restored, 1u);
  EXPECT_EQ(report.runs_cancelled, 1u);
  EXPECT_EQ(report.runs_resubmitted, 1u);
  // The resubmitted run skipped the completed task via the restored cache.
  EXPECT_EQ(executions, 0);
  EXPECT_EQ(w.db.run(stale)->state, RunState::Cancelled);
  EXPECT_EQ(w.db.runs("f").back().state, RunState::Completed);
}

TEST(Replay, SkipsPairAlreadyCompletedElsewhere) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  auto finished = w.db.create_run("f", 0.0, "s1");
  w.db.mark_finished(finished, RunState::Completed, 5.0);
  auto stale = w.db.create_run("f", 1.0, "s1");  // duplicate, interrupted
  (void)stale;
  auto report = w.flows.replay();
  w.eng.run();
  EXPECT_EQ(report.runs_cancelled, 1u);
  EXPECT_EQ(report.runs_resubmitted, 0u);
  EXPECT_EQ(executions, 0);
}

// --- malformed-record tolerance: one test per class -----------------------

TEST(Replay, ToleratesDuplicateTaskRecords) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  auto stale = w.db.create_run("f", 0.0, "s1");
  for (int i = 0; i < 3; ++i) {
    TaskRunRecord rec;
    rec.flow_run_id = stale;
    rec.task_name = "work";
    rec.state = RunState::Completed;
    rec.attempts = 1;
    rec.idempotency_key = "f:work:s1";
    w.db.record_task(rec);
  }
  auto report = w.flows.replay();
  w.eng.run();
  // Three identical records collapse into one restored key; no crash, no
  // re-execution.
  EXPECT_EQ(report.keys_restored, 1u);
  EXPECT_EQ(executions, 0);
}

TEST(Replay, ToleratesRecordsForUnknownFlows) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  // A stale run of a flow nobody registered (renamed flow / foreign DB),
  // plus a task record pointing at a flow run that doesn't exist at all.
  w.db.create_run("ghost", 0.0, "s9");
  TaskRunRecord orphan;
  orphan.flow_run_id = "no-such-run";
  orphan.task_name = "work";
  orphan.state = RunState::Completed;
  orphan.idempotency_key = "ghost:work:s9";
  w.db.record_task(orphan);

  auto report = w.flows.replay();
  w.eng.run();
  // Cancelled but not resubmitted; the orphan key restores harmlessly.
  EXPECT_EQ(report.runs_cancelled, 1u);
  EXPECT_EQ(report.records_ignored, 1u);
  EXPECT_EQ(report.runs_resubmitted, 0u);
  EXPECT_EQ(w.db.runs("ghost").back().state, RunState::Cancelled);
}

TEST(Replay, ToleratesPartialTaskRecords) {
  World w;
  int executions = 0;
  register_counting_flow(w, "f", &executions);
  auto stale = w.db.create_run("f", 0.0, "s1");
  // Started-but-never-finished task record: must restore nothing, so the
  // resubmitted run re-executes the task.
  TaskRunRecord partial;
  partial.flow_run_id = stale;
  partial.task_name = "work";
  partial.state = RunState::Running;
  partial.attempts = 1;
  partial.idempotency_key = "f:work:s1";
  w.db.record_task(partial);

  auto report = w.flows.replay();
  w.eng.run();
  EXPECT_EQ(report.keys_restored, 0u);
  EXPECT_EQ(report.runs_resubmitted, 1u);
  EXPECT_EQ(executions, 1);  // interrupted work re-queued, not skipped
  EXPECT_EQ(w.db.runs("f").back().state, RunState::Completed);
}

TEST(Replay, HaltStopsTaskRetriesAndWritesNoRecord) {
  World w;
  int attempts = 0;
  w.flows.register_flow(
      "g", [&](FlowContext ctx) -> sim::Future<Status> {
        std::function<sim::Future<Status>()> body =
            [&]() -> sim::Future<Status> {
          ++attempts;
          // Halt mid-flight: the first attempt fails after the engine has
          // crashed, so no retry may start and no record may be written.
          co_await sim::delay(w.eng, 5.0);
          co_return Error::make("transient");
        };
        TaskOptions opts;
        opts.max_retries = 5;
        opts.idempotency_key = "g:work:" + ctx.parameters;
        co_return co_await ctx.engine.run_task(ctx, "work", body, opts);
      });
  auto fut = w.flows.run_flow("g", "s1");
  w.eng.schedule_at(2.0, [&] { w.flows.halt(); });
  w.eng.run_until(100.0);
  EXPECT_EQ(attempts, 1);  // no retries after the crash
  // The caller sees a non-terminal result; the database has neither a task
  // record nor a terminal run record — exactly what a dead process leaves.
  ASSERT_TRUE(fut.done());
  EXPECT_EQ(fut.value().state, RunState::Running);
  EXPECT_TRUE(w.db.tasks(w.db.runs("g").back().id).empty());
  EXPECT_EQ(w.db.runs("g").back().state, RunState::Running);

  auto report = w.flows.replay();
  EXPECT_EQ(report.runs_resubmitted, 1u);
  // Recovery re-drives the interrupted run to a terminal state: with the
  // engine back, its task retries normally and fails after 1 + max_retries
  // attempts (on top of the one cut short by the crash).
  w.eng.run();
  EXPECT_EQ(attempts, 7);
  EXPECT_EQ(w.db.runs("g").back().state, RunState::Failed);
}

}  // namespace
}  // namespace alsflow::flow
