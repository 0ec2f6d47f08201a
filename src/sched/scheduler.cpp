#include "sched/scheduler.hpp"

#include <memory>
#include <set>
#include <utility>

namespace alsflow::sched {

namespace {

// Race any number of flow-run states against a timer. Resolves with the
// index of the first state to become ready, or -1 if `window` elapses
// first (the runs keep going either way — the caller owns their futures).
//
// Unlike sim::with_timeout this races N states, so the one-shot trigger
// needs an explicit fired-guard: two states resolving in the same event
// cascade would otherwise both call trigger() and trip the
// resolved-twice assert.
using RunState_ = std::shared_ptr<sim::SharedState<flow::FlowRunResult>>;

sim::Future<int> await_any_impl(sim::Engine* eng, std::vector<RunState_> states,
                                Seconds window) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i]->ready()) co_return int(i);
  }
  sim::Event<int> ev;
  auto fired = std::make_shared<bool>(false);
  std::vector<std::uint64_t> tokens(states.size(), 0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    tokens[i] = states[i]->add_callback([fired, ev, i] {
      if (*fired) return;
      *fired = true;
      sim::Event<int> e = ev;  // shared state; trigger resumes the racer
      e.trigger(int(i));
    });
  }
  sim::EventId timer = eng->schedule_in(window, [fired, ev] {
    if (*fired) return;
    *fired = true;
    sim::Event<int> e = ev;
    e.trigger(-1);
  });
  int winner = co_await ev;
  if (winner >= 0) eng->cancel(timer);
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (int(i) == winner) continue;  // winner's callback was consumed
    states[i]->remove_callback(tokens[i]);
  }
  co_return winner;
}

inline sim::Future<int> await_any(sim::Engine* eng,
                                  std::vector<RunState_> states,
                                  Seconds window) {
  return await_any_impl(eng, std::move(states), window);
}

}  // namespace

FederatedScheduler::FederatedScheduler(sim::Engine& eng,
                                       flow::FlowEngine& flows,
                                       FacilityDirectory& directory,
                                       PlacementPolicy& policy,
                                       SchedulerConfig cfg)
    : eng_(eng), flows_(flows), dir_(directory), policy_(policy), cfg_(cfg) {}

sim::Future<flow::FlowRunResult> FederatedScheduler::launch(
    const std::string& facility, const std::string& scan_id) {
  dir_.note_placed(facility);
  ++placements_[facility];
  auto fut = flows_.run_flow(dir_.flow_for(facility), scan_id);
  if (fut.done()) {
    dir_.note_finished(facility);
  } else {
    // The placement count drops when the run resolves even if the
    // scheduler has long since stopped waiting on this attempt.
    fut.state()->add_callback(
        [this, facility] { dir_.note_finished(facility); });
  }
  return fut;
}

sim::Future<ScanResult> FederatedScheduler::submit_impl(ScanRequest scan) {
  ++submitted_;
  ScanResult res;
  res.scan_id = scan.scan_id;
  res.submitted_at = eng_.now();

  // Attempts still racing: parallel arrays into res.attempts.
  std::vector<RunState_> states;
  std::vector<std::size_t> attempt_of;

  std::set<std::string> tried;
  int launches = 0;
  bool hedge_armed = false;
  std::string pending_hedge;
  Seconds hedge_delay = 0.0;

  auto start = [&](const std::string& facility, bool is_hedge,
                   bool is_failover) {
    AttemptRecord a;
    a.facility = facility;
    a.flow_name = dir_.flow_for(facility);
    a.launched_at = eng_.now();
    a.hedge = is_hedge;
    a.failover = is_failover;
    res.attempts.push_back(std::move(a));
    attempt_of.push_back(res.attempts.size() - 1);
    states.push_back(launch(facility, res.scan_id).state());
    tried.insert(facility);
    ++launches;
  };
  // Record how attempt `k` ended. The finish time comes from the run's
  // record: replicas are awaited in launch order, so one that finished
  // early is only seen once the runs before it are done.
  auto settle = [&](std::size_t k, const flow::FlowRunResult& r) {
    AttemptRecord& a = res.attempts[k];
    const flow::FlowRunRecord* rec = flows_.db().run(r.run_id);
    a.finished_at = rec != nullptr ? rec->finished_at : eng_.now();
    a.result = r.state == flow::RunState::Completed
                   ? std::string("completed")
                   : "failed:" + (r.status.ok() ? std::string("unknown")
                                                : r.status.error().code);
  };

  while (true) {
    if (eng_.now() - res.submitted_at > cfg_.give_up_after) break;  // lost

    if (states.empty()) {
      // PLACE: nothing racing — initial placement, or every launched
      // attempt failed terminally.
      if (launches >= cfg_.max_attempts) break;  // budget exhausted: lost
      Placement p = policy_.place(scan, dir_.snapshot(eng_.now()));
      if (p.primary.empty()) {
        // Everything dark: back off and re-decide (outages end).
        co_await sim::delay(eng_, cfg_.placement_backoff);
        continue;
      }
      if (res.reason.empty()) res.reason = p.reason;
      if (!p.replicas.empty()) {
        // Replicated placement: launch every site, then await the runs in
        // launch order (no timers, so no extra engine events). The scan
        // completes only if every run completed; nothing is hedged,
        // failed over or re-placed.
        start(p.primary, /*is_hedge=*/false, /*is_failover=*/false);
        for (const std::string& site : p.replicas) {
          start(site, /*is_hedge=*/false, /*is_failover=*/false);
        }
        res.completed = true;
        for (std::size_t k = 0; k < states.size(); ++k) {
          // A named future, not a braced awaiter temporary (DESIGN.md §7).
          const sim::Future<flow::FlowRunResult> run(states[k]);
          const flow::FlowRunResult r = co_await run;
          settle(attempt_of[k], r);
          res.completed =
              res.completed && r.state == flow::RunState::Completed;
        }
        if (res.completed) {
          res.facility = p.primary;
          res.flow_run_id = states.front()->value().run_id;
        }
        break;
      }
      start(p.primary, /*is_hedge=*/false, /*is_failover=*/launches > 0);
      if (launches > 1) {
        ++failovers_;
        res.failed_over = true;
      }
      if (!p.hedge.empty() && scan.deadline > 0.0) {
        hedge_armed = true;
        pending_hedge = p.hedge;
        hedge_delay = p.hedge_delay;
      }
      continue;
    }

    // RACE the outstanding attempts against the active window.
    const Seconds window = hedge_armed ? hedge_delay : cfg_.failover_timeout;
    int winner = co_await await_any(&eng_, states, window);

    if (winner < 0) {
      // Window expired with everything still in flight.
      if (hedge_armed) {
        hedge_armed = false;
        if (launches < cfg_.max_attempts && dir_.has(pending_hedge)) {
          start(pending_hedge, /*is_hedge=*/true, /*is_failover=*/false);
          ++hedges_;
          res.hedged = true;
        }
        continue;
      }
      // Failover: the primary has gone dark mid-run (outage = queue wait,
      // so no failure will ever arrive). Drain to the best *untried*
      // reachable site and keep racing the stalled attempt; resubmission
      // is safe because facility flows carry idempotency keys.
      if (launches >= cfg_.max_attempts) continue;  // budget gone: wait on
      auto snap = dir_.snapshot(eng_.now());
      std::vector<FacilityState> untried;
      for (auto& f : snap) {
        if (tried.count(f.name) == 0) untried.push_back(std::move(f));
      }
      if (untried.empty()) {
        // Every site has been tried; forget history so a recovered site
        // can be re-placed rather than losing the scan.
        tried.clear();
        for (std::size_t i = 0; i < attempt_of.size(); ++i) {
          // ...except sites still racing — relaunching those is pure waste.
          tried.insert(res.attempts[attempt_of[i]].facility);
        }
        continue;
      }
      Placement p = policy_.place(scan, untried);
      if (!p.primary.empty()) {
        start(p.primary, /*is_hedge=*/false, /*is_failover=*/true);
        ++failovers_;
        res.failed_over = true;
      }
      continue;
    }

    // An attempt resolved.
    const flow::FlowRunResult& r = states[std::size_t(winner)]->value();
    const std::size_t k = attempt_of[std::size_t(winner)];
    settle(k, r);
    if (r.state == flow::RunState::Completed) {
      res.completed = true;
      res.facility = res.attempts[k].facility;
      res.flow_run_id = r.run_id;
      break;
    }
    states.erase(states.begin() + winner);
    attempt_of.erase(attempt_of.begin() + winner);
  }

  res.finished_at = eng_.now();
  if (res.completed) {
    ++completed_;
  } else {
    ++lost_;
  }

  auto& tel = telemetry::global();
  if (tel.observing()) {
    telemetry::MonitorEvent ev;
    ev.t = res.finished_at;
    ev.component = "sched";
    ev.kind = "turnaround";
    ev.target = res.completed ? res.facility : "lost";
    ev.value = res.turnaround();
    ev.ok = res.completed;
    ev.detail = res.reason;
    tel.emit(ev);
  }
  co_return res;
}

}  // namespace alsflow::sched
