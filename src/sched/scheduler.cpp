#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

namespace alsflow::sched {

namespace {

using RunState_ = std::shared_ptr<sim::SharedState<flow::FlowRunResult>>;

// One launched attempt still in the race.
struct Racing {
  RunState_ state;
  std::size_t attempt = 0;  // index into ScanResult::attempts
  std::uint64_t token = 0;  // the race's callback on `state`
};

}  // namespace

FederatedScheduler::FederatedScheduler(sim::Engine& eng,
                                       flow::FlowEngine& flows,
                                       FacilityDirectory& directory,
                                       PlacementPolicy& policy,
                                       SchedulerConfig cfg)
    : eng_(eng), flows_(flows), dir_(directory), policy_(policy), cfg_(cfg) {}

Shard::Shard(sim::Engine& eng, FacilityDirectory& directory,
             const std::string& policy_name, SchedulerConfig cfg)
    : flows(eng, db),
      policy(require_policy(policy_name)),
      scheduler(eng, flows, directory, *policy, cfg) {}

sim::Future<flow::FlowRunResult> FederatedScheduler::launch(
    const std::string& facility, const std::string& scan_id) {
  dir_.note_placed(facility);
  // placements_ never erases, so its key outlives every run it counts:
  // the callback captures a pointer to it, not a copy of the name.
  auto& [name, count] = *placements_.try_emplace(facility).first;
  ++count;
  auto fut = flows_.run_flow(dir_.flow_for(facility), scan_id);
  if (fut.done()) {
    dir_.note_finished(facility);
  } else {
    // The placement count drops when the run resolves even if the
    // scheduler has long since stopped waiting on this attempt.
    const std::string* site = &name;
    fut.state()->add_callback([this, site] { dir_.note_finished(*site); });
  }
  return fut;
}

sim::Future<ScanResult> FederatedScheduler::submit_impl(ScanRequest scan,
                                                        std::string site) {
  const bool is_replica = !site.empty();  // its scan does the accounting
  ScanResult res;
  res.scan_id = scan.scan_id;
  res.submitted_at = eng_.now();
  // A replicated placement's other sites, each running this loop pinned
  // to it while this one pins itself to the primary.
  std::vector<sim::Future<ScanResult>> replicas;

  // Attempts still racing, at most one per launch.
  std::vector<Racing> racing;
  racing.reserve(std::size_t(std::max(cfg_.max_attempts, 1)));

  // Sites tried since the last reset, one bit per directory position.
  std::uint64_t tried = 0;
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
    racing.push_back({launch(facility, res.scan_id).state(),
                      res.attempts.size() - 1});
    tried |= dir_.site_bit(facility);
    ++launches;
  };

  while (true) {
    if (eng_.now() - res.submitted_at > cfg_.give_up_after) break;  // lost

    if (racing.empty()) {
      // PLACE: nothing racing — initial placement, or every launched
      // attempt failed terminally.
      if (launches >= cfg_.max_attempts) break;  // budget exhausted: lost
      Placement p;
      p.primary = site;  // a pinned loop re-places only at its own site
      if (site.empty()) p = policy_.place(scan, dir_.snapshot(eng_.now()));
      if (p.primary.empty()) {
        // Everything dark: back off and re-decide (outages end).
        co_await sim::delay(eng_, cfg_.placement_backoff);
        continue;
      }
      if (res.reason.empty()) res.reason = p.reason;
      start(p.primary, /*is_hedge=*/false, /*is_failover=*/launches > 0);
      if (launches > 1) {
        ++failovers_;
        res.failed_over = true;
      }
      for (const std::string& other : p.replicas) {
        replicas.push_back(submit_impl(scan, other));
        site = p.primary;  // ...and this loop becomes the primary's
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
    const int winner = co_await sim::RaceAwaiter{eng_, racing, window};

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
      // is safe because facility flows carry idempotency keys. A spent
      // budget, or a loop pinned to its site, just waits on.
      if (launches >= cfg_.max_attempts || !site.empty()) continue;
      auto snap = dir_.snapshot(eng_.now());
      std::vector<FacilityState> untried;
      for (auto& f : snap) {
        if ((tried & dir_.site_bit(f.name)) == 0) {
          untried.push_back(std::move(f));
        }
      }
      if (untried.empty()) {
        // Every site has been tried; forget history so a recovered site
        // can be re-placed rather than losing the scan.
        tried = 0;
        for (const Racing& r : racing) {
          // ...except sites still racing — relaunching those is pure waste.
          tried |= dir_.site_bit(res.attempts[r.attempt].facility);
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
    const flow::FlowRunResult& r = racing[std::size_t(winner)].state->value();
    AttemptRecord& a = res.attempts[racing[std::size_t(winner)].attempt];
    a.finished_at = eng_.now();
    a.result = r.state == flow::RunState::Completed
                   ? std::string("completed")
                   : "failed:" + (r.status.ok() ? std::string("unknown")
                                                : r.status.error().code);
    if (r.state == flow::RunState::Completed) {
      res.completed = true;
      res.facility = a.facility;
      res.flow_run_id = r.run_id;
      break;
    }
    racing.erase(racing.begin() + winner);
  }

  // A replicated scan completes only if every site's loop completed.
  for (const sim::Future<ScanResult>& other : replicas) {
    ScanResult r = co_await other;
    res.attempts.insert(res.attempts.end(),
                        std::make_move_iterator(r.attempts.begin()),
                        std::make_move_iterator(r.attempts.end()));
    res.completed = res.completed && r.completed;
    res.failed_over = res.failed_over || r.failed_over;
  }
  if (!res.completed) {
    res.facility.clear();  // a lost scan has no winning run
    res.flow_run_id.clear();
  }
  res.finished_at = eng_.now();
  if (is_replica) co_return res;
  if (res.completed) {
    ++completed_;
  } else {
    ++lost_;
  }

  telemetry::global().emit(
      res.finished_at, "sched", "turnaround",
      res.completed ? std::string_view(res.facility) : "lost",
      res.turnaround(), res.completed, res.reason);
  co_return res;
}

}  // namespace alsflow::sched
