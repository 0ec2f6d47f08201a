#include "sched/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace alsflow::sched {

namespace {

// Rank penalty that pushes sick-but-available sites behind every healthy
// one without making them unplaceable (a finite tier, not infinity, so
// comparisons stay total and deterministic).
constexpr Seconds kSickTier = 1e12;
// A registered-but-blacked-out WAN path prices the site as effectively
// unreachable (worse than sick): the bytes cannot move at all right now.
constexpr Seconds kUnreachable = 1e15;

// Best and runner-up available sites under the greedy cost model; sick
// sites rank behind every healthy one. An index is -1 when absent.
struct Ranking {
  int best = -1, runner_up = -1;
  Seconds best_rank = 0.0, runner_rank = 0.0;
};

Ranking rank_sites(const GreedyPolicy& model, double min_health,
                   const ScanRequest& scan,
                   const std::vector<FacilityState>& facilities) {
  Ranking r;
  for (std::size_t i = 0; i < facilities.size(); ++i) {
    const FacilityState& f = facilities[i];
    if (!f.available) continue;
    Seconds rank = model.predicted_turnaround(scan, f);
    if (f.health < min_health) rank += kSickTier;
    if (r.best < 0 || rank < r.best_rank) {
      r.runner_up = r.best;
      r.runner_rank = r.best_rank;
      r.best = int(i);
      r.best_rank = rank;
    } else if (r.runner_up < 0 || rank < r.runner_rank) {
      r.runner_up = int(i);
      r.runner_rank = rank;
    }
  }
  return r;
}

}  // namespace

Placement StaticDualPolicy::place(
    const ScanRequest& scan, const std::vector<FacilityState>& facilities) {
  (void)scan;
  Placement p;
  for (const char* site : {"nersc", "alcf"}) {
    for (const FacilityState& f : facilities) {
      if (f.name != site) continue;
      if (p.primary.empty()) {
        p.primary = f.name;
      } else {
        p.replicas.push_back(f.name);
      }
    }
  }
  p.reason = "static_dual";
  return p;
}

Placement RoundRobinPolicy::place(
    const ScanRequest& scan, const std::vector<FacilityState>& facilities) {
  (void)scan;
  std::vector<std::size_t> up;
  for (std::size_t i = 0; i < facilities.size(); ++i) {
    if (facilities[i].available) up.push_back(i);
  }
  Placement p;
  if (up.empty()) return p;
  const FacilityState& pick = facilities[up[cursor_ % up.size()]];
  ++cursor_;
  p.primary = pick.name;
  p.reason = "round_robin: " + pick.name;
  return p;
}

Seconds GreedyPolicy::predicted_turnaround(const ScanRequest& scan,
                                           const FacilityState& f) const {
  // WAN: raw out + products back at the live effective rate.
  Seconds transfer = 0.0;
  if (f.has_link) {
    if (f.link_bps <= 0.0) return kUnreachable;  // blackout
    transfer = (double(scan.raw_bytes) +
                double(scan.recon_bytes) * cfg_.product_factor) /
                   f.link_bps +
               2.0 * f.link_latency;
  }
  // Queue: observed wait quantile plus a congestion term — every scan
  // already routed here that the site's capacity cannot absorb costs one
  // more execute slot (join-shortest-queue, expressed in seconds).
  const Seconds exec =
      f.queue.exec_mean > 0.0 ? f.queue.exec_mean : cfg_.default_exec;
  const double backlog =
      double(std::max(f.queue.inflight, f.inflight_placements));
  const Seconds congestion = exec * backlog / std::max(1.0, f.capacity_hint);
  const Seconds est =
      transfer + f.queue.queue_wait_p50 + congestion + exec;
  // A sick site inflates its own estimate: at health 0.5 it must look
  // twice as fast as a healthy one to win the scan.
  return est / std::clamp(f.health, 0.05, 1.0);
}

Placement GreedyPolicy::place(const ScanRequest& scan,
                              const std::vector<FacilityState>& facilities) {
  const Ranking r = rank_sites(*this, cfg_.min_health, scan, facilities);
  Placement p;
  if (r.best < 0) return p;
  p.primary = facilities[std::size_t(r.best)].name;
  char reason[128];
  std::snprintf(reason, sizeof reason, "greedy: %s predicted %.0fs",
                p.primary.c_str(), double(r.best_rank));
  p.reason = reason;  // greedy places exactly one attempt, never a hedge
  return p;
}

Placement HedgedPolicy::place(const ScanRequest& scan,
                              const std::vector<FacilityState>& facilities) {
  const Ranking r =
      rank_sites(greedy_, cfg_.greedy.min_health, scan, facilities);
  Placement p;
  if (r.best < 0) return p;
  p.primary = facilities[std::size_t(r.best)].name;
  p.reason = "hedged: " + p.primary;
  // Only deadline scans pay for a backup, and only when a distinct
  // reachable site exists.
  if (scan.deadline > 0.0 && r.runner_up >= 0 &&
      r.runner_rank < kUnreachable) {
    p.hedge = facilities[std::size_t(r.runner_up)].name;
    Seconds delay = r.best_rank * cfg_.hedge_after_fraction;
    // Leave the backup enough runway to beat the deadline.
    const Seconds runway = scan.deadline - r.runner_rank;
    if (runway > 0.0) delay = std::min(delay, runway);
    p.hedge_delay = std::max(delay, cfg_.min_hedge_delay);
    p.reason += " hedge " + p.hedge;
  }
  return p;
}

std::unique_ptr<PlacementPolicy> make_policy(const std::string& name) {
  if (name == "static_dual") return std::make_unique<StaticDualPolicy>();
  if (name == "round_robin") return std::make_unique<RoundRobinPolicy>();
  if (name == "greedy") return std::make_unique<GreedyPolicy>();
  if (name == "hedged") return std::make_unique<HedgedPolicy>();
  return nullptr;
}

std::unique_ptr<PlacementPolicy> require_policy(const std::string& name) {
  auto policy = make_policy(name);
  if (policy == nullptr) {
    log_error("sched") << "unknown placement policy '" << name << "'";
    std::abort();
  }
  return policy;
}

}  // namespace alsflow::sched
