// Placement policies: how the federated scheduler chooses a facility.
//
// The contract (DESIGN.md §17): place() is a *pure* function of the scan
// request and the facility-state snapshot it is handed — no hidden clocks,
// no randomness, iteration in snapshot order with strict-less-than
// comparisons — so a fixed seed yields byte-identical placement sequences
// and a policy decision can be unit-tested against hand-built snapshots.
// Policies may keep internal counters (round-robin's cursor) but may not
// touch the world.
//
// Four shipped policies, mirroring the evaluation ladder in the paper's
// federated-facilities companion work:
//   StaticDualPolicy — the paper's production configuration: every scan
//                      reconstructs at NERSC *and* ALCF (no decision, 2x
//                      the work).
//   RoundRobinPolicy — static baseline: rotate over available sites.
//   GreedyPolicy     — lowest predicted turnaround: WAN transfer estimate
//                      (raw out + products back over the live link rate)
//                      + queue-wait p50 + congestion (in-flight vs
//                      capacity) + execute estimate, inflated for sick
//                      sites (health scales the estimate).
//   HedgedPolicy     — greedy, plus a runner-up hedge for deadline scans:
//                      if the primary hasn't finished within hedge_delay,
//                      the scheduler launches the backup placement and
//                      races them (idempotent flows make the duplicate
//                      safe).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sched/directory.hpp"

namespace alsflow::sched {

// One scan, as the scheduler sees it: identity plus the size and shape
// parameters the placement cost model needs.
struct ScanRequest {
  std::string scan_id;
  Bytes raw_bytes = 0;      // moved to the facility
  Bytes recon_bytes = 0;    // base product size (x1.3 moved back)
  std::size_t nz = 0;       // output slices (execute-time estimate)
  std::size_t n = 0;        // slice edge
  Seconds deadline = 0.0;   // <= 0: no deadline (hedging disabled)
};

struct Placement {
  std::string primary;        // "" = nothing placeable right now
  // Sites that also reconstruct the scan (a replicated placement). Each
  // site gets its own attempt loop: a failed run is relaunched there and
  // nowhere else.
  std::vector<std::string> replicas;
  std::string hedge;          // optional backup facility
  Seconds hedge_delay = 0.0;  // launch the hedge this long after primary
  std::string reason;         // decision trace (tests + flight recorder)
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  virtual Placement place(const ScanRequest& scan,
                          const std::vector<FacilityState>& facilities) = 0;
};

// The paper's dual branch as a policy: NERSC primary, ALCF replica,
// whatever their availability or health. A site missing from the snapshot
// is skipped.
class StaticDualPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "static_dual"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;
};

// Static baseline: rotate over the available facilities in snapshot
// order, skipping sites whose adapter is dark.
class RoundRobinPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "round_robin"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

 private:
  std::size_t cursor_ = 0;
};

struct GreedyConfig {
  // Sites below this health score are not considered (unless every site
  // is below it, in which case the least-bad available site is used —
  // refusing to place at all loses scans).
  double min_health = 0.35;
  // Product volume moved back relative to recon_bytes (TIFF + Zarr
  // pyramid overhead, matching the pipeline's 1.3x).
  double product_factor = 1.3;
  // Execute-time prior before a site has reported any completed jobs.
  Seconds default_exec = 600.0;
};

class GreedyPolicy : public PlacementPolicy {
 public:
  explicit GreedyPolicy(GreedyConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "greedy"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

  // The cost model, exposed for tests and for HedgedPolicy: predicted
  // submit-to-products-back seconds for `scan` at `f`.
  Seconds predicted_turnaround(const ScanRequest& scan,
                               const FacilityState& f) const;

 private:
  GreedyConfig cfg_;
};

struct HedgedConfig {
  GreedyConfig greedy;
  // Hedge fires when the primary has consumed this fraction of its own
  // predicted turnaround without completing.
  double hedge_after_fraction = 1.5;
  Seconds min_hedge_delay = 120.0;
};

// Greedy placement plus a runner-up hedge for deadline scans.
class HedgedPolicy : public PlacementPolicy {
 public:
  explicit HedgedPolicy(HedgedConfig cfg = {})
      : cfg_(cfg), greedy_(cfg.greedy) {}

  std::string name() const override { return "hedged"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

 private:
  HedgedConfig cfg_;
  GreedyPolicy greedy_;
};

// Factory for the shipped policies ("static_dual" | "round_robin" |
// "greedy" | "hedged"); nullptr for unknown names. Each sched::Shard gets
// its own instance so per-policy state (the round-robin cursor) stays
// shard-local.
std::unique_ptr<PlacementPolicy> make_policy(const std::string& name);

// make_policy for a configured name: logs "unknown placement policy
// '<name>'" and aborts, in every build type, when the name is unknown.
std::unique_ptr<PlacementPolicy> require_policy(const std::string& name);

}  // namespace alsflow::sched
