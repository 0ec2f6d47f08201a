// FederatedScheduler: dynamic cross-facility scan placement with
// failover.
//
// Each submitted scan becomes one (or, under hedging/failover, several)
// dynamically parameterized recon-flow runs over the existing
// facility-adapter seam: the policy picks a facility from the directory's
// live snapshot, the scheduler launches that facility's registered flow
// (parameters = scan id), and the attempt set is raced. The failover
// state machine (DESIGN.md §17):
//
//   PLACE   pick an untried facility from the policy; launch its flow.
//           If every facility has been tried, the tried set resets — a
//           recovered site may be re-tried rather than losing the scan.
//   RACE    await any outstanding attempt, bounded by a window: the
//           hedge delay while a hedge is pending, else the failover
//           timeout.
//   on attempt Completed  -> scan done; later attempts are superseded
//                            (idempotent flows make duplicates safe).
//   on attempt Failed     -> drop it; PLACE again if nothing is left.
//   on window expiry      -> hedge pending? launch the hedge.
//                            else: the facility has gone dark mid-run —
//                            an outage shows up as queue wait, never as
//                            flow failure, so a timeout is the *only*
//                            dark-facility signal. Launch one more
//                            placement elsewhere and keep racing the
//                            stalled attempt (it may still win when the
//                            site recovers; resubmission rides the PR 6
//                            idempotency ledger, so a recovered duplicate
//                            skips completed tasks).
//
// A scan is lost only when the launch budget is exhausted and every
// launched attempt has failed terminally — chaos scenarios must never
// reach that state (the resilience suite pins zero lost scans).
//
// A replicated placement (Placement::replicas, the static_dual policy)
// runs the state machine once per site, pinned to that site (the scan's
// own loop takes the primary): PLACE relaunches only that site, window
// expiry fails over nowhere, and the scan completes when every site's
// loop has. It is counted, and its turnaround reported, once.
//
// Sim-thread only; one scheduler per orchestration shard (sched::Shard).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "flow/engine.hpp"
#include "flow/run_db.hpp"
#include "sched/directory.hpp"
#include "sched/policy.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::sched {

struct SchedulerConfig {
  // Declare a placement dark after this long without a terminal state and
  // launch a failover elsewhere (the stalled attempt keeps racing).
  Seconds failover_timeout = 1800.0;
  // When nothing is placeable at all (every adapter dark), retry the
  // placement decision after this backoff.
  Seconds placement_backoff = 60.0;
  // Total launch budget per scan (primary + hedges + failovers).
  int max_attempts = 6;
  // Absolute bound on one scan's lifetime: past this the scan is abandoned
  // as lost even with attempts still in flight. Keeps a campaign's event
  // queue finite when every facility stays dark forever.
  Seconds give_up_after = 86400.0;
};

// One launched placement of a scan.
struct AttemptRecord {
  std::string facility;
  std::string flow_name;
  Seconds launched_at = 0.0;
  // When the attempt's flow run resolved (a run a crash cut off resolves
  // "failed:engine_halted"); -1 if it was still in flight at scan end.
  Seconds finished_at = -1.0;
  bool hedge = false;
  bool failover = false;
  // "completed" | "failed:<code>" | "superseded" (another attempt won)
  std::string result = "superseded";
};

struct ScanResult {
  std::string scan_id;
  bool completed = false;
  // Winning facility, or a replicated placement's primary ("" if lost).
  std::string facility;
  std::string flow_run_id;
  bool hedged = false;
  bool failed_over = false;
  std::vector<AttemptRecord> attempts;
  Seconds submitted_at = 0.0;
  Seconds finished_at = 0.0;
  std::string reason;  // the policy's decision trace for the first attempt

  Seconds turnaround() const { return finished_at - submitted_at; }
};

class FederatedScheduler {
 public:
  FederatedScheduler(sim::Engine& eng, flow::FlowEngine& flows,
                     FacilityDirectory& directory, PlacementPolicy& policy,
                     SchedulerConfig cfg = {});

  // Place and drive one scan to completion; resolves when some attempt's
  // flow run completes (or the scan is abandoned as lost). Wrapper over
  // the coroutine impl (see flow/engine.hpp on GCC 12).
  sim::Future<ScanResult> submit(ScanRequest scan) {
    ++submitted_;
    std::string any_site;  // the policy places the scan
    return submit_impl(std::move(scan), std::move(any_site));
  }

  // --- campaign accounting (sim-thread reads) ---
  const std::map<std::string, std::size_t>& placements() const {
    return placements_;
  }
  std::size_t scans_submitted() const { return submitted_; }
  std::size_t scans_completed() const { return completed_; }
  std::size_t scans_lost() const { return lost_; }
  std::size_t failovers() const { return failovers_; }
  std::size_t hedges_launched() const { return hedges_; }

 private:
  // The PLACE/RACE loop; a non-empty `site` pins every attempt there.
  sim::Future<ScanResult> submit_impl(ScanRequest scan, std::string site);

  // Launch `facility`'s flow for the scan; returns the run future and
  // registers directory bookkeeping (note_placed now, note_finished when
  // the run resolves, whether or not the scheduler still waits on it).
  sim::Future<flow::FlowRunResult> launch(const std::string& facility,
                                          const std::string& scan_id);

  sim::Engine& eng_;
  flow::FlowEngine& flows_;
  FacilityDirectory& dir_;
  PlacementPolicy& policy_;
  SchedulerConfig cfg_;

  std::map<std::string, std::size_t> placements_;  // facility -> launches
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t lost_ = 0;
  std::size_t failovers_ = 0;
  std::size_t hedges_ = 0;
};

// One orchestration shard: a run database, the flow engine that writes
// to it, a placement policy and the scheduler over them. In the paper
// this is one beamline's Prefect server, whose run database answers
// Table 2. The Facility owns one shard and FleetWorld one per beamline;
// the shards of a world share its sim engine and facility directory, so
// placements still see the whole world's load. None of the four members
// schedules a sim event when it is constructed.
struct Shard {
  // Aborts with a log line, in every build, on an unknown policy name
  // (require_policy).
  Shard(sim::Engine& eng, FacilityDirectory& directory,
        const std::string& policy_name, SchedulerConfig cfg = {});
  // The flow engine and the scheduler hold the other members' addresses.
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  flow::RunDatabase db;
  flow::FlowEngine flows;
  std::unique_ptr<PlacementPolicy> policy;
  FederatedScheduler scheduler;
};

}  // namespace alsflow::sched
