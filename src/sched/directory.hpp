// FacilityDirectory: the federated scheduler's live view of every compute
// site a scan could land on.
//
// The paper's central claim is that light-source science accelerates when
// each scan can run at *whichever* facility is healthy and fast right now.
// That decision needs structured state, not telemetry scraping: per-site
// queue-wait quantiles straight from the HPC adapter (hpc::QueueStats),
// effective WAN bandwidth from the data-movement link (capacity x chaos
// factor — a blacked-out path reads as 0 bytes/s), an optional health
// score fed by src/monitor (HealthMonitor::health_probe), and the
// scheduler's own in-flight placement count (jobs the scheduler has
// routed to the site that have not come back yet, queued flow runs
// included — the join-shortest-queue signal).
//
// Sim-thread only, like every orchestration-layer object: snapshots are
// taken between placement decisions on the engine thread, so there is no
// locking here (lockcheck: no mutexes, nothing to rank).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hpc/adapter.hpp"
#include "net/link.hpp"

namespace alsflow::sched {

// Static registration: one entry per placement target.
struct FacilityInfo {
  std::string name;       // adapter facility name ("nersc", "alcf", "cloud")
  std::string flow_name;  // recon flow to run for a placement on this site
  hpc::ComputeAdapter* adapter = nullptr;
  // Beamline -> facility WAN path; nullptr models an effectively
  // unconstrained path (snapshot reports link_bps = 0 and policies skip
  // the transfer term).
  net::Link* link = nullptr;
  // Roughly how many concurrent reconstructions the site absorbs before
  // queueing (Slurm realtime nodes, pilot workers; large for cloud).
  double capacity_hint = 1.0;
  // Live health score in [0, 1] (monitor::HealthMonitor::health_probe);
  // unset reads as 1.0 (healthy).
  std::function<double(Seconds)> health;
};

// Point-in-time state handed to placement policies.
struct FacilityState {
  std::string name;
  std::string flow_name;
  bool available = true;          // adapter outage gate
  double health = 1.0;
  hpc::QueueStats queue;          // adapter-level (submitted jobs)
  bool has_link = false;          // a WAN path is registered
  double link_bps = 0.0;          // bandwidth x chaos factor; 0 = blackout
  Seconds link_latency = 0.0;     // propagation + chaos extra latency
  double capacity_hint = 1.0;
  std::size_t inflight_placements = 0;  // scheduler-level (placed scans)
};

class FacilityDirectory {
 public:
  // At most this many sites, so a set of them fits in one word (site_bit).
  static constexpr std::size_t kMaxFacilities = 64;

  // Aborts with a log line, in every build, on a duplicate name, a null
  // adapter or a site past kMaxFacilities.
  void add(FacilityInfo info);

  const std::vector<FacilityInfo>& facilities() const { return infos_; }
  bool has(const std::string& facility) const {
    return site_bit(facility) != 0;
  }
  // The bit of `facility`'s registration position (0 if unknown).
  std::uint64_t site_bit(const std::string& facility) const;
  // flow_name registered for `facility` ("" if unknown).
  std::string flow_for(const std::string& facility) const;

  // Live snapshot of every registered facility, in registration order
  // (policies rely on the stable order for deterministic tie-breaks).
  std::vector<FacilityState> snapshot(Seconds now) const;

  // Scheduler-level in-flight accounting: placed when a scan is routed to
  // a facility (before its flow run starts queueing), finished when that
  // flow run reaches a terminal state or the placement is abandoned.
  void note_placed(const std::string& facility);
  void note_finished(const std::string& facility);
  std::size_t inflight(const std::string& facility) const;

 private:
  std::vector<FacilityInfo> infos_;
  std::map<std::string, std::size_t> inflight_;
};

}  // namespace alsflow::sched
