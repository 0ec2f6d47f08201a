// Chaos scenarios: the fault schedule a campaign is subjected to.
//
// A Scenario is a list of FaultEvents on the *simulation* clock — each one
// names a failure mode from the paper's operational experience (facility
// maintenance windows, ESnet degradation and routing flaps, Globus
// transient/corruption/permission bursts, HPSS recall stalls, orchestrator
// crashes), a target component, a start time, and a window length.
// Scenarios are either written by hand (the golden resilience suite) or
// drawn from a seeded Rng (make_random_scenario), so every run of a given
// seed injects byte-identical faults at identical sim times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace alsflow::chaos {

enum class FaultKind {
  // Compute facility down for a window: the adapter holds submissions
  // (queue wait, not failure) until health returns. target = facility name
  // ("nersc", "alcf", "cloud").
  FacilityOutage,
  // WAN path running below capacity. target = link name; magnitude = the
  // bandwidth factor during the window (0.25 = quarter rate).
  LinkDegradation,
  // Routing flap: the path moves no bytes at all; in-flight transfers
  // stall where they are and resume when the window ends. target = link.
  LinkBlackout,
  // Globus transient-fault burst. magnitude = per-file failure probability
  // during the window. target ignored (the bound TransferService).
  TransientBurst,
  // Checksum-corruption burst. magnitude = per-file corruption
  // probability during the window.
  CorruptionBurst,
  // Permission incident (the paper's prune-burst failure mode): writes to
  // the target endpoint are denied for the window. target = endpoint name.
  PermissionBurst,
  // HPSS-style recall stall: extra per-delivery latency on the target
  // link. magnitude = the added seconds.
  RecallLatencySpike,
  // Orchestrator crash: FlowEngine::halt() at `at`, replay() at
  // `at + duration`. target ignored (the bound FlowEngine).
  EngineCrash,
  // Run-database task-ledger loss at `at` (duration ignored — data loss
  // does not revert): completed-task records vanish, so a later replay()
  // restores no idempotency keys and recovery degrades from
  // skip-completed to at-least-once re-execution. target ignored (the
  // bound RunDatabase).
  DatabaseLoss,
};

const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::LinkDegradation;
  Seconds at = 0.0;        // apply time (sim clock)
  Seconds duration = 0.0;  // window length; <= 0 means the fault is permanent
  std::string target;      // link / facility / endpoint name (kind-specific)
  double magnitude = 0.0;  // kind-specific (factor, probability, seconds)
};

struct Scenario {
  std::string name;
  std::vector<FaultEvent> events;
};

// Knobs for the seeded-random scenario generator. Only fault kinds whose
// target lists are non-empty (or that need no target) are drawn.
struct RandomScenarioConfig {
  Seconds horizon = hours(2);    // events start in [horizon/20, horizon)
  int n_events = 6;
  Seconds min_duration = 30.0;
  Seconds max_duration = 300.0;
  std::vector<std::string> links;       // LinkDegradation/Blackout/Recall
  std::vector<std::string> facilities;  // FacilityOutage
  std::vector<std::string> endpoints;   // PermissionBurst
  bool allow_transfer_faults = true;    // Transient/Corruption bursts
  bool allow_crash = false;             // EngineCrash (at most one is drawn)
};

// Deterministic: the same (seed, config) always yields the same scenario,
// events sorted by start time.
Scenario make_random_scenario(std::uint64_t seed,
                              const RandomScenarioConfig& config);

}  // namespace alsflow::chaos
