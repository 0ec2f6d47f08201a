#include "chaos/scenario.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace alsflow::chaos {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::FacilityOutage: return "facility_outage";
    case FaultKind::LinkDegradation: return "link_degradation";
    case FaultKind::LinkBlackout: return "link_blackout";
    case FaultKind::TransientBurst: return "transient_burst";
    case FaultKind::CorruptionBurst: return "corruption_burst";
    case FaultKind::PermissionBurst: return "permission_burst";
    case FaultKind::RecallLatencySpike: return "recall_latency_spike";
    case FaultKind::EngineCrash: return "engine_crash";
    case FaultKind::DatabaseLoss: return "database_loss";
  }
  return "unknown";
}

Scenario make_random_scenario(std::uint64_t seed,
                              const RandomScenarioConfig& config) {
  Rng rng(seed);
  Scenario out;
  out.name = "random_" + std::to_string(seed);

  // Candidate kinds, restricted to what the config can target. Reserved
  // for all seven up front: GCC 12 at -O2 otherwise reports a false
  // -Wstringop-overflow from the inlined growth of the first push_back.
  std::vector<FaultKind> kinds;
  kinds.reserve(7);
  if (!config.links.empty()) {
    kinds.push_back(FaultKind::LinkDegradation);
    kinds.push_back(FaultKind::LinkBlackout);
    kinds.push_back(FaultKind::RecallLatencySpike);
  }
  if (!config.facilities.empty()) kinds.push_back(FaultKind::FacilityOutage);
  if (!config.endpoints.empty()) kinds.push_back(FaultKind::PermissionBurst);
  if (config.allow_transfer_faults) {
    kinds.push_back(FaultKind::TransientBurst);
    kinds.push_back(FaultKind::CorruptionBurst);
  }
  if (kinds.empty()) return out;

  bool crash_drawn = false;
  for (int i = 0; i < config.n_events; ++i) {
    FaultEvent ev;
    // A crash is drawn at most once, with low probability, so random
    // scenarios stay dominated by component faults.
    if (config.allow_crash && !crash_drawn && rng.bernoulli(0.15)) {
      ev.kind = FaultKind::EngineCrash;
      crash_drawn = true;
    } else {
      ev.kind = kinds[std::size_t(
          rng.uniform_int(0, std::int64_t(kinds.size()) - 1))];
    }
    ev.at = rng.uniform(config.horizon / 20.0, config.horizon);
    ev.duration = rng.uniform(config.min_duration, config.max_duration);
    switch (ev.kind) {
      case FaultKind::LinkDegradation:
        ev.target = config.links[std::size_t(
            rng.uniform_int(0, std::int64_t(config.links.size()) - 1))];
        ev.magnitude = rng.uniform(0.1, 0.5);
        break;
      case FaultKind::LinkBlackout:
        ev.target = config.links[std::size_t(
            rng.uniform_int(0, std::int64_t(config.links.size()) - 1))];
        break;
      case FaultKind::RecallLatencySpike:
        ev.target = config.links[std::size_t(
            rng.uniform_int(0, std::int64_t(config.links.size()) - 1))];
        ev.magnitude = rng.uniform(5.0, 60.0);
        break;
      case FaultKind::FacilityOutage:
        ev.target = config.facilities[std::size_t(
            rng.uniform_int(0, std::int64_t(config.facilities.size()) - 1))];
        break;
      case FaultKind::PermissionBurst:
        ev.target = config.endpoints[std::size_t(
            rng.uniform_int(0, std::int64_t(config.endpoints.size()) - 1))];
        break;
      case FaultKind::TransientBurst:
        ev.magnitude = rng.uniform(0.05, 0.4);
        break;
      case FaultKind::CorruptionBurst:
        ev.magnitude = rng.uniform(0.05, 0.4);
        break;
      case FaultKind::EngineCrash:
      case FaultKind::DatabaseLoss:  // never drawn randomly
        break;
    }
    out.events.push_back(ev);
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

}  // namespace alsflow::chaos
