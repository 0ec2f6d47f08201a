// Host cost of the discrete-event simulation: operator new calls and wall
// time per simulated scan (or per engine event).
//
//   BM_SchedulerRace/<policy>  the scheduler-only rig of sim_engine_rigs.hpp
//                              (2 sites, 1,000 s flows, one scan per
//                              second, 50k scans) under static_dual and
//                              greedy: the race, the flow run and the
//                              events, with no facility model.
//   BM_FleetCampaign           perfbench's fleet_campaign: 8 x 2048 scans,
//                              greedy, a one-hour NERSC outage halfway.
//   BM_EngineScheduleCancel    the engine alone: schedule 64k events in
//                              tied pairs, cancel every third, run the
//                              rest.
//
// Counters: allocs_per_scan (allocs_per_event) from the allocation hooks'
// per-thread count, us_per_scan (ns_per_event) of wall time. The tier-1
// allocation budget (tests/test_sched.cpp) asserts the same counts on
// smaller runs. Report-only: no committed baseline, no gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "sim_engine_rigs.hpp"

using namespace alsflow;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr int kRaceScans = 50000;

void BM_SchedulerRace(benchmark::State& state, const char* policy) {
  double allocs = 0.0, wall = 0.0;
  std::size_t completed = 0;
  for (auto _ : state) {
    bench::SchedulerRaceRig rig(policy);
    const auto t0 = std::chrono::steady_clock::now();
    allocs += rig.allocations_per_scan(kRaceScans);
    wall += seconds_since(t0);
    completed += rig.completed();
  }
  const double n = double(state.iterations());
  state.counters["allocs_per_scan"] = allocs / n;
  state.counters["us_per_scan"] = wall * 1e6 / (n * kRaceScans);
  if (completed != std::size_t(n) * kRaceScans) {
    state.SkipWithError("scans lost");
  }
}
BENCHMARK_CAPTURE(BM_SchedulerRace, static_dual, "static_dual")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerRace, greedy, "greedy")
    ->Unit(benchmark::kMillisecond);

void BM_FleetCampaign(benchmark::State& state) {
  const sched::FleetCampaignConfig cfg = bench::fleet_config(8, 2048);
  double allocs = 0.0, wall = 0.0, scans = 0.0;
  bool zero_lost = true;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const bench::FleetAllocations run = bench::fleet_allocations(cfg);
    wall += seconds_since(t0);
    allocs += run.per_scan;
    scans += double(run.report.offered);
    zero_lost = zero_lost && run.report.lost == 0;
  }
  state.counters["allocs_per_scan"] = allocs / double(state.iterations());
  state.counters["us_per_scan"] = wall * 1e6 / scans;
  if (!zero_lost) state.SkipWithError("scans lost");
}
BENCHMARK(BM_FleetCampaign)->Unit(benchmark::kMillisecond);

void BM_EngineScheduleCancel(benchmark::State& state) {
  constexpr int kEvents = 1 << 16;
  double allocs = 0.0, wall = 0.0;
  std::uint64_t ran = 0;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<sim::EventId> ids;
    ids.reserve(kEvents);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t before = hotguard::allocations();
    for (int i = 0; i < kEvents; ++i) {
      // Events come in tied pairs; the handler is a small capture that
      // std::function stores inline.
      ids.push_back(eng.schedule_at(double(i / 2), [&ran] { ++ran; }));
      if (i % 3 == 2) eng.cancel(ids[std::size_t(i) - 1]);
    }
    eng.run();
    allocs += double(hotguard::allocations() - before) / kEvents;
    wall += seconds_since(t0);
  }
  benchmark::DoNotOptimize(ran);
  const double n = double(state.iterations());
  state.counters["allocs_per_event"] = allocs / n;
  state.counters["ns_per_event"] = wall * 1e9 / (n * kEvents);
}
BENCHMARK(BM_EngineScheduleCancel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
