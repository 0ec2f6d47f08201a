// Telemetry overhead microbenchmarks — the acceptance check that the
// disabled path costs nothing measurable.
//
// parallel_for is the hottest instrumented site (one enabled() check per
// fan-out on the caller, one per chunk on the workers); Disabled vs Off
// should be indistinguishable, and Enabled should only add a handful of
// relaxed atomic increments per fan-out. The instrument benchmarks below
// price the individual primitives.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "monitor/health_monitor.hpp"
#include "monitor/slo.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace alsflow;

// A body cheap enough that per-invocation telemetry would show up, but real
// enough that the fan-out itself dominates neither (64k adds per chunk).
void run_parallel_sum(parallel::ThreadPool& pool, std::size_t n) {
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e) {
    std::uint64_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  benchmark::DoNotOptimize(sum.load());
}

void BM_ParallelForTelemetryDisabled(benchmark::State& state) {
  telemetry::global().set_enabled(false);
  parallel::ThreadPool pool(4);
  for (auto _ : state) {
    run_parallel_sum(pool, std::size_t(state.range(0)));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ParallelForTelemetryDisabled)->Arg(1 << 20)->UseRealTime();

void BM_ParallelForTelemetryEnabled(benchmark::State& state) {
  auto& tel = telemetry::global();
  tel.set_enabled(true);
  parallel::ThreadPool pool(4);
  for (auto _ : state) {
    run_parallel_sum(pool, std::size_t(state.range(0)));
    // Keep the span vector from growing across iterations so we measure
    // instrumentation, not allocation pressure from an ever-larger trace.
    tel.tracer().clear();
  }
  tel.set_enabled(false);
  tel.clear();
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ParallelForTelemetryEnabled)->Arg(1 << 20)->UseRealTime();

void BM_EnabledCheck(benchmark::State& state) {
  telemetry::global().set_enabled(false);
  // The entire cost a disabled site pays: one relaxed load + branch.
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::global().enabled());
  }
}
BENCHMARK(BM_EnabledCheck);

void BM_ObservingCheck(benchmark::State& state) {
  telemetry::global().set_event_sink(nullptr);
  // What every MonitorEvent emit site pays with no HealthMonitor installed:
  // one relaxed pointer load + branch, same budget as BM_EnabledCheck.
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::global().observing());
  }
}
BENCHMARK(BM_ObservingCheck);

void BM_MonitorIngest(benchmark::State& state) {
  // The monitored path: one SloEngine::ingest per event — window prune,
  // burn-rate evaluation over both windows of both rules, histogram
  // observe. Priced on a warm series of the stock facility_queue_wait
  // spec at range(0) events/s: its one-hour slow window holds 3,600
  // samples at 1/s and 36,000 at 10/s, so a cost that grows with the
  // window shows as a 10x step between the two.
  monitor::SloEngine slo;
  for (monitor::SloSpec& spec : monitor::default_slos()) {
    if (spec.name == "facility_queue_wait") slo.add(std::move(spec));
  }
  telemetry::MonitorEvent ev;
  ev.component = "hpc";
  ev.kind = "queue_wait";
  ev.target = "nersc";
  ev.value = 5.0;  // well under objective: steady-state, no alert churn
  const double dt = 1.0 / double(state.range(0));
  double t = 0.0;
  auto ingest = [&] {
    ev.t = t;
    t += dt;
    benchmark::DoNotOptimize(slo.ingest(ev));
  };
  for (std::int64_t i = 0; i < 3600 * state.range(0); ++i) ingest();
  for (auto _ : state) ingest();
}
BENCHMARK(BM_MonitorIngest)->Arg(1)->Arg(10);

void BM_HealthMonitorOnEvent(benchmark::State& state) {
  // One HealthMonitor::on_event as a 72-h beamline shift pays it: the
  // default SLOs, the flight recorder and one watermark, fed a synthetic
  // stream with the shift's event mix at its mean rate (one event per
  // 4.5 s; seed 101 records 63,743 events). Every sample is good, as in
  // the shift, so no alert fires.
  struct Share {
    const char* component;
    const char* kind;
    const char* target;
    double percent;
    double value;
  };
  const Share mix[] = {
      {"net", "delivery", "esnet-nersc", 47.0, 1.5},
      {"net", "delivery", "esnet-alcf", 6.0, 1.5},
      {"transfer", "file_attempt", "als-data->nersc-cfs", 6.0, 1.0},
      {"transfer", "file_attempt", "nersc-cfs->nersc-hpss", 5.5, 1.0},
      {"transfer", "endpoint_write", "als-data", 6.0, 1.0},
      {"transfer", "endpoint_write", "nersc-hpss", 5.5, 1.0},
      {"transfer", "transfer_done", "als-data->nersc-cfs", 5.0, 5e8},
      {"transfer", "transfer_done", "als-data->alcf-eagle", 5.0, 5e8},
      {"flow", "run_done", "nersc_recon_flow", 7.0, 900.0},
      {"hpc", "queue_wait", "nersc", 3.0, 120.0},
      {"scan", "e2e", "scan-00042-standard", 1.5, 1800.0},
      {"sched", "turnaround", "nersc", 1.5, 1800.0},
      {"streaming", "first_slice", "scan-00042-standard", 1.0, 6.0},
  };
  std::vector<telemetry::MonitorEvent> stream(4096);
  Rng rng(42);
  for (telemetry::MonitorEvent& ev : stream) {
    double pick = rng.uniform(0.0, 100.0);
    const Share* share = &mix[0];
    while (share + 1 != std::end(mix) && pick >= share->percent) {
      pick -= share->percent;
      ++share;
    }
    ev.component = share->component;
    ev.kind = share->kind;
    ev.target = share->target;
    ev.value = share->value;
    if (ev.component == "sched") ev.detail = "greedy: nersc predicted 1800s";
  }
  monitor::HealthMonitor::Config cfg;
  cfg.capture_logs = false;
  monitor::HealthMonitor mon(cfg);
  mon.add_default_slos();
  double task_records = 0.0;
  mon.add_watermark("run_db_task_records", "run_db", "orchestrate",
                    [&task_records] { return task_records; });
  double t = 0.0;
  std::size_t i = 0;
  auto on_event = [&] {
    telemetry::MonitorEvent& ev = stream[i++ % stream.size()];
    ev.t = t;
    t += 4.5;
    task_records += 1.0;
    mon.on_event(ev);
  };
  for (std::size_t k = 0; k < stream.size(); ++k) on_event();  // warm
  for (auto _ : state) on_event();
  benchmark::DoNotOptimize(mon.events_seen());
}
BENCHMARK(BM_HealthMonitorOnEvent);

void BM_CounterAdd(benchmark::State& state) {
  telemetry::Counter c;
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram h({1.0, 2.0, 5.0, 10.0, 30.0, 60.0});
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.1;
    if (v > 70.0) v = 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanBeginEnd(benchmark::State& state) {
  telemetry::Tracer tracer;
  double t = 0.0;
  for (auto _ : state) {
    auto id = tracer.begin("bench", "span", 0, telemetry::ClockDomain::Sim, t);
    tracer.end(id, t + 1.0);
    t += 1.0;
    if (tracer.span_count() >= 100000) tracer.clear();
  }
}
BENCHMARK(BM_SpanBeginEnd);

void BM_RegistryLookup(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  // The map-lookup path services cold sites; hot sites cache the reference
  // (see thread_pool.cpp) and pay only BM_CounterAdd.
  for (auto _ : state) {
    reg.counter("alsflow_bench_lookup_total", "kind=\"x\"").add();
  }
}
BENCHMARK(BM_RegistryLookup);

}  // namespace

BENCHMARK_MAIN();
