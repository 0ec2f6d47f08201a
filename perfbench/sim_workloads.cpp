// The two simulated workloads. Their wall time is the discrete-event
// engine's own cost; their sim-clock results are exact for a seed.
//
// beamline_shift — the paper's single-beamline pipeline::Facility through
//   pipeline::run_campaign for a 72-hour shift at production cadence, with
//   background Perlmutter load, pruning, and a monitor::HealthMonitor with
//   the default SLOs installed. The only workload through pipeline,
//   beamline, transfer, storage, catalog and monitor; its Slurm queue is
//   deep and keeps growing, so the engine's cost per event rises per day.
// fleet_campaign — sched::FleetWorld with 8 beamlines x 2048 scans, greedy
//   placement and a 1-hour NERSC outage mid-campaign. The only workload
//   through sched and chaos; its Slurm queue stays shallow.
//
// Each run repeats the same seeded campaign back to back: every repeat
// must reproduce the sim-clock numbers and digest exactly.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "common/telemetry.hpp"
#include "harness.hpp"
#include "monitor/health_monitor.hpp"
#include "monitor/trace_assembler.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"
#include "sched/campaign.hpp"

namespace perfbench {
namespace {

using alsflow::Seconds;

// World builds take ~0.05 ms, so one is timed many times, in batches
// spread over the run (before every campaign): the set-up median then
// samples the host across the whole run, not one 5-ms window.
constexpr int kSetupsPerCampaign = 25;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void fnv_mix(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void fnv_double(std::uint64_t* h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_mix(h, &bits, sizeof bits);
}

// Wall-clock probe on the sim engine: a no-op event per simulated period
// that samples wall time and the executed-event count. Probes change no
// simulated state, so results stay identical with them armed.
struct Probe {
  std::vector<double> wall;
  std::vector<std::uint64_t> events;
  std::vector<double> inflight;  // NERSC adapter in-flight jobs
};

void arm_probes(alsflow::sim::Engine& eng, Seconds period, int count,
                const alsflow::hpc::ComputeAdapter& nersc, Probe* probe) {
  probe->wall.push_back(now_s());
  probe->events.push_back(eng.executed_events());
  for (int i = 1; i <= count; ++i) {
    eng.schedule_at(period * i, [&eng, &nersc, probe] {
      probe->wall.push_back(now_s());
      probe->events.push_back(eng.executed_events());
      probe->inflight.push_back(double(nersc.queue_stats().inflight));
    });
  }
}

double us_per_event(const Probe& p, std::size_t from, std::size_t to) {
  if (to >= p.wall.size() || p.events[to] <= p.events[from]) return 0.0;
  return (p.wall[to] - p.wall[from]) * 1e6 /
         double(p.events[to] - p.events[from]);
}

// Sim-clock stage breakdown of the traced campaign: per-scan seconds in
// each ScanTraceAssembler stage, p50 and p99 over scans. Only the shift
// reports it: the fleet's recon flow starts its HPC jobs and link sends
// without a trace parent, so all of a fleet scan's time lands in its task
// spans ("orchestrate").
void stage_metrics(const std::vector<alsflow::telemetry::SpanRecord>& spans,
                   Result& res) {
  alsflow::monitor::ScanTraceAssembler traces(spans);
  for (const char* stage : alsflow::monitor::kStages) {
    Series s;
    for (const auto& t : traces.traces()) s.add(t.stage_seconds(stage));
    res.set(std::string("stage.") + stage + "_p50_s", s.median(), "sim_s",
            s.count());
    res.set(std::string("stage.") + stage + "_p99_s", s.quantile(0.99),
            "sim_s", s.count());
  }
}

// Queue wait per facility over the whole campaign: hpc queue_wait spans
// under a job span that names its facility.
void queue_wait_metrics(
    const std::vector<alsflow::telemetry::SpanRecord>& spans, Result& res) {
  std::map<std::uint64_t, std::string> facility_of;
  for (const auto& sp : spans) {
    for (const auto& [k, v] : sp.attrs) {
      if (sp.component == "hpc" && k == "facility") facility_of[sp.id] = v;
    }
  }
  std::map<std::string, Series> waits;
  for (const auto& sp : spans) {
    if (sp.component != "hpc" || sp.name != "queue_wait") continue;
    auto it = facility_of.find(sp.parent);
    if (it != facility_of.end()) waits[it->second].add(sp.duration());
  }
  for (const auto& [facility, s] : waits) {
    res.set("hpc." + facility + "_queue_wait_p50_s", s.median(), "sim_s",
            s.count());
  }
}

std::string walls_fact(const std::vector<double>& walls) {
  std::string out;
  for (double w : walls) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", w);
    out += buf;
  }
  return out;
}

void set_tracing(bool on) {
  auto& tel = alsflow::telemetry::global();
  tel.clear();
  tel.set_enabled(on);
}

// ---------------------------------------------------------------- shift --

// The monitor is declared last so it is destroyed (and uninstalled) first:
// its watermark probe reads the facility.
struct ShiftWorld {
  std::unique_ptr<alsflow::pipeline::Facility> facility;
  std::unique_ptr<alsflow::monitor::HealthMonitor> monitor;
  std::size_t validation_issues = 0;
};

struct ShiftOutcome {
  double wall = 0;
  std::size_t started = 0, completed = 0, nonterminal_runs = 0;
  std::uint64_t events = 0;
  Series turnaround, preview;
  std::uint64_t digest = 14695981039346656037ull;
};

ShiftWorld build_shift(std::uint64_t seed, Seconds horizon) {
  ShiftWorld w;
  alsflow::pipeline::FacilityConfig cfg;
  cfg.seed = seed;
  w.facility = std::make_unique<alsflow::pipeline::Facility>(cfg);
  w.validation_issues = w.facility->flows().validate().size();
  w.facility->start_background_load(horizon);
  w.facility->start_pruning(alsflow::hours(12));
  alsflow::monitor::HealthMonitor::Config mc;
  mc.capture_logs = false;
  w.monitor = std::make_unique<alsflow::monitor::HealthMonitor>(mc);
  w.monitor->add_default_slos();
  auto* facility = w.facility.get();
  w.monitor->add_watermark("run_db_task_records", "run_db", "orchestrate", [facility] {
    return double(facility->run_db().task_records().size());
  });
  w.monitor->install();
  return w;
}

ShiftOutcome run_shift(ShiftWorld& w,
                       const alsflow::pipeline::CampaignConfig& cc) {
  ShiftOutcome out;
  auto& f = *w.facility;
  const double t0 = now_s();
  const auto report = alsflow::pipeline::run_campaign(f, cc);
  out.wall = now_s() - t0;
  w.monitor->sweep(f.engine().now());
  out.started = report.scans_started;
  out.completed = report.scans_completed;
  out.events = f.engine().executed_events();
  for (const auto& o : f.completed_outcomes()) {
    out.turnaround.add(o.finished_at - o.started_at);
    if (o.streaming) out.preview.add(o.streaming->preview_latency());
    fnv_mix(&out.digest, o.scan.scan_id.data(), o.scan.scan_id.size());
    fnv_double(&out.digest, o.finished_at);
  }
  for (const auto& r : f.run_db().runs()) {
    if (!alsflow::flow::is_terminal(r.state)) ++out.nonterminal_runs;
  }
  return out;
}

// ---------------------------------------------------------------- fleet --

alsflow::sched::FleetCampaignConfig fleet_config(const Options& opt) {
  alsflow::sched::FleetCampaignConfig cfg;
  cfg.seed = derive_seed(opt.seed, 1);
  cfg.beamlines = 8;
  cfg.scans_per_beamline = opt.tiny ? 64 : 2048;
  cfg.policy = "greedy";
  const Seconds arrivals = cfg.scan_interval * cfg.scans_per_beamline;
  cfg.scenario = {"nersc_outage",
                  {{alsflow::chaos::FaultKind::FacilityOutage, arrivals / 2,
                    alsflow::hours(1), "nersc", 0.0}}};
  return cfg;
}

}  // namespace

Result run_beamline_shift(const Options& opt, SpanLog& spans) {
  Result res;
  alsflow::pipeline::CampaignConfig cc;
  cc.duration = alsflow::hours(opt.tiny ? 8 : 72);
  cc.seed = derive_seed(opt.seed, 2);
  const Seconds horizon = cc.duration + cc.drain_margin;
  // The facility (its background Perlmutter load) is fixed; the seed draws
  // the shift's scans. The background seed sets how deep the Slurm queue
  // grows, which sets the engine's cost per event: varying it moved the
  // wall time by +-15% between seeds.
  const std::uint64_t facility_seed = alsflow::pipeline::FacilityConfig{}.seed;

  // Campaigns back to back; the traced run traces its second half.
  Series setup, wall;
  std::vector<ShiftOutcome> outcomes;
  std::size_t validation_issues = 0;
  std::vector<Probe> probes;
  auto campaign = [&](bool traced) {
    for (int i = 0; i < kSetupsPerCampaign; ++i) {
      const double t0 = now_s();
      const ShiftWorld w = build_shift(facility_seed, horizon);
      setup.add(now_s() - t0);
    }
    set_tracing(traced);
    const double t0 = now_s();
    ShiftWorld w = build_shift(facility_seed, horizon);
    setup.add(now_s() - t0);
    validation_issues += w.validation_issues;
    probes.emplace_back();
    arm_probes(w.facility->engine(), alsflow::hours(24),
               int(horizon / alsflow::hours(24)), w.facility->nersc_adapter(),
               &probes.back());
    Scope sp(spans, "pipeline", "run_campaign", 0, outcomes.size() + 1);
    outcomes.push_back(run_shift(w, cc));
    sp.stop();
    outcomes.back().events -= probes.back().wall.size() - 1;
    if (traced) {
      const auto trace = alsflow::telemetry::global().tracer().spans();
      stage_metrics(trace, res);
      queue_wait_metrics(trace, res);
      auto& f = *w.facility;
      res.set("hpc.slurm_pending_end", double(f.perlmutter().pending_jobs()),
              "count");
      res.set("flow.runs", double(f.run_db().total_runs()), "count");
      res.set("flow.task_records", double(f.run_db().task_records().size()),
              "count");
      double files = 0, retries = 0;
      for (const auto& t : f.globus().history()) {
        files += double(t.files_ok);
        retries += double(t.retries);
      }
      res.set("transfer.files", files, "count");
      res.set("transfer.bytes", double(f.globus().total_bytes_moved()), "B");
      res.set("transfer.retries", retries, "count");
      res.set("catalog.datasets", double(f.scicat().size()), "count");
      res.set("storage.beamline_files_end", double(f.beamline_data().file_count()),
              "count");
      res.set("monitor.events", double(w.monitor->events_seen()), "count");
      res.set("monitor.alerts", double(w.monitor->alerts().size()), "count");
    }
    set_tracing(false);
    return outcomes.back().wall;
  };

  const double e2e_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double t_end = now_s() + e2e_seconds;
  do {
    wall.add(campaign(false));
  } while (now_s() < t_end);
  const std::size_t untraced = outcomes.size();
  res.fact("campaign_walls_s", walls_fact(wall.values()));
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  // Every repeat simulates the same scans: rate from the median campaign.
  const double scans = double(outcomes.front().started);
  res.set("throughput_per_s", scans / wall.median(), "1/s", wall.count());
  res.set_median("latency_p50_s", wall);
  res.set("scans_per_s", scans / wall.median(), "1/s", wall.count());

  if (opt.trace) {
    const double traced_wall = campaign(true);
    res.set("telemetry.traced_slowdown", traced_wall / wall.median(), "ratio");
    // Engine cost from the first untraced campaign's day probes.
    const ShiftOutcome& o = outcomes.front();
    const Probe& probe = probes.front();
    res.set("sim.events", double(o.events), "count");
    res.set("sim.events_per_scan", double(o.events) / double(o.started),
            "count", o.started);
    const std::size_t days =
        std::max<std::size_t>(1, std::size_t(cc.duration / alsflow::hours(24)));
    res.set("sim.us_per_event_first_day", us_per_event(probe, 0, 1), "us");
    res.set("sim.us_per_event_last_day", us_per_event(probe, days - 1, days),
            "us");
    double inflight = 0;
    for (double v : probe.inflight) inflight = std::max(inflight, v);
    res.set("hpc.nersc_inflight_max", inflight, "count");
  }
  res.set_median("setup_s", setup);

  // Sim-clock results of the first campaign; every repeat must match.
  const ShiftOutcome& first = outcomes.front();
  res.set("sim_turnaround_p50_s", first.turnaround.median(), "sim_s",
          first.turnaround.count());
  res.set("sim_turnaround_p99_s", first.turnaround.quantile(0.99), "sim_s",
          first.turnaround.count());
  res.set("sim_preview_p50_s", first.preview.median(), "sim_s",
          first.preview.count());
  res.fact("shift.digest", hex(first.digest));
  res.fact("shift.campaigns", std::to_string(outcomes.size()) + " (" +
                                  std::to_string(untraced) + " untraced)");
  bool repeat = true;
  for (const auto& o : outcomes) {
    res.attempt(o.started);
    res.fail(o.started - std::min(o.started, o.completed));
    repeat = repeat && o.digest == first.digest && o.events == first.events;
  }
  res.gate(validation_issues == 0, "shipped flows validate clean");
  res.gate(first.completed == first.started && first.started > 0,
           "scans completed == started");
  bool terminal = true;
  for (const auto& o : outcomes) terminal = terminal && o.nonterminal_runs == 0;
  res.gate(terminal, "every flow run terminal");
  res.gate(repeat, "repeated campaigns reproduce the digest and event count");
  return res;
}

Result run_fleet_campaign(const Options& opt, SpanLog& spans) {
  Result res;
  const alsflow::sched::FleetCampaignConfig cfg = fleet_config(opt);

  Series setup, wall;
  std::vector<alsflow::sched::FleetCampaignReport> reports;
  std::vector<std::uint64_t> events;
  std::vector<Probe> probes;
  auto campaign = [&](bool traced) {
    for (int i = 0; i < kSetupsPerCampaign; ++i) {
      const double t0 = now_s();
      alsflow::sched::FleetWorld world(cfg);
      setup.add(now_s() - t0);
    }
    set_tracing(traced);
    const double t0 = now_s();
    alsflow::sched::FleetWorld world(cfg);
    setup.add(now_s() - t0);
    probes.emplace_back();
    arm_probes(world.engine(), alsflow::hours(1),
               int(cfg.scan_interval * cfg.scans_per_beamline /
                   alsflow::hours(1)),
               world.nersc_adapter(), &probes.back());
    Scope sp(spans, "sched", "fleet_run", 0, reports.size() + 1);
    const double t1 = now_s();
    reports.push_back(world.run());
    const double dt = now_s() - t1;
    sp.stop();
    events.push_back(world.engine().executed_events() -
                     (probes.back().wall.size() - 1));
    if (traced) {
      queue_wait_metrics(alsflow::telemetry::global().tracer().spans(), res);
    }
    set_tracing(false);
    return dt;
  };

  const double e2e_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double t_end = now_s() + e2e_seconds;
  do {
    wall.add(campaign(false));
  } while (now_s() < t_end);
  res.fact("campaign_walls_s", walls_fact(wall.values()));
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double scans = double(reports.front().offered);
  res.set("throughput_per_s", scans / wall.median(), "1/s", wall.count());
  res.set_median("latency_p50_s", wall);
  res.set("scans_per_s", scans / wall.median(), "1/s", wall.count());

  if (opt.trace) {
    const double traced_wall = campaign(true);
    const auto& r = reports.front();
    const Probe& probe = probes.front();
    res.set("telemetry.traced_slowdown", traced_wall / wall.median(), "ratio");
    res.set("sim.events", double(events.front()), "count");
    res.set("sim.events_per_scan", double(events.front()) / double(r.offered),
            "count", r.offered);
    res.set("sim.us_per_event", wall.median() * 1e6 / double(events.front()),
            "us", events.front());
    for (const char* f : {"nersc", "alcf", "cloud"}) {
      auto it = r.placements.find(f);
      res.set(std::string("sched.placed_") + f,
              it == r.placements.end() ? 0.0 : double(it->second), "count");
    }
    res.set("sched.failovers", double(r.failovers), "count");
    res.set("sched.hedges", double(r.hedges), "count");
    double inflight = 0;
    for (double v : probe.inflight) inflight = std::max(inflight, v);
    res.set("hpc.nersc_inflight_max", inflight, "count");
  }
  res.set_median("setup_s", setup);

  const auto& first = reports.front();
  res.set("sim_turnaround_p50_s", first.turnaround.median, "sim_s",
          first.completed);
  res.set("sim_turnaround_p99_s", first.turnaround_p99, "sim_s",
          first.completed);
  res.fact("fleet.digest", hex(first.digest));
  res.fact("fleet.failovers", std::to_string(first.failovers));
  bool repeat = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    res.attempt(r.offered);
    res.fail(r.offered - std::min(r.offered, r.completed));
    repeat = repeat && r.digest == first.digest && events[i] == events[0];
  }
  res.gate(first.lost == 0 && first.completed == first.offered,
           "zero lost scans");
  res.gate(repeat, "placement digest identical across repeated campaigns");
  return res;
}

}  // namespace perfbench
