#include "pipeline/campaign.hpp"

#include <cstdio>

#include "common/log.hpp"

namespace alsflow::pipeline {

const char* scan_kind_name(ScanKind k) {
  switch (k) {
    case ScanKind::CroppedTest: return "cropped-test";
    case ScanKind::Standard: return "standard";
    case ScanKind::Large: return "large";
  }
  return "?";
}

data::ScanMetadata make_scan(Rng& rng, ScanKind kind, std::size_t index,
                             const std::string& user) {
  data::ScanMetadata m;
  char id[64];
  std::snprintf(id, sizeof id, "scan-%05zu-%s", index, scan_kind_name(kind));
  m.scan_id = id;
  m.sample_name = "sample-" + std::to_string(index);
  m.proposal = "ALS-11532";
  m.user = user;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = rng.uniform(14.0, 30.0);
  m.pixel_um = 0.65;

  switch (kind) {
    case ScanKind::CroppedTest:
      // Alignment scans: cropped detector, few angles -> a few MB..100s MB.
      m.rows = std::size_t(rng.uniform_int(64, 512));
      m.cols = 2560;
      m.n_angles = std::size_t(rng.uniform_int(100, 500));
      break;
    case ScanKind::Standard:
      // The 20-30 GB scientific scan of Section 4: full detector,
      // 1000-2100 projections.
      m.rows = std::size_t(rng.uniform_int(1600, 2160));
      m.cols = 2560;
      m.n_angles = std::size_t(rng.uniform_int(1200, 2100));
      break;
    case ScanKind::Large:
      // High angular resolution / stitched: up to hundreds of GB.
      m.rows = 2160;
      m.cols = 2560;
      m.n_angles = std::size_t(rng.uniform_int(6000, 12000));
      break;
  }
  return m;
}

ScanKind draw_kind(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.20) return ScanKind::CroppedTest;
  if (u < 0.98) return ScanKind::Standard;
  return ScanKind::Large;  // "hundreds of GB" scans are rare
}

std::vector<Persona> default_personas() {
  return {
      {"visiting-user", 240.0, 0.8, ScanKind::Standard},
      {"staff-scientist", 1800.0, 0.3, ScanKind::CroppedTest},
      {"software-engineer", 0.0, 0.0, ScanKind::CroppedTest},  // ops only
  };
}

namespace {

// Pointers, not references: this is a detached coroutine, and reference
// parameters dangle once the frame outlives the call (astcheck
// coroutine-ref-param). Both pointees live in run_campaign's frame, which
// blocks in run_until() until the driver finishes.
sim::Proc drive(Facility* facility, CampaignConfig config,
                std::size_t* started) {
  Rng rng(config.seed);
  sim::Engine& eng = facility->engine();
  const Seconds end = eng.now() + config.duration;
  std::size_t index = 0;
  while (eng.now() < end) {
    const ScanKind kind =
        config.randomize_kind ? draw_kind(rng) : config.fixed_kind;
    data::ScanMetadata scan = make_scan(rng, kind, index++);
    ScanOptions options;
    options.streaming = rng.bernoulli(config.streaming_fraction);
    facility->submit_scan(std::move(scan), options);
    ++*started;
    co_await sim::delay(
        eng, rng.uniform(config.scan_interval_mean * 0.6,
                         config.scan_interval_mean * 1.4));
  }
}

}  // namespace

CampaignReport run_campaign(Facility& facility, const CampaignConfig& config) {
  CampaignReport report;
  // Pre-flight: refuse to start a shift on a malformed flow graph. The
  // issues name the offending flow/task, so the fix is a code change away
  // instead of a post-mortem.
  const auto issues = facility.flows().validate();
  if (!issues.empty()) {
    for (const auto& iss : issues) {
      log_error("campaign") << "flow validation: " << iss.render();
    }
    return report;  // zero scans started: nothing ran
  }
  const Seconds t_end =
      facility.engine().now() + config.duration + config.drain_margin;
  drive(&facility, config, &report.scans_started).detach();
  // run_until (not run): periodic schedules like pruning never quiesce.
  facility.engine().run_until(t_end);

  auto& db = facility.run_db();
  report.scans_completed = facility.scans_completed();
  report.raw_bytes = facility.raw_bytes_ingested();
  report.new_file = db.duration_summary("new_file_832", 100);
  for (const auto& info : facility.directory().facilities()) {
    report.recon[info.flow_name] = {db.duration_summary(info.flow_name, 100),
                                    db.success_rate(info.flow_name)};
  }

  std::vector<double> latencies;
  for (const auto& outcome : facility.completed_outcomes()) {
    if (outcome.streaming) {
      latencies.push_back(outcome.streaming->preview_latency());
    }
  }
  report.streaming_latency = summarize(std::move(latencies));
  return report;
}

}  // namespace alsflow::pipeline
