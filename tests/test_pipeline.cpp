// Integration tests: the full multi-facility world, end to end.
#include <gtest/gtest.h>

#include "common/hot_guard.hpp"
#include "data/multiscale.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"
#include "tomo/phantom.hpp"

namespace alsflow::pipeline {
namespace {

data::ScanMetadata paper_scan(const std::string& id = "scan-0001") {
  // The Section 5.2 reference scan: 1969 x 2160 x 2560, 16-bit (~20 GB).
  data::ScanMetadata m;
  m.scan_id = id;
  m.sample_name = "reference";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.n_angles = 1969;
  m.rows = 2160;
  m.cols = 2560;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

TEST(Facility, SingleScanAllBranches) {
  Facility facility;
  ScanOptions options;
  options.streaming = true;
  auto fut = facility.process_scan(paper_scan(), options);
  facility.engine().run();
  ASSERT_TRUE(fut.done());
  const ScanOutcome& out = fut.value();

  EXPECT_TRUE(out.new_file_status.ok());
  ASSERT_TRUE(out.streaming.has_value());
  // Default static_dual placement: NERSC and ALCF both reconstruct.
  EXPECT_TRUE(out.recon.completed);
  ASSERT_EQ(out.recon.attempts.size(), 2u);
  EXPECT_EQ(out.recon.attempts[0].facility, "nersc");
  EXPECT_EQ(out.recon.attempts[0].result, "completed");
  EXPECT_EQ(out.recon.attempts[1].facility, "alcf");
  EXPECT_EQ(out.recon.attempts[1].result, "completed");
  EXPECT_EQ(facility.scans_completed(), 1u);
}

TEST(Facility, StreamingPreviewUnderTenSeconds) {
  Facility facility;
  ScanOptions options;
  options.streaming = true;
  auto fut = facility.process_scan(paper_scan(), options);
  facility.engine().run();
  const auto& report = fut.value().streaming;
  ASSERT_TRUE(report.has_value());
  // The paper's headline: preview <10 s after acquisition completes,
  // with the back-projection itself taking 7-8 s.
  EXPECT_LT(report->preview_latency(), 10.0);
  EXPECT_GT(report->recon_done_at - report->last_frame_at, 6.0);
  EXPECT_LT(report->recon_done_at - report->last_frame_at, 9.0);
  // Preview return over ZeroMQ takes < 1 s.
  EXPECT_LT(report->preview_at - report->recon_done_at, 1.0);
  // ~20 GB cached in memory at NERSC during acquisition.
  EXPECT_NEAR(double(report->cached_bytes) / double(GiB), 20.3, 1.0);
}

TEST(Facility, FileBranchesLandInPaperBands) {
  Facility facility;
  auto fut = facility.process_scan(paper_scan(), ScanOptions{});
  facility.engine().run();
  const ScanOutcome& out = fut.value();

  const auto& db = facility.run_db();
  auto nersc = db.duration_summary("nersc_recon_flow", 10);
  auto alcf = db.duration_summary("alcf_recon_flow", 10);
  ASSERT_EQ(nersc.n, 1u);
  ASSERT_EQ(alcf.n, 1u);
  // Table 2 bands (single unloaded run: near the fast edge).
  EXPECT_GT(nersc.mean, minutes(18));
  EXPECT_LT(nersc.mean, minutes(40));
  EXPECT_GT(alcf.mean, minutes(10));
  EXPECT_LT(alcf.mean, minutes(35));
  // ALCF completes faster than NERSC (Table 2 ordering).
  EXPECT_LT(alcf.mean, nersc.mean);
  (void)out;
}

TEST(Facility, DataLandsEverywhere) {
  Facility facility;
  auto fut = facility.process_scan(paper_scan("scan-x"), ScanOptions{});
  facility.engine().run();

  // Raw on acquisition server and beamline data server.
  EXPECT_TRUE(facility.acq_server().exists("/raw/scan-x.ah5"));
  EXPECT_TRUE(facility.beamline_data().exists("/raw/scan-x.ah5"));
  // Raw + recon at both HPC sites.
  EXPECT_TRUE(facility.cfs().exists("/als/raw/scan-x.ah5"));
  EXPECT_TRUE(facility.cfs().exists("/als/recon/scan-x.zarr"));
  EXPECT_TRUE(facility.eagle().exists("/als/raw/scan-x.ah5"));
  EXPECT_TRUE(facility.eagle().exists("/als/recon/scan-x.zarr"));
  // Both reconstructions returned to the beamline.
  EXPECT_TRUE(facility.beamline_data().exists("/recon/nersc/scan-x.zarr"));
  EXPECT_TRUE(facility.beamline_data().exists("/recon/alcf/scan-x.zarr"));
}

TEST(Facility, HpssArchivalAfterNerscBranch) {
  Facility facility;
  auto fut = facility.process_scan(paper_scan("scan-arch"), ScanOptions{});
  facility.engine().run();  // archive flow drains after scan completion
  EXPECT_TRUE(facility.hpss().exists("/archive/als/raw/scan-arch.ah5"));
  EXPECT_TRUE(facility.hpss().exists("/archive/als/recon/scan-arch.zarr"));
  auto archive_runs = facility.run_db().runs("hpss_archive_flow");
  ASSERT_EQ(archive_runs.size(), 1u);
  EXPECT_EQ(archive_runs[0].state, flow::RunState::Completed);
}

TEST(Facility, ArchiveOptOutSkipsHpss) {
  Facility facility;
  ScanOptions options;
  options.archive = false;
  auto fut = facility.process_scan(paper_scan("scan-noarch"), options);
  facility.engine().run();
  EXPECT_EQ(facility.hpss().file_count(), 0u);
}

TEST(Facility, CatalogRecordsProvenance) {
  Facility facility;
  auto fut = facility.process_scan(paper_scan("scan-p"), ScanOptions{});
  facility.engine().run();

  auto& cat = facility.scicat();
  auto raws = cat.search("scan_id", "scan-p");
  ASSERT_GE(raws.size(), 1u);
  std::string raw_pid;
  for (const auto& rec : raws) {
    if (rec.type == catalog::DatasetType::Raw) raw_pid = rec.pid;
  }
  ASSERT_FALSE(raw_pid.empty());
  auto derived = cat.derived_from(raw_pid);
  EXPECT_EQ(derived.size(), 2u);  // one per facility
}

TEST(Facility, CroppedTestScanIsFast) {
  Facility facility;
  Rng rng(3);
  auto scan = make_scan(rng, ScanKind::CroppedTest, 1);
  auto fut = facility.process_scan(scan, ScanOptions{});
  facility.engine().run();
  auto nersc = facility.run_db().duration_summary("nersc_recon_flow", 10);
  // Table 2 minimum: 354 s; cropped scans sit near the floor, far below
  // the full-scan band.
  EXPECT_LT(nersc.mean, minutes(10));
  EXPECT_GT(nersc.mean, 30.0);
}

TEST(Facility, BackgroundLoadDelaysNerscNotAlcf) {
  FacilityConfig config;
  config.background_utilization = 4.0;   // saturated machine
  config.background_job_mean = 3600.0;   // hour-long regular jobs
  Facility loaded(config);
  loaded.start_background_load(hours(12));
  loaded.engine().run_until(hours(2));  // let the queue fill

  // Several scans so the (exponential) per-job queue wait averages out.
  double loaded_wait = 0.0;
  for (int i = 0; i < 3; ++i) {
    auto fut =
        loaded.process_scan(paper_scan("scan-l" + std::to_string(i)),
                            ScanOptions{});
    loaded.engine().run();
    ASSERT_TRUE(fut.value().recon.completed);
  }
  std::size_t realtime_jobs = 0;
  for (const auto& job : loaded.perlmutter().all_jobs()) {
    if (job.spec.qos == hpc::Qos::Realtime) {
      loaded_wait += job.queue_wait();
      ++realtime_jobs;
    }
  }
  ASSERT_EQ(realtime_jobs, 3u);
  // Realtime QOS cuts ahead of the dozens of pending regular jobs but
  // still waits for a node to free (mean residual ~ job_mean / nodes).
  EXPECT_GT(loaded_wait / 3.0, 60.0);

  // ALCF (pilot workers) is unaffected by Perlmutter load: dispatch waits
  // stay within the cold-start bound.
  for (const auto& r : loaded.polaris().history()) {
    EXPECT_LT(r.dispatch_wait(), 60.0);
  }

  // On an idle machine the realtime job starts immediately.
  Facility idle;
  auto fut = idle.process_scan(paper_scan(), ScanOptions{});
  idle.engine().run();
  for (const auto& job : idle.perlmutter().all_jobs()) {
    EXPECT_DOUBLE_EQ(job.queue_wait(), 0.0);
  }
}

TEST(Facility, ConcurrentStreamingScansAllDeliverPreviews) {
  // Regression: the fair-shared ESnet link can deliver a scan's (smaller)
  // final batch ahead of earlier ones; the streaming service must not
  // lose the acquisition when batches arrive out of order.
  Facility facility;
  ScanOptions options;
  options.streaming = true;
  for (int i = 0; i < 8; ++i) {
    auto scan = paper_scan("scan-cc" + std::to_string(i));
    scan.n_angles = 1969 + std::size_t(i) * 37;  // odd remainders vs batch
    facility.submit_scan(scan, options);
  }
  facility.engine().run();
  EXPECT_EQ(facility.scans_completed(), 8u);
  EXPECT_EQ(facility.streaming().previews_delivered(), 8u);
}

TEST(Facility, SurvivesLossyNetwork) {
  // Transfer-level fault injection: corrupted and transiently-failed
  // copies are retried inside the Globus layer; flows still complete.
  Facility facility;
  facility.globus().set_corruption_rate(0.15);
  facility.globus().set_transient_failure_rate(0.1);
  for (int i = 0; i < 3; ++i) {
    facility.submit_scan(paper_scan("scan-lossy" + std::to_string(i)),
                         ScanOptions{});
  }
  facility.engine().run();
  EXPECT_EQ(facility.scans_completed(), 3u);
  int retries = 0;
  for (const auto& t : facility.globus().history()) retries += t.retries;
  EXPECT_GT(retries, 0);
  // Whatever completed is intact.
  EXPECT_GE(facility.run_db().success_rate("nersc_recon_flow"), 0.5);
}

TEST(Facility, CfsOutageFailsNerscBranchOnly) {
  // One site's filesystem rejects writes; its branch fails cleanly, on
  // every relaunch there, while the other facility still delivers (the
  // paper's fault-tolerance argument for multi-facility integration).
  Facility facility;
  facility.cfs().deny("put", "/als/");
  auto fut = facility.process_scan(paper_scan("scan-outage"), ScanOptions{});
  facility.engine().run();
  const ScanOutcome& out = fut.value();
  const auto& attempts = out.recon.attempts;
  const auto budget = std::size_t(sched::SchedulerConfig{}.max_attempts);
  ASSERT_EQ(attempts.size(), budget + 1);
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(attempts[i].facility, "nersc");
    EXPECT_EQ(attempts[i].result, "failed:permission_denied");
  }
  EXPECT_EQ(attempts[budget].facility, "alcf");
  EXPECT_EQ(attempts[budget].result, "completed");
  EXPECT_FALSE(out.recon.completed);  // static_dual needs both sites
  EXPECT_TRUE(facility.beamline_data().exists("/recon/alcf/scan-outage.zarr"));
  EXPECT_FALSE(
      facility.beamline_data().exists("/recon/nersc/scan-outage.zarr"));
  // No archive without a successful NERSC branch.
  EXPECT_EQ(facility.hpss().file_count(), 0u);
}

TEST(Facility, PruningFreesExpiredData) {
  Facility facility;
  // Age some data on the beamline server.
  ASSERT_TRUE(
      facility.beamline_data().put("/raw/old.ah5", 30 * GB, 1, 0.0).ok());
  facility.start_pruning(hours(12));
  facility.engine().run_until(days(11));
  EXPECT_FALSE(facility.beamline_data().exists("/raw/old.ah5"));
}

TEST(Facility, TeardownFreesEveryCoroutineFrame) {
  // Consumers are channel sinks and periodic work is timer chains, so a
  // world with background load and pruning frees everything it built when
  // it is destroyed. The horizon falls between prune runs: only work in
  // flight at the horizon may strand a frame. The allocation hooks count
  // this thread's live operator new allocations, coroutine frames
  // included, the same way in every build, sanitizers too.
  auto build_and_destroy = [] {
    Facility facility;
    facility.start_background_load(hours(2));
    facility.start_pruning(hours(1));
    facility.engine().run_until(hours(1));
    ASSERT_EQ(facility.run_db().runs_in_state("prune_cfs",
                                              flow::RunState::Completed)
                  .size(),
              1u);
  };
  build_and_destroy();  // warm up lazily built process-wide state
  const std::int64_t before = hotguard::live_allocations();
  build_and_destroy();
  EXPECT_EQ(hotguard::live_allocations(), before);
}

TEST(Facility, PruneIncidentFailEarlyVsNaive) {
  // Replay the Section 5.3 incident: prune deletes hit permission_denied.
  FacilityConfig fail_early_cfg;
  fail_early_cfg.fail_early = true;
  Facility quick(fail_early_cfg);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(quick.beamline_data()
                    .put("/raw/f" + std::to_string(i), GB, 1, 0.0)
                    .ok());
  }
  quick.beamline_data().deny("remove", "/raw/");
  quick.start_pruning(hours(12));
  quick.engine().run_until(days(11) + hours(13));
  auto quick_runs =
      quick.run_db().runs_in_state("prune_beamline", flow::RunState::Failed);
  ASSERT_GE(quick_runs.size(), 1u);
  const double quick_duration = quick_runs.front().duration();

  FacilityConfig naive_cfg;
  naive_cfg.fail_early = false;
  Facility naive(naive_cfg);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(naive.beamline_data()
                    .put("/raw/f" + std::to_string(i), GB, 1, 0.0)
                    .ok());
  }
  naive.beamline_data().deny("remove", "/raw/");
  naive.start_pruning(hours(12));
  naive.engine().run_until(days(11) + hours(13));
  auto naive_runs =
      naive.run_db().runs_in_state("prune_beamline", flow::RunState::Failed);
  ASSERT_GE(naive_runs.size(), 1u);
  // Fail-early resolves in ~seconds; the naive flow hangs for ~minutes
  // per pass (30 s per doomed delete), saturating its work pool.
  EXPECT_LT(quick_duration, 10.0);
  EXPECT_GT(naive_runs.front().duration(), minutes(15));
}

TEST(Campaign, ShortShiftCompletesAndSummarizes) {
  FacilityConfig config;
  config.background_utilization = 0.85;
  Facility facility(config);
  facility.start_background_load(hours(6));

  CampaignConfig campaign;
  campaign.duration = hours(2);
  campaign.scan_interval_mean = 300.0;
  campaign.streaming_fraction = 1.0;
  campaign.seed = 11;
  auto report = run_campaign(facility, campaign);

  EXPECT_GE(report.scans_started, 15u);
  EXPECT_EQ(report.scans_completed, report.scans_started);
  EXPECT_EQ(report.new_file.n, report.scans_started);
  // Every streamed preview under 10 s.
  EXPECT_EQ(report.streaming_latency.n, report.scans_started);
  EXPECT_LT(report.streaming_latency.max, 10.0);
  // Flow ordering from Table 2 holds under load.
  const Summary& nersc = report.recon.at("nersc_recon_flow").duration;
  const Summary& alcf = report.recon.at("alcf_recon_flow").duration;
  EXPECT_LT(report.new_file.median, alcf.median);
  EXPECT_LT(alcf.median, nersc.median);
  EXPECT_GT(report.raw_bytes, 100 * GB);
}

TEST(Facility, TwoBeamlinesShareTheFacilities) {
  // The rollout scenario (Sections 4 and 6): a second endstation adopts
  // the template and shares ESnet + both compute sites. Two concurrent
  // scan streams must both complete, and the catalogue keeps their
  // datasets separable by user.
  Facility facility;
  Rng rng(9);
  for (int i = 0; i < 3; ++i) {
    auto a = make_scan(rng, ScanKind::Standard, std::size_t(i), "team-832");
    a.scan_id = "bl832-" + std::to_string(i);
    facility.submit_scan(a, ScanOptions{});
    auto b = make_scan(rng, ScanKind::CroppedTest, std::size_t(i), "team-bl2");
    b.scan_id = "bl2-" + std::to_string(i);
    facility.submit_scan(b, ScanOptions{});
  }
  facility.engine().run();
  EXPECT_EQ(facility.scans_completed(), 6u);
  EXPECT_EQ(facility.scicat().search("user", "team-832").size(), 3u);
  EXPECT_EQ(facility.scicat().search("user", "team-bl2").size(), 3u);
  // Every scan produced reconstructions at both sites.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(facility.beamline_data().exists(
        "/recon/nersc/bl832-" + std::to_string(i) + ".zarr"));
    EXPECT_TRUE(facility.beamline_data().exists(
        "/recon/alcf/bl2-" + std::to_string(i) + ".zarr"));
  }
}

TEST(Campaign, ScanKindsSpanSizeRange) {
  Rng rng(5);
  auto cropped = make_scan(rng, ScanKind::CroppedTest, 0);
  auto standard = make_scan(rng, ScanKind::Standard, 1);
  auto large = make_scan(rng, ScanKind::Large, 2);
  EXPECT_LT(cropped.raw_bytes(), 2 * GB);
  EXPECT_GT(standard.raw_bytes(), 8 * GB);
  EXPECT_LT(standard.raw_bytes(), 40 * GB);
  EXPECT_GT(large.raw_bytes(), 60 * GB);
}

TEST(Campaign, KindMixMatchesProduction) {
  Rng rng(6);
  int cropped = 0, standard = 0, large = 0;
  for (int i = 0; i < 2000; ++i) {
    switch (draw_kind(rng)) {
      case ScanKind::CroppedTest: ++cropped; break;
      case ScanKind::Standard: ++standard; break;
      case ScanKind::Large: ++large; break;
    }
  }
  EXPECT_NEAR(cropped / 2000.0, 0.20, 0.04);
  EXPECT_NEAR(standard / 2000.0, 0.78, 0.04);
  EXPECT_NEAR(large / 2000.0, 0.02, 0.015);
}

TEST(Facility, ShippedFlowsValidateClean) {
  // Every production flow ships with a FlowSpec, and the whole set must
  // pass static validation: no cycles, no unreachable tasks, retry
  // policies on every transfer/HPC task, idempotency keys everywhere a
  // retried flow needs them, and only declared work pools.
  Facility facility;
  const auto issues = facility.flows().validate();
  for (const auto& iss : issues) {
    ADD_FAILURE() << iss.render();
  }
  EXPECT_TRUE(issues.empty());

  // Validation is per-flow addressable too; spot-check the headline flows.
  for (const char* flow :
       {"new_file_832", "nersc_recon_flow", "alcf_recon_flow",
        "hpss_archive_flow", "prune_beamline", "prune_cfs", "prune_eagle"}) {
    EXPECT_TRUE(facility.flows().validate(flow).empty()) << flow;
  }
}

TEST(Facility, PublishVolumeFlowRegistersForServing) {
  // Volumes reach the Tiled serving layer only through the validated
  // publish_volume flow: catalogue ingest + registration in one task.
  Facility facility;
  EXPECT_TRUE(facility.flows().validate("publish_volume").empty());

  auto volume = std::make_shared<const data::MultiscaleVolume>(
      data::MultiscaleVolume::build(tomo::shepp_logan_3d(16), 2, 8));
  facility.stage_volume("scan-pub", volume);
  EXPECT_FALSE(facility.tiled().has("scan-pub"));

  const std::size_t catalog_before = facility.scicat().size();
  auto fut = facility.flows().run_flow("publish_volume", "scan-pub");
  facility.engine().run();
  ASSERT_TRUE(fut.done());
  EXPECT_EQ(fut.value().state, flow::RunState::Completed);
  EXPECT_TRUE(facility.tiled().has("scan-pub"));
  EXPECT_EQ(facility.scicat().size(), catalog_before + 1);
  // Published volumes are servable immediately.
  EXPECT_TRUE(facility.tiled().slice("scan-pub", 0, 0, 8).ok());

  // Publishing a key that was never staged fails the flow.
  auto missing = facility.flows().run_flow("publish_volume", "missing");
  facility.engine().run();
  EXPECT_EQ(missing.value().state, flow::RunState::Failed);
}

TEST(Facility, TaskIdempotencyKeysAreScanScoped) {
  // A retried flow must skip completed tasks for *its* scan without
  // colliding with other scans: keys embed flow, task and scan id.
  Facility facility;
  ScanOptions options;
  options.archive = false;
  auto fut = facility.process_scan(paper_scan("scan-keyed"), options);
  facility.engine().run();
  ASSERT_TRUE(fut.value().new_file_status.ok());
  // One successful pass populates the cache with scan-scoped keys.
  EXPECT_GT(facility.flows().idempotency_cache_size(), 0u);
}

TEST(Personas, DefaultArchetypesPresent) {
  auto personas = default_personas();
  ASSERT_EQ(personas.size(), 3u);
  EXPECT_EQ(personas[0].name, "visiting-user");
  EXPECT_EQ(personas[1].name, "staff-scientist");
  EXPECT_EQ(personas[2].name, "software-engineer");
  // Visiting users scan far more often than staff QA.
  EXPECT_LT(personas[0].scan_interval_mean, personas[1].scan_interval_mean);
}

}  // namespace
}  // namespace alsflow::pipeline
