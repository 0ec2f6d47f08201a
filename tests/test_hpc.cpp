#include <gtest/gtest.h>

#include <vector>

#include "hpc/adapter.hpp"
#include "hpc/cloud.hpp"
#include "hpc/compute_model.hpp"
#include "hpc/globus_compute.hpp"
#include "hpc/sfapi.hpp"
#include "hpc/slurm.hpp"

namespace alsflow::hpc {
namespace {

using sim::Engine;

TEST(Slurm, JobRunsAndCompletes) {
  Engine eng;
  SlurmCluster cluster(eng, "perlmutter", 4);
  JobSpec spec;
  spec.name = "recon";
  spec.duration = 100.0;
  auto id = cluster.submit(spec);
  auto fut = cluster.wait(id);
  eng.run();
  ASSERT_TRUE(fut.done());
  const JobInfo& info = fut.value();
  EXPECT_EQ(info.state, JobState::Completed);
  EXPECT_DOUBLE_EQ(info.queue_wait(), 0.0);
  EXPECT_DOUBLE_EQ(info.finished_at, 100.0);
}

TEST(Slurm, QueuesWhenFull) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  JobSpec spec;
  spec.duration = 50.0;
  auto a = cluster.submit(spec);
  auto b = cluster.submit(spec);
  auto fa = cluster.wait(a);
  auto fb = cluster.wait(b);
  eng.run();
  EXPECT_DOUBLE_EQ(fa.value().started_at, 0.0);
  EXPECT_DOUBLE_EQ(fb.value().started_at, 50.0);
  EXPECT_DOUBLE_EQ(fb.value().queue_wait(), 50.0);
}

TEST(Slurm, RealtimeQosJumpsQueue) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  JobSpec filler;
  filler.duration = 100.0;
  cluster.submit(filler);
  eng.run_until(1.0);  // filler is now running and owns the node

  // Three regular jobs then one realtime job, all pending.
  std::vector<JobId> regular;
  for (int i = 0; i < 3; ++i) regular.push_back(cluster.submit(filler));
  JobSpec rt;
  rt.qos = Qos::Realtime;
  rt.duration = 10.0;
  auto rt_id = cluster.submit(rt);
  auto rt_fut = cluster.wait(rt_id);
  auto reg_fut = cluster.wait(regular[0]);
  eng.run();
  // Realtime starts right when the filler finishes, ahead of the regulars.
  EXPECT_DOUBLE_EQ(rt_fut.value().started_at, 100.0);
  EXPECT_DOUBLE_EQ(reg_fut.value().started_at, 110.0);
}

TEST(Slurm, WalltimeTimeout) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  JobSpec spec;
  spec.duration = 100.0;
  spec.walltime_limit = 30.0;
  auto id = cluster.submit(spec);
  auto fut = cluster.wait(id);
  eng.run();
  EXPECT_EQ(fut.value().state, JobState::TimedOut);
  EXPECT_DOUBLE_EQ(fut.value().finished_at, 30.0);
}

TEST(Slurm, CancelPendingAndRunning) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  JobSpec spec;
  spec.duration = 100.0;
  auto running = cluster.submit(spec);
  auto pending = cluster.submit(spec);
  eng.run_until(10.0);

  EXPECT_TRUE(cluster.cancel(pending).ok());
  EXPECT_EQ(cluster.info(pending).value().state, JobState::Cancelled);

  EXPECT_TRUE(cluster.cancel(running).ok());
  EXPECT_EQ(cluster.info(running).value().state, JobState::Cancelled);
  EXPECT_EQ(cluster.busy_nodes(), 0);

  EXPECT_EQ(cluster.cancel(running).error().code, "invalid_state");
  EXPECT_EQ(cluster.cancel(9999).error().code, "not_found");
}

TEST(Slurm, NodeAccountingNeverOversubscribes) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 3);
  JobSpec spec;
  spec.nodes = 2;
  spec.duration = 10.0;
  cluster.submit(spec);
  cluster.submit(spec);  // must wait: only 1 node free
  eng.run_until(5.0);
  EXPECT_EQ(cluster.busy_nodes(), 2);
  EXPECT_EQ(cluster.pending_jobs(), 1u);
  eng.run();
  EXPECT_EQ(cluster.busy_nodes(), 0);
  for (const auto& job : cluster.all_jobs()) {
    EXPECT_EQ(job.state, JobState::Completed);
  }
}

TEST(Slurm, OnStartOnFinishCallbacks) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  double started = -1, finished = -1;
  JobSpec spec;
  spec.duration = 42.0;
  spec.on_start = [&] { started = eng.now(); };
  spec.on_finish = [&] { finished = eng.now(); };
  cluster.submit(spec);
  eng.run();
  EXPECT_DOUBLE_EQ(started, 0.0);
  EXPECT_DOUBLE_EQ(finished, 42.0);
}

TEST(GlobusCompute, WarmWorkerRunsImmediately) {
  Engine eng;
  GlobusComputeEndpoint::Tuning tuning;
  tuning.dispatch_latency = 0.5;
  tuning.cold_start = 45.0;
  tuning.idle_shutdown = 600.0;
  GlobusComputeEndpoint gc(eng, "polaris", 2, tuning);

  auto f1 = gc.run({"task1", 10.0});
  eng.run();
  // First call pays the cold start.
  EXPECT_TRUE(f1.value().cold_started);
  EXPECT_NEAR(f1.value().started_at, 45.5, 1e-6);

  // Second task on the warm worker: dispatch latency only.
  auto f2 = gc.run({"task2", 10.0});
  eng.run();
  EXPECT_FALSE(f2.value().cold_started);
  EXPECT_NEAR(f2.value().dispatch_wait(), 0.5, 1e-6);
}

TEST(GlobusCompute, IdleShutdownForcesColdStart) {
  Engine eng;
  GlobusComputeEndpoint::Tuning tuning;
  tuning.idle_shutdown = 100.0;
  GlobusComputeEndpoint gc(eng, "polaris", 1, tuning);
  auto f1 = gc.run({"a", 10.0});
  eng.run();
  EXPECT_EQ(gc.warm_workers(), 1);
  eng.run_until(eng.now() + 200.0);
  EXPECT_EQ(gc.warm_workers(), 0);
  auto f2 = gc.run({"b", 10.0});
  eng.run();
  EXPECT_TRUE(f2.value().cold_started);
}

TEST(GlobusCompute, QueueDrainsFifo) {
  Engine eng;
  GlobusComputeEndpoint::Tuning tuning;
  tuning.cold_start = 0.0;
  tuning.dispatch_latency = 0.0;
  GlobusComputeEndpoint gc(eng, "polaris", 1, tuning);
  auto f1 = gc.run({"a", 10.0});
  auto f2 = gc.run({"b", 10.0});
  auto f3 = gc.run({"c", 10.0});
  EXPECT_EQ(gc.queued_tasks(), 2u);
  eng.run();
  EXPECT_NEAR(f1.value().finished_at, 10.0, 1e-6);
  EXPECT_NEAR(f2.value().finished_at, 20.0, 1e-6);
  EXPECT_NEAR(f3.value().finished_at, 30.0, 1e-6);
  // Queue wait recorded from original submission.
  EXPECT_NEAR(f3.value().dispatch_wait(), 20.0, 1e-6);
}

TEST(SfApi, SubmitStatusCancel) {
  Engine eng;
  SlurmCluster cluster(eng, "perlmutter", 2);
  SfApiClient api(eng, cluster);

  auto submit = api.submit_job([] {
    JobSpec s;
    s.name = "recon";
    s.duration = 50.0;
    return s;
  }());
  eng.run();
  ASSERT_TRUE(submit.value().ok());
  const JobId id = submit.value().value();

  auto status = api.job_status(id);
  eng.run();
  ASSERT_TRUE(status.value().ok());
  EXPECT_EQ(status.value().value().state, JobState::Completed);
  EXPECT_GE(api.api_calls(), 2u);
  EXPECT_EQ(api.auth_refreshes(), 1u);  // token still valid on second call
}

TEST(SfApi, TokenRefreshAfterExpiry) {
  Engine eng;
  SlurmCluster cluster(eng, "c", 1);
  SfApiClient::Tuning tuning;
  tuning.token_lifetime = 10.0;
  SfApiClient api(eng, cluster, tuning);
  auto a = api.submit_job(JobSpec{});
  eng.run();
  eng.run_until(eng.now() + 100.0);
  auto b = api.job_status(a.value().value());
  eng.run();
  EXPECT_EQ(api.auth_refreshes(), 2u);
}

TEST(ComputeModel, CalibratedToPaperNumbers) {
  ComputeModel model;
  // Streaming: 2160 x 2560 x 2560 on the 4-GPU node in 7-8 s (Section 5.2).
  const Seconds streaming = model.streaming_finalize_seconds(2160, 2560);
  EXPECT_GT(streaming, 6.0);
  EXPECT_LT(streaming, 9.0);

  // File-based gridrec on a CPU node: inside the 20-30 min band.
  const Seconds file_based = model.recon_seconds(
      Device::CpuNode128, tomo::Algorithm::Gridrec, 2160, 2560);
  EXPECT_GT(file_based, minutes(15));
  EXPECT_LT(file_based, minutes(35));

  // Historical workstation: hours (the "45 min + 1 h per slice" era).
  const Seconds historical = model.recon_seconds(
      Device::Workstation, tomo::Algorithm::Gridrec, 2160, 2560);
  EXPECT_GT(historical, hours(10));
}

TEST(ComputeModel, IterativeScalesWithIterations) {
  ComputeModel model;
  const Seconds s10 =
      model.recon_seconds(Device::CpuNode128, tomo::Algorithm::SIRT, 64, 64, 10);
  const Seconds s40 =
      model.recon_seconds(Device::CpuNode128, tomo::Algorithm::SIRT, 64, 64, 40);
  EXPECT_NEAR(s40 / s10, 4.0, 1e-9);
}

TEST(Adapters, NerscRunsThroughSlurmRealtime) {
  Engine eng;
  SlurmCluster cluster(eng, "perlmutter", 2);
  SfApiClient api(eng, cluster);
  NerscSlurmAdapter adapter(eng, api, ComputeModel{});

  ReconJob job;
  job.name = "recon-s1";
  job.nz = 2160;
  job.n = 2560;
  job.staging_seconds = 60.0;
  auto fut = adapter.run(job);
  eng.run();
  const auto& out = fut.value();
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.facility, "nersc");
  // 20-30 min band plus staging + container startup.
  EXPECT_GT(out.total(), minutes(18));
  EXPECT_LT(out.total(), minutes(40));
  ASSERT_EQ(cluster.all_jobs().size(), 1u);
  EXPECT_EQ(cluster.all_jobs()[0].spec.qos, Qos::Realtime);
}

TEST(Adapters, AlcfAvoidsQueueWhenWarm) {
  Engine eng;
  GlobusComputeEndpoint gc(eng, "polaris", 2);
  AlcfGlobusComputeAdapter adapter(eng, gc, ComputeModel{});
  ReconJob job;
  job.nz = 2160;
  job.n = 2560;
  auto first = adapter.run(job);
  eng.run();
  auto second = adapter.run(job);
  eng.run();
  EXPECT_TRUE(second.value().status.ok());
  // Warm pilot: dispatch in well under a minute.
  EXPECT_LT(second.value().started_at - second.value().submitted_at, 5.0);
}

TEST(Adapters, CloudBurstsElastically) {
  // Unlike Slurm or the pilot pool, the cloud never queues: N concurrent
  // jobs all start after exactly the boot latency.
  Engine eng;
  CloudBurstAdapter cloud(eng, ComputeModel{});
  ReconJob job;
  job.nz = 2160;
  job.n = 2560;
  std::vector<sim::Future<ReconJobOutcome>> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(cloud.run(job));
  eng.run();
  for (const auto& f : jobs) {
    EXPECT_NEAR(f.value().queue_wait(), 120.0, 1e-6);  // boot, not queue
  }
  EXPECT_EQ(cloud.instances_launched(), 5u);
  // Economics: each full-scale recon costs real money.
  EXPECT_GT(cloud.dollars_spent(), 5.0);
  EXPECT_LT(cloud.dollars_spent(), 40.0);
  // Egress pricing for the ~74 GB of products per scan.
  EXPECT_NEAR(cloud.egress_cost(74 * GB), 6.66, 0.01);
}

TEST(Adapters, CloudSlowerPerJobButNoContention) {
  // A single job: cloud pays boot + slower instance. Twenty simultaneous
  // jobs: the 2-worker pilot endpoint queues, the cloud does not.
  Engine eng;
  CloudBurstAdapter cloud(eng, ComputeModel{});
  GlobusComputeEndpoint gc(eng, "polaris", 2);
  AlcfGlobusComputeAdapter alcf(eng, gc, ComputeModel{});

  ReconJob job;
  job.nz = 1024;
  job.n = 1024;
  std::vector<sim::Future<ReconJobOutcome>> cloud_jobs, alcf_jobs;
  for (int i = 0; i < 20; ++i) {
    cloud_jobs.push_back(cloud.run(job));
    alcf_jobs.push_back(alcf.run(job));
  }
  eng.run();
  double cloud_max = 0.0, alcf_max = 0.0;
  for (int i = 0; i < 20; ++i) {
    cloud_max = std::max(cloud_max, cloud_jobs[std::size_t(i)].value().total());
    alcf_max = std::max(alcf_max, alcf_jobs[std::size_t(i)].value().total());
  }
  EXPECT_LT(cloud_max, alcf_max);  // elasticity wins at burst scale
}

}  // namespace
}  // namespace alsflow::hpc
