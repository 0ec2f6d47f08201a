// Property-style parameterized suites: invariants that must hold across
// whole parameter families, not just single examples.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "data/multiscale.hpp"
#include "flow/run_db.hpp"
#include "hpc/slurm.hpp"
#include "net/link.hpp"
#include "storage/endpoint.hpp"
#include "storage/retention.hpp"
#include "tomo/fft.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/projector.hpp"
#include "tomo/recon.hpp"
#include "transfer/transfer_service.hpp"

namespace alsflow {
namespace {

// ---------------------------------------------------------------------------
// Reconstruction: every windowed filter reconstructs the phantom.
// ---------------------------------------------------------------------------
class FilterSweep : public ::testing::TestWithParam<tomo::FilterKind> {};

TEST_P(FilterSweep, FbpRecoversPhantom) {
  const std::size_t n = 64;
  tomo::Geometry geo{120, n, -1.0};
  tomo::Image sino =
      tomo::analytic_sinogram(tomo::shepp_logan_ellipses(), geo);
  tomo::Image recon = tomo::reconstruct_fbp(sino, geo, n, GetParam());
  tomo::Image truth = tomo::shepp_logan(n);
  EXPECT_GT(tomo::pearson_correlation(truth, recon), 0.8)
      << tomo::filter_name(GetParam());
  // Absolute scale: the 0.2 center value survives every window.
  EXPECT_NEAR(recon.at(n / 2, n / 2), 0.2f, 0.06f)
      << tomo::filter_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllWindows, FilterSweep,
    ::testing::Values(tomo::FilterKind::Ramp, tomo::FilterKind::SheppLogan,
                      tomo::FilterKind::Hann, tomo::FilterKind::Hamming,
                      tomo::FilterKind::Cosine,
                      tomo::FilterKind::Butterworth),
    [](const auto& info) {
      std::string name = tomo::filter_name(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Projector adjointness across geometries.
// ---------------------------------------------------------------------------
class AdjointSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(AdjointSweep, DotProductIdentity) {
  const auto [n_angles, n_det, center_offset] = GetParam();
  const std::size_t n = 24;
  tomo::Geometry geo{std::size_t(n_angles), std::size_t(n_det), -1.0};
  if (center_offset != 0.0) {
    geo.center = geo.center_or_default() + center_offset;
  }
  Rng rng(std::uint64_t(n_angles * 1000 + n_det));
  tomo::Image x(n, n);
  for (auto& p : x.span()) p = float(rng.uniform(0, 1));
  tomo::Image y(geo.n_angles, geo.n_det);
  for (auto& p : y.span()) p = float(rng.uniform(0, 1));

  tomo::Image ax = tomo::forward_project(x, geo);
  tomo::Image aty = tomo::back_project_adjoint(y, geo, n);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += double(ax.data()[i]) * double(y.data()[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += double(x.data()[i]) * double(aty.data()[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AdjointSweep,
    ::testing::Combine(::testing::Values(8, 33, 90),
                       ::testing::Values(24, 31, 48),
                       ::testing::Values(0.0, -3.5, 5.0)));

// ---------------------------------------------------------------------------
// FFT round trip across sizes.
// ---------------------------------------------------------------------------
class FftSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSweep, RoundTripAndParseval) {
  const std::size_t size = GetParam();
  Rng rng(size);
  std::vector<std::complex<double>> a(size);
  double energy = 0.0;
  for (auto& x : a) {
    x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    energy += std::norm(x);
  }
  auto orig = a;
  tomo::fft(a, false);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / double(size), energy, 1e-8 * energy);
  tomo::fft(a, true);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSweep,
                         ::testing::Values(2, 8, 64, 256, 1024));

// ---------------------------------------------------------------------------
// Link: conservation and capacity invariants under random traffic.
// ---------------------------------------------------------------------------
class LinkSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkSweep, ProcessorSharingInvariants) {
  sim::Engine eng;
  const double bandwidth = 1000.0;
  net::Link link(eng, "l", bandwidth);
  Rng rng(GetParam());

  struct Record {
    Bytes size;
    Seconds sent_at;
    Seconds done_at = -1.0;
  };
  auto records = std::make_shared<std::vector<Record>>();
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const Bytes size = Bytes(rng.uniform_int(100, 20000));
    const Seconds at = rng.uniform(0.0, 50.0);
    eng.schedule_at(at, [&eng, &link, records, size] {
      const std::size_t idx = records->size();
      records->push_back({size, eng.now()});
      [](net::Link& l, Bytes b, std::shared_ptr<std::vector<Record>> rec,
         std::size_t k, sim::Engine& e) -> sim::Proc {
        co_await l.send(b);
        (*rec)[k].done_at = e.now();
      }(link, size, records, idx, eng)
          .detach();
    });
  }
  eng.run();

  ASSERT_EQ(records->size(), std::size_t(n));
  Bytes total = 0;
  Seconds last_done = 0.0, first_sent = 1e18;
  for (const auto& r : *records) {
    ASSERT_GE(r.done_at, 0.0) << "transfer never completed";
    // No transfer beats the line rate.
    EXPECT_GE(r.done_at - r.sent_at, double(r.size) / bandwidth - 1e-6);
    total += r.size;
    last_done = std::max(last_done, r.done_at);
    first_sent = std::min(first_sent, r.sent_at);
  }
  // Aggregate throughput never exceeds capacity.
  EXPECT_GE(last_done - first_sent, double(total) / bandwidth - 1e-6);
  EXPECT_EQ(link.total_bytes_sent(), total);
  EXPECT_EQ(link.active_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Slurm: conservation + priority invariants under random job streams.
// ---------------------------------------------------------------------------
class SlurmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlurmSweep, SchedulerInvariants) {
  sim::Engine eng;
  const int nodes = 4;
  hpc::SlurmCluster cluster(eng, "c", nodes);
  Rng rng(GetParam());

  // The test's own model of the pending queue, in the order jobs must
  // start: QOS priority descending, then submission order.
  using Key = std::pair<int, int>;  // (-qos priority, submission number)
  std::map<Key, hpc::JobId> pending;
  std::set<hpc::JobId> cancelled;
  int submitted = 0;

  for (int i = 0; i < 40; ++i) {
    hpc::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.qos = rng.bernoulli(0.3)   ? hpc::Qos::Realtime
               : rng.bernoulli(0.3) ? hpc::Qos::Debug
                                    : hpc::Qos::Regular;
    spec.nodes = int(rng.uniform_int(1, 3));
    spec.duration = rng.exponential(100.0);
    spec.walltime_limit = spec.duration * (rng.bernoulli(0.1) ? 0.5 : 2.0);
    const Seconds at = rng.uniform(0.0, 500.0);
    eng.schedule_at(at, [&cluster, &pending, &submitted, spec]() mutable {
      const Key key{-hpc::qos_priority(spec.qos), submitted++};
      spec.on_start = [&pending, key] {
        // The starting job heads the model's pending queue.
        ASSERT_FALSE(pending.empty());
        EXPECT_EQ(pending.begin()->first, key);
        pending.erase(key);
      };
      pending[key] = cluster.submit(spec);
    });
  }
  // Cancel random pending jobs: exactly the cancelled job leaves the queue.
  for (int c = 0; c < 8; ++c) {
    eng.schedule_at(rng.uniform(0.0, 600.0),
                    [&cluster, &pending, &cancelled, &rng] {
      if (pending.empty()) return;
      auto it = std::next(pending.begin(),
                          std::ptrdiff_t(rng.uniform_int(
                              0, std::int64_t(pending.size()) - 1)));
      const hpc::JobId id = it->second;
      pending.erase(it);
      cancelled.insert(id);
      EXPECT_TRUE(cluster.cancel(id).ok());
      EXPECT_EQ(cluster.pending_jobs(), pending.size());
    });
  }
  // Sample oversubscription during the run.
  for (int t = 0; t < 100; ++t) {
    eng.schedule_at(double(t) * 20.0, [&cluster, &pending, nodes] {
      EXPECT_LE(cluster.busy_nodes(), nodes);
      EXPECT_GE(cluster.busy_nodes(), 0);
      EXPECT_EQ(cluster.pending_jobs(), pending.size());
    });
  }
  eng.run();

  EXPECT_FALSE(cancelled.empty());
  for (const auto& job : cluster.all_jobs()) {
    if (cancelled.count(job.id) != 0) {
      // Cancelled while pending: never started.
      EXPECT_EQ(job.state, hpc::JobState::Cancelled);
      EXPECT_LT(job.started_at, 0.0);
      continue;
    }
    // Every job reached a terminal state.
    EXPECT_TRUE(job.state == hpc::JobState::Completed ||
                job.state == hpc::JobState::TimedOut)
        << hpc::job_state_name(job.state);
    EXPECT_GE(job.started_at, job.submitted_at);
    const Seconds ran = job.finished_at - job.started_at;
    if (job.state == hpc::JobState::Completed) {
      EXPECT_NEAR(ran, job.spec.duration, 1e-9);
    } else {
      EXPECT_NEAR(ran, job.spec.walltime_limit, 1e-9);
    }
  }
  EXPECT_EQ(cluster.busy_nodes(), 0);
  EXPECT_EQ(cluster.pending_jobs(), 0u);
  EXPECT_TRUE(pending.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlurmSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Transfers: with verification on, delivered files are always intact.
// ---------------------------------------------------------------------------
class CorruptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionSweep, VerifiedFilesAlwaysIntact) {
  sim::Engine eng;
  storage::StorageEndpoint src("src", storage::Tier::BeamlineLocal, TiB);
  storage::StorageEndpoint dst("dst", storage::Tier::Cfs, TiB);
  net::Link link(eng, "l", gbps(10));
  transfer::TransferService svc(eng, 99);
  svc.add_route("src", "dst", &link);
  svc.tuning().checksum_rate = 0.0;
  svc.tuning().retry_delay = 0.1;
  svc.set_corruption_rate(GetParam());

  transfer::TransferSpec spec;
  spec.src = &src;
  spec.dst = &dst;
  for (int i = 0; i < 40; ++i) {
    std::string p = "/f" + std::to_string(i);
    ASSERT_TRUE(src.put(p, MB, 5000 + std::uint64_t(i), 0.0).ok());
    spec.files.push_back({p, "/out" + p});
  }
  auto fut = svc.submit(std::move(spec));
  eng.run();
  const auto& outcome = fut.value();

  // Property: every file counted as OK has the source checksum at the
  // destination, no matter the corruption rate.
  std::size_t verified = 0;
  for (int i = 0; i < 40; ++i) {
    auto landed = dst.stat("/out/f" + std::to_string(i));
    if (landed.ok() && landed.value().checksum == 5000 + std::uint64_t(i)) {
      ++verified;
    }
  }
  EXPECT_GE(verified, outcome.files_ok);
  if (GetParam() == 0.0) {
    EXPECT_EQ(outcome.files_ok, 40u);
    EXPECT_EQ(outcome.retries, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, CorruptionSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5));

// ---------------------------------------------------------------------------
// Retention: pruning never removes files younger than the policy age.
// ---------------------------------------------------------------------------
class RetentionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetentionSweep, YoungFilesSurvive) {
  storage::StorageEndpoint ep("x", storage::Tier::BeamlineLocal, TiB);
  Rng rng(GetParam());
  const Seconds now = days(100);
  const Seconds max_age = days(rng.uniform(1.0, 30.0));
  std::vector<std::pair<std::string, Seconds>> files;
  for (int i = 0; i < 50; ++i) {
    std::string p = "/d/f" + std::to_string(i);
    Seconds created = now - days(rng.uniform(0.0, 60.0));
    ASSERT_TRUE(ep.put(p, MB, 0, created).ok());
    files.emplace_back(p, created);
  }
  auto report = storage::prune_pass(ep, {"/d/", max_age}, now);
  for (const auto& [path, created] : files) {
    const bool should_survive = created >= now - max_age;
    EXPECT_EQ(ep.exists(path), should_survive) << path;
  }
  EXPECT_EQ(report.files_removed + ep.file_count(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetentionSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Statistics: Summary agrees with OnlineStats on random samples.
// ---------------------------------------------------------------------------
class StatsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsSweep, SummaryMatchesOnline) {
  Rng rng(GetParam());
  std::vector<double> samples;
  OnlineStats online;
  const int n = int(rng.uniform_int(1, 500));
  for (int i = 0; i < n; ++i) {
    double x = rng.lognormal(3.0, 1.0);
    samples.push_back(x);
    online.add(x);
  }
  auto s = summarize(samples);
  EXPECT_EQ(s.n, std::size_t(n));
  EXPECT_NEAR(s.mean, online.mean(), 1e-9 * std::abs(online.mean()));
  EXPECT_NEAR(s.stddev, online.stddev(), 1e-6 * (online.stddev() + 1.0));
  EXPECT_DOUBLE_EQ(s.min, online.min());
  EXPECT_DOUBLE_EQ(s.max, online.max());
  EXPECT_GE(s.median, s.min);
  EXPECT_LE(s.median, s.max);
  EXPECT_LE(s.p05, s.median);
  EXPECT_GE(s.p95, s.median);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSweep,
                         ::testing::Values(7, 17, 27, 37, 47, 57));

// ---------------------------------------------------------------------------
// Quantiles: min <= p50 <= p95 <= p99 <= max for the single-database and
// the merged (sharded) task-duration queries, and for histogram estimates.
// ---------------------------------------------------------------------------
class QuantileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileSweep, OrderedAndInsideObservedRange) {
  Rng rng(GetParam());
  std::vector<flow::RunDatabase> shards(3);
  flow::RunDatabase unsharded;
  telemetry::Histogram hist(
      {0.5, 1, 2, 5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120});
  std::vector<double> durations;
  const int n = int(rng.uniform_int(1, 300));
  Seconds t = 0.0;
  for (int i = 0; i < n; ++i) {
    // Heavy-tailed: sub-second staging steps to multi-hour queue waits,
    // past both ends of the histogram's bucket range.
    const double d = rng.lognormal(5.0, 2.0);
    t += rng.uniform(1.0, 60.0);
    flow::TaskRunRecord rec;
    rec.flow_run_id = "run";
    rec.task_name = "recon";
    rec.state = flow::RunState::Completed;
    rec.started_at = t;
    rec.finished_at = t + d;
    shards[std::size_t(i) % shards.size()].record_task(rec);
    unsharded.record_task(rec);
    hist.observe(rec.finished_at - rec.started_at);
    durations.push_back(rec.finished_at - rec.started_at);
  }
  const Summary exact = summarize(durations);
  const std::size_t kAll = 1u << 20;
  const std::vector<const flow::RunDatabase*> dbs = {&shards[0], &shards[1],
                                                     &shards[2]};
  for (const auto& q :
       {unsharded.task_duration_quantiles("", "recon", kAll),
        flow::merged_task_duration_quantiles(dbs, "", "recon", kAll)}) {
    EXPECT_EQ(q.n, std::size_t(n));
    EXPECT_LE(exact.min, q.p50);
    EXPECT_LE(q.p50, q.p95);
    EXPECT_LE(q.p95, q.p99);
    EXPECT_LE(q.p99, exact.max);
    // Exact order statistics: the median is the summary's median.
    EXPECT_DOUBLE_EQ(q.p50, exact.median);
    EXPECT_DOUBLE_EQ(q.p95, exact.p95);
  }
  // Bucket estimates stay ordered and clamped to the observed range.
  double prev = exact.min;
  for (double q : {0.0, 0.05, 0.5, 0.95, 0.99, 1.0}) {
    const double v = hist.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_LE(v, exact.max) << "q=" << q;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileSweep,
                         ::testing::Values(3, 13, 23, 33, 43, 53, 63, 73));

// ---------------------------------------------------------------------------
// Multiscale: structural invariants across level counts and chunk sizes.
// ---------------------------------------------------------------------------
class PyramidSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PyramidSweep, LevelsShrinkAndMeanIsPreserved) {
  const auto [levels, chunk] = GetParam();
  tomo::Volume vol = tomo::shepp_logan_3d(32);
  auto ms = data::MultiscaleVolume::build(vol, levels, chunk);
  EXPECT_LE(ms.n_levels(), levels);
  double prev_bytes = 1e30;
  for (std::size_t l = 0; l < ms.n_levels(); ++l) {
    const double bytes = double(ms.level(l).size()) * 4;
    EXPECT_LT(bytes, prev_bytes);
    prev_bytes = bytes;
    // Every chunk in the grid is retrievable.
    auto grid = ms.chunk_grid(l);
    EXPECT_TRUE(ms.chunk(l, {grid.z - 1, grid.y - 1, grid.x - 1}).ok());
  }
  auto mean = [](const tomo::Volume& v) {
    double acc = 0.0;
    for (float p : v.span()) acc += p;
    return acc / double(v.size());
  };
  EXPECT_NEAR(mean(ms.level(0)), mean(ms.level(ms.n_levels() - 1)), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PyramidSweep,
                         ::testing::Combine(::testing::Values(1, 3, 6),
                                            ::testing::Values(8, 16, 32)));

}  // namespace
}  // namespace alsflow
