// Property-style parameterized suites: invariants that must hold across
// whole parameter families, not just single examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "data/multiscale.hpp"
#include "flow/run_db.hpp"
#include "hpc/slurm.hpp"
#include "monitor/slo.hpp"
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
// Quantiles: min <= p50 <= p95 <= p99 <= max for the run database's
// task-duration query and for histogram estimates.
// ---------------------------------------------------------------------------
class QuantileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileSweep, OrderedAndInsideObservedRange) {
  Rng rng(GetParam());
  flow::RunDatabase db;
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
    db.record_task(rec);
    hist.observe(rec.finished_at - rec.started_at);
    durations.push_back(rec.finished_at - rec.started_at);
  }
  const Summary exact = summarize(durations);
  const std::size_t kAll = 1u << 20;
  const auto q = db.task_duration_quantiles("", "recon", kAll);
  EXPECT_EQ(q.n, std::size_t(n));
  EXPECT_LE(exact.min, q.p50);
  EXPECT_LE(q.p50, q.p95);
  EXPECT_LE(q.p95, q.p99);
  EXPECT_LE(q.p99, exact.max);
  // Exact order statistics: the median is the summary's median.
  EXPECT_DOUBLE_EQ(q.p50, exact.median);
  EXPECT_DOUBLE_EQ(q.p95, exact.p95);
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


// ---------------------------------------------------------------------------
// SLO engine: the running-count windows agree with a linear scan.
//
// LinearScanSlo is SloEngine as it was before the windows became running
// counts: every evaluation rescans each in-window sample for both windows of
// every rule. One change: a sample older than its series' newest timestamp
// minus the retention is dropped wherever it sits, where the old engine only
// popped the front of its arrival-ordered deque (DESIGN.md §14's rule for
// stragglers). On an in-order stream the deque is sorted and the two prunes
// drop the same samples.
// ---------------------------------------------------------------------------
class LinearScanSlo {
 public:
  void add(monitor::SloSpec spec) {
    if (spec.value_buckets.empty()) {
      if (spec.use_ok_flag || spec.objective <= 0.0) {
        spec.value_buckets = {0.5, 1.0};
      } else {
        const double o = spec.objective;
        spec.value_buckets = {o * 0.125, o * 0.25, o * 0.5, o,
                              o * 2.0,   o * 4.0,  o * 8.0};
      }
    }
    specs_.push_back(std::move(spec));
  }

  std::vector<monitor::Alert> ingest(const telemetry::MonitorEvent& ev) {
    std::vector<monitor::Alert> fired;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const monitor::SloSpec& spec = specs_[i];
      if (spec.component != ev.component || spec.kind != ev.kind) continue;
      const std::string& target =
          spec.per_target ? ev.target : spec.service_target;
      SeriesKey key{i, target};
      Series& s = series_[key];
      if (!s.values) {
        s.values = std::make_unique<telemetry::Histogram>(spec.value_buckets);
      }
      Sample sm;
      sm.t = ev.t;
      sm.good = spec.use_ok_flag
                    ? ev.ok
                    : (spec.higher_is_better ? ev.value >= spec.objective
                                             : ev.value <= spec.objective);
      sm.detail = ev.detail;
      s.samples.push_back(std::move(sm));
      s.values->observe(ev.value);
      Seconds longest = 3600.0;
      for (const monitor::BurnRule& r : spec.rules) {
        longest = std::max(longest, r.window);
      }
      while (!s.samples.empty() && s.samples.front().t < ev.t - longest) {
        s.samples.pop_front();
      }
      // The straggler rule; a no-op on an in-order stream.
      s.newest = std::max(s.newest, ev.t);
      std::erase_if(s.samples, [&](const Sample& x) {
        return x.t < s.newest - longest;
      });
      evaluate(key, ev.t, &fired);
    }
    return fired;
  }

  void sweep(Seconds now) {
    for (auto& [key, s] : series_) {
      if (s.active_alert < 0) continue;
      if (!firing(s, specs_[key.first], now)) {
        history_[std::size_t(s.active_alert)].resolved_at = now;
        s.active_alert = -1;
      }
    }
  }

  const std::vector<monitor::Alert>& alerts() const { return history_; }

  double health(const std::string& target, Seconds now) const {
    double worst = 1.0;
    for (const auto& [key, s] : series_) {
      if (key.second != target) continue;
      const monitor::SloSpec& spec = specs_[key.first];
      Seconds window = 3600.0;
      for (const monitor::BurnRule& r : spec.rules) {
        window = std::max(window, r.window);
      }
      std::size_t n = 0, good = 0;
      for (const Sample& sm : s.samples) {
        if (sm.t < now - window) continue;
        ++n;
        if (sm.good) ++good;
      }
      if (n > 0) worst = std::min(worst, double(good) / double(n));
    }
    for (const monitor::Alert& a : history_) {
      if (!a.active() || a.target != target) continue;
      worst *= a.severity == monitor::Severity::Page ? 0.5 : 0.75;
    }
    return std::max(worst, 0.0);
  }

  std::map<std::string, double> health_scores(Seconds now) const {
    std::map<std::string, double> out;
    for (const auto& [key, s] : series_) out[key.second] = 0.0;
    for (const monitor::Alert& a : history_) {
      if (a.active()) out[a.target] = 0.0;
    }
    for (auto& [target, score] : out) score = health(target, now);
    return out;
  }

  std::string summary(Seconds now) const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-24s %-24s %6s %6s %10s %10s %10s  %s\n", "slo",
                  "target", "n", "good%", "p50", "p95", "p99", "state");
    out += line;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const monitor::SloSpec& spec = specs_[i];
      for (const auto& [key, s] : series_) {
        if (key.first != i) continue;
        Seconds window = 0.0;
        for (const monitor::BurnRule& r : spec.rules) {
          window = std::max(window, r.window);
        }
        if (window <= 0.0) window = 3600.0;
        std::size_t n = 0, good = 0;
        for (const Sample& sm : s.samples) {
          if (sm.t < now - window) continue;
          ++n;
          if (sm.good) ++good;
        }
        const char* state = "ok";
        if (s.active_alert >= 0) {
          state = monitor::severity_name(
              history_[std::size_t(s.active_alert)].severity);
        }
        std::snprintf(line, sizeof line,
                      "  %-24s %-24s %6zu %5.1f%% %10.3g %10.3g %10.3g  %s\n",
                      spec.name.c_str(), key.second.c_str(), n,
                      n > 0 ? 100.0 * double(good) / double(n) : 100.0,
                      s.values->quantile(0.50), s.values->quantile(0.95),
                      s.values->quantile(0.99), state);
        out += line;
      }
    }
    return out;
  }

 private:
  struct Sample {
    Seconds t = 0.0;
    bool good = true;
    std::string detail;
  };
  struct Series {
    std::deque<Sample> samples;
    Seconds newest = -1e300;
    std::unique_ptr<telemetry::Histogram> values;
    std::int64_t active_alert = -1;
  };
  struct Burn {
    double burn_long = 0.0;
    double burn_short = 0.0;
    std::size_t n_long = 0;
    std::string detail;
  };
  using SeriesKey = std::pair<std::size_t, std::string>;

  static bool more_severe(monitor::Severity a, monitor::Severity b) {
    return a == monitor::Severity::Page && b == monitor::Severity::Ticket;
  }

  static Burn burn_rates(const Series& s, const monitor::SloSpec& spec,
                         const monitor::BurnRule& rule, Seconds now) {
    Burn b;
    const Seconds long_from = now - rule.window;
    const Seconds short_from =
        now - rule.window / monitor::SloEngine::kShortDivisor;
    std::size_t bad_long = 0, n_short = 0, bad_short = 0;
    std::map<std::string, std::size_t> bad_details;
    for (const Sample& sm : s.samples) {
      if (sm.t < long_from) continue;
      ++b.n_long;
      if (!sm.good) {
        ++bad_long;
        ++bad_details[sm.detail];
      }
      if (sm.t >= short_from) {
        ++n_short;
        if (!sm.good) ++bad_short;
      }
    }
    const double budget = std::max(1.0 - spec.target_fraction, 1e-9);
    if (b.n_long > 0) {
      b.burn_long = (double(bad_long) / double(b.n_long)) / budget;
    }
    if (n_short > 0) {
      b.burn_short = (double(bad_short) / double(n_short)) / budget;
    }
    std::size_t best = 0;
    for (const auto& [detail, n] : bad_details) {
      if (n > best) {
        best = n;
        b.detail = detail;
      }
    }
    return b;
  }

  static std::optional<std::pair<monitor::BurnRule, Burn>> firing(
      const Series& s, const monitor::SloSpec& spec, Seconds now) {
    std::optional<std::pair<monitor::BurnRule, Burn>> out;
    for (const monitor::BurnRule& rule : spec.rules) {
      Burn b = burn_rates(s, spec, rule, now);
      if (b.n_long < std::max<std::size_t>(spec.min_samples, 1)) continue;
      if (b.burn_long < rule.burn_threshold) continue;
      if (b.burn_short < rule.burn_threshold) continue;
      if (!out || more_severe(rule.severity, out->first.severity)) {
        out = {rule, b};
      }
    }
    return out;
  }

  void evaluate(const SeriesKey& key, Seconds now,
                std::vector<monitor::Alert>* fired) {
    const monitor::SloSpec& spec = specs_[key.first];
    Series& s = series_[key];
    auto f = firing(s, spec, now);
    if (!f) {
      if (s.active_alert >= 0) {
        history_[std::size_t(s.active_alert)].resolved_at = now;
        s.active_alert = -1;
      }
      return;
    }
    if (s.active_alert >= 0) {
      monitor::Alert& cur = history_[std::size_t(s.active_alert)];
      if (!more_severe(f->first.severity, cur.severity)) return;
      cur.resolved_at = now;
      s.active_alert = -1;
    }
    monitor::Alert a;
    a.id = history_.size() + 1;
    a.slo = spec.name;
    a.target = key.second;
    a.stage = spec.stage;
    a.severity = f->first.severity;
    a.fired_at = now;
    a.window = f->first.window;
    a.burn_long = f->second.burn_long;
    a.burn_short = f->second.burn_short;
    a.detail = f->second.detail;
    s.active_alert = std::int64_t(history_.size());
    history_.push_back(a);
    if (fired != nullptr) fired->push_back(a);
  }

  std::vector<monitor::SloSpec> specs_;
  std::map<SeriesKey, Series> series_;
  std::vector<monitor::Alert> history_;
};

std::vector<std::string> alert_json(const std::vector<monitor::Alert>& as) {
  std::vector<std::string> out;
  for (const monitor::Alert& a : as) out.push_back(a.json());
  return out;
}

// Random specs and a random stream, the same into both engines. Even seeds
// stamp whole seconds on a 1, 10 or 60 s grid, so samples sit exactly on
// window edges; every third seed back-dates some arrivals, a few past the
// retention horizon.
// Returns how many alerts the stream fired.
std::size_t check_against_oracle(std::uint64_t seed) {
  const char* const kTargets[] = {"alpha", "beta", "gamma"};
  const char* const kDetails[] = {"", "io_error", "permission_denied",
                                  "timeout"};
  const Seconds kWindows[] = {20.0, 60.0, 300.0, 600.0, 3600.0, 5400.0};
  Rng rng(seed);
  const double grids[] = {1.0, 10.0, 60.0};
  const double grid = seed % 2 == 0 ? grids[rng.uniform_int(0, 2)] : 0.0;
  const bool out_of_order = seed % 3 == 0;
  monitor::SloEngine engine;
  LinearScanSlo oracle;
  const int n_specs = int(rng.uniform_int(1, 3));
  for (int i = 0; i < n_specs; ++i) {
    monitor::SloSpec spec;
    spec.name = "slo" + std::to_string(i);
    spec.component = "svc";
    spec.kind = "k" + std::to_string(rng.uniform_int(0, 1));
    spec.stage = "stage";
    spec.per_target = rng.bernoulli(0.7);
    spec.service_target = "all";
    spec.use_ok_flag = rng.bernoulli(0.5);
    spec.objective = 10.0;
    spec.higher_is_better = rng.bernoulli(0.5);
    const double fractions[] = {0.5, 0.8, 0.9, 0.99};
    spec.target_fraction = fractions[rng.uniform_int(0, 3)];
    spec.min_samples = std::size_t(rng.uniform_int(0, 5));
    const int n_rules = int(rng.uniform_int(0, 3));
    for (int r = 0; r < n_rules; ++r) {
      monitor::BurnRule rule;
      rule.window = kWindows[rng.uniform_int(0, 5)];
      // Now and then a zero threshold: such a rule fires on any sample.
      const double thresholds[] = {1.0, 1.5, 2.0, 3.0};
      rule.burn_threshold =
          rng.bernoulli(0.05) ? 0.0 : thresholds[rng.uniform_int(0, 3)];
      rule.severity = rng.bernoulli(0.5) ? monitor::Severity::Page
                                         : monitor::Severity::Ticket;
      spec.rules.push_back(rule);
    }
    engine.add(spec);
    oracle.add(spec);
  }

  // Mean gap between events: from several per short window to one per
  // long window, so windows hold from a handful to ~100 samples.
  const double gaps[] = {2.0, 10.0, 40.0};
  const double gap = gaps[rng.uniform_int(0, 2)];
  double bad_rate = 0.0;
  Seconds clock = 1000.0;
  Seconds newest = 0.0;
  const int n_events = int(rng.uniform_int(150, 300));
  auto query = [&](Seconds now) {
    engine.sweep(now);
    oracle.sweep(now);
    for (const char* target : {"alpha", "beta", "gamma", "all", "none"}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.health(target, now)),
                std::bit_cast<std::uint64_t>(oracle.health(target, now)))
          << target << " at " << now;
    }
    const auto scores = engine.health_scores(now);
    const auto expected = oracle.health_scores(now);
    ASSERT_EQ(scores.size(), expected.size());
    for (const auto& [target, score] : expected) {
      ASSERT_EQ(scores.count(target), 1u) << target;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scores.at(target)),
                std::bit_cast<std::uint64_t>(score))
          << target << " at " << now;
    }
    EXPECT_EQ(engine.summary(now), oracle.summary(now)) << "at " << now;
    EXPECT_EQ(alert_json(engine.alerts()), alert_json(oracle.alerts()));
  };
  for (int i = 0; i < n_events; ++i) {
    if (i % 40 == 0) {
      const double rates[] = {0.0, 0.1, 0.5, 0.9};
      bad_rate = rates[rng.uniform_int(0, 3)];
    }
    if (rng.bernoulli(0.02)) {
      clock += rng.uniform(5400.0, 12000.0);  // quiet past every window
    } else if (!rng.bernoulli(0.05)) {        // else an equal timestamp
      clock += rng.exponential(gap);
    }
    Seconds t = clock;
    if (out_of_order && rng.bernoulli(0.1)) {
      t -= rng.bernoulli(0.1) ? rng.uniform(3000.0, 7000.0)
                              : rng.uniform(0.0, 60.0);
    }
    if (grid > 0.0) t = grid * double(std::int64_t(t / grid));
    newest = std::max(newest, t);
    telemetry::MonitorEvent ev;
    ev.t = t;
    ev.component = "svc";
    ev.kind = "k" + std::to_string(rng.uniform_int(0, 1));
    ev.target = kTargets[rng.uniform_int(0, 2)];
    ev.ok = !rng.bernoulli(bad_rate);
    ev.value = rng.bernoulli(bad_rate) ? 20.0 : 5.0;
    ev.detail = kDetails[rng.uniform_int(0, 3)];
    const auto fired = alert_json(engine.ingest(ev));
    const auto expected = alert_json(oracle.ingest(ev));
    if (fired != expected) {
      // The engines have diverged; later events would only repeat it.
      EXPECT_EQ(fired, expected) << "event " << i << " at " << t;
      return 0;
    }
    if (i % 75 == 74) {
      // Before, at and after the newest sample.
      const double back = grid > 0.0
                              ? grid * double(rng.uniform_int(1, 60))
                              : rng.uniform(0.0, 700.0);
      query(newest - back);
      query(newest);
      query(newest + back);
    }
  }
  query(newest);
  query(newest + 4000.0);
  return engine.alerts().size();
}

TEST(SloEngineProperty, MatchesLinearScanOracle) {
  std::size_t seeds_alerting = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    if (check_against_oracle(seed) > 0) ++seeds_alerting;
  }
  // The streams must exercise alerting, not only quiet series.
  EXPECT_GT(seeds_alerting, 120u);
}

}  // namespace
}  // namespace alsflow
