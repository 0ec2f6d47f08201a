#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/checksum.hpp"
#include "common/id.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace alsflow {
namespace {

TEST(Units, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2 * KiB), "2.0 KiB");
  EXPECT_EQ(human_bytes(30 * GiB), "30.00 GiB");
  EXPECT_EQ(human_bytes(5 * TiB), "5.00 TiB");
}

TEST(Units, HumanDuration) {
  EXPECT_EQ(human_duration(7.4), "7.4s");
  EXPECT_EQ(human_duration(minutes(25) + 12), "25m 12s");
  EXPECT_EQ(human_duration(hours(3) + minutes(5)), "3h 05m");
  EXPECT_EQ(human_duration(-7.4), "-7.4s");
  EXPECT_EQ(human_duration(-(minutes(25) + 12)), "-25m 12s");
  EXPECT_EQ(human_duration(-(hours(3) + minutes(5))), "-3h 05m");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(3), 180.0);
  EXPECT_DOUBLE_EQ(hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(days(1), 86400.0);
  EXPECT_DOUBLE_EQ(gbps(10), 1.25e9);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(7);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.2);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(7);
  OnlineStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(double(rng.poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.add(double(rng.poisson(1000.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 1000.0, 2.0);
  EXPECT_NEAR(large.stddev(), std::sqrt(1000.0), 2.0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(double(hits) / 10000.0, 0.25, 0.02);
}

TEST(OnlineStats, KnownVector) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample sd
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, KnownVector) {
  auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Summary, MedianEvenCount) {
  auto s = summarize({1.0, 2.0, 3.0, 10.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Summary, Empty) {
  auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, Percentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(i));
  auto s = summarize(v);
  EXPECT_NEAR(s.p05, 5.95, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
}

TEST(PercentileSorted, Interpolates) {
  std::vector<double> v{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 20.0);
}

TEST(Checksum, DeterministicAndSensitive) {
  EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Checksum, IncrementalMatchesOneShot) {
  Fnv1a64 h;
  h.update("hel", 3);
  h.update("lo", 2);
  EXPECT_EQ(h.digest(), fnv1a64("hello"));
}

TEST(Checksum, CombineOrderSensitive) {
  auto a = fnv1a64("a"), b = fnv1a64("b");
  EXPECT_NE(combine_digests(a, b), combine_digests(b, a));
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Error::make("timeout", "globus task timed out"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "timeout");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Status, SuccessAndFailure) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad(Error::make("permission_denied"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "permission_denied");
}

TEST(IdGenerator, MonotonicUnique) {
  IdGenerator gen("flowrun");
  auto a = gen.next();
  auto b = gen.next();
  EXPECT_EQ(a, "flowrun-000001");
  EXPECT_EQ(b, "flowrun-000002");
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace alsflow
