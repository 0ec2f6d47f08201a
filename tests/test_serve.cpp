// Serving front end: singleflight cache, bounded queues, weighted-fair
// dequeue, shedding, degradation, and thread-safe accounting. These suites
// run under the TSan CI leg — every cross-thread interaction here is a
// race regression gate.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "access/tiled.hpp"
#include "data/multiscale.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/frontend.hpp"
#include "tomo/phantom.hpp"

namespace alsflow::serve {
namespace {

std::shared_ptr<const data::MultiscaleVolume> make_volume(
    std::size_t n = 32, std::size_t levels = 3, std::size_t chunk = 8) {
  return std::make_shared<const data::MultiscaleVolume>(
      data::MultiscaleVolume::build(tomo::shepp_logan_3d(n), levels, chunk));
}

SliceRequest request(const std::string& tenant, std::size_t level, int axis,
                     std::size_t index, double deadline = 0.0) {
  SliceRequest r;
  r.tenant = tenant;
  r.volume = "vol";
  r.level = level;
  r.axis = axis;
  r.index = index;
  r.deadline = deadline;
  return r;
}

// ---------------------------------------------------------------------------
// ChunkCache
// ---------------------------------------------------------------------------

TEST(ChunkCache, SingleflightCollapsesDuplicateInflightRenders) {
  ChunkCache cache(64 * MiB);
  std::atomic<int> renders{0};
  std::atomic<bool> release{false};
  const SliceKey key{"vol", 0, 0, 5};
  auto render = [&]() -> Result<tomo::Image> {
    renders.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    return tomo::Image(16, 16, 1.0f);
  };

  constexpr std::size_t kThreads = 8;
  std::vector<std::optional<ChunkCache::Lookup>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { results[i].emplace(cache.get_or_render(key, render)); });
  }
  // Exactly one leader renders; hold its render open until every other
  // thread has parked on the flight, so none can arrive late and hit.
  while (cache.stats().coalesced < kThreads - 1) std::this_thread::yield();
  release.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(renders.load(), 1);  // the counter that proves one render
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.coalesced, kThreads - 1);
  EXPECT_EQ(st.hits, 0u);
  const tomo::Image* shared = nullptr;
  for (auto& r : results) {
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->image.ok());
    if (shared == nullptr) shared = r->image.value().get();
    EXPECT_EQ(r->image.value().get(), shared);  // one image, shared by all
  }
}

TEST(ChunkCache, LruStaysUnderByteBudgetAcrossEvictionChurn) {
  const Bytes entry = 16 * 16 * sizeof(float);
  const Bytes capacity = 4 * entry + entry / 2;  // room for exactly 4
  ChunkCache cache(capacity);
  for (std::size_t i = 0; i < 20; ++i) {
    auto lookup = cache.get_or_render(
        SliceKey{"vol", 0, 0, i},
        [&]() -> Result<tomo::Image> { return tomo::Image(16, 16, float(i)); });
    ASSERT_TRUE(lookup.image.ok());
    EXPECT_LE(cache.stats().bytes_cached, capacity);  // never over budget
  }
  auto st = cache.stats();
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.misses, 20u);
  EXPECT_EQ(st.evictions, 16u);

  // Most-recent keys are resident; the oldest were evicted.
  auto hot = cache.get_or_render(SliceKey{"vol", 0, 0, 19}, [&]() {
    return Result<tomo::Image>(tomo::Image(16, 16));
  });
  EXPECT_TRUE(hot.hit);
  auto cold = cache.get_or_render(SliceKey{"vol", 0, 0, 0}, [&]() {
    return Result<tomo::Image>(tomo::Image(16, 16));
  });
  EXPECT_FALSE(cold.hit);
}

TEST(ChunkCache, OversizeEntryServedButNeverCached) {
  ChunkCache cache(100);  // smaller than any render
  for (int round = 0; round < 2; ++round) {
    auto lookup = cache.get_or_render(SliceKey{"vol", 0, 0, 1}, [&]() {
      return Result<tomo::Image>(tomo::Image(16, 16, 2.0f));
    });
    ASSERT_TRUE(lookup.image.ok());
    EXPECT_FALSE(lookup.hit);
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ChunkCache, RenderErrorsPropagateAndAreNotCached) {
  ChunkCache cache(64 * MiB);
  int calls = 0;
  auto failing = [&]() -> Result<tomo::Image> {
    ++calls;
    return Error::make("not_found", "no such slice");
  };
  auto first = cache.get_or_render(SliceKey{"vol", 9, 0, 0}, failing);
  EXPECT_FALSE(first.image.ok());
  EXPECT_EQ(first.image.error().code, "not_found");
  auto second = cache.get_or_render(SliceKey{"vol", 9, 0, 0}, failing);
  EXPECT_FALSE(second.image.ok());
  EXPECT_EQ(calls, 2);  // errors retried, not cached
}

// ---------------------------------------------------------------------------
// Frontend: admission control & shedding
// ---------------------------------------------------------------------------

TEST(Frontend, OverloadShedsOldestFirstWithTypedError) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.max_queue = 8;
  cfg.per_tenant_queue = 100;
  cfg.concurrency = 2;
  cfg.max_queue_wait = 0.0;  // isolate full-queue shedding
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);

  std::vector<std::shared_ptr<Ticket>> tickets;
  for (std::size_t i = 0; i < 20; ++i) {
    tickets.push_back(fe.submit(request("a", 0, 0, i % 32)));
  }
  // 8 fit; each further submit sheds the then-oldest, so 0..11 are shed
  // (oldest-first) and 12..19 survive.
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(tickets[i]->done()) << i;
    auto r = tickets[i]->wait();
    ASSERT_FALSE(r.ok()) << i;
    EXPECT_EQ(r.error().code, "shed") << i;
  }
  fe.resume();
  for (std::size_t i = 12; i < 20; ++i) {
    auto r = tickets[i]->wait();
    EXPECT_TRUE(r.ok()) << i;
  }
  const auto st = fe.stats();
  EXPECT_EQ(st.shed, 12u);
  EXPECT_EQ(st.served, 8u);
  EXPECT_LE(st.max_queue_depth, cfg.max_queue);  // queue never grew past cap
}

TEST(Frontend, RejectNewestPolicyRefusesArrivals) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.max_queue = 4;
  cfg.shed_oldest = false;
  cfg.max_queue_wait = 0.0;
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);

  std::vector<std::shared_ptr<Ticket>> tickets;
  for (std::size_t i = 0; i < 6; ++i) {
    tickets.push_back(fe.submit(request("a", 0, 0, i)));
  }
  for (std::size_t i = 4; i < 6; ++i) {
    auto r = tickets[i]->wait();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "overloaded");
  }
  EXPECT_EQ(fe.stats().rejected, 2u);
  fe.resume();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(tickets[i]->wait().ok());
}

TEST(Frontend, DeadlinesRejectAtAdmissionAndShedAtDequeue) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  std::atomic<double> now{100.0};
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.clock = [&now] { return now.load(); };
  cfg.max_queue_wait = 0.0;
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);

  // Already past its deadline: refused synchronously, typed error.
  auto late = fe.submit(request("a", 0, 0, 1, /*deadline=*/50.0));
  ASSERT_TRUE(late->done());
  EXPECT_EQ(late->wait().error().code, "deadline_exceeded");
  EXPECT_EQ(fe.stats().rejected, 1u);

  // Viable at admission, stale by the time a worker sees it.
  auto queued = fe.submit(request("a", 0, 0, 2, /*deadline=*/150.0));
  now.store(200.0);
  fe.resume();
  auto r = queued->wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "deadline_exceeded");
  EXPECT_EQ(fe.stats().deadline_shed, 1u);
}

TEST(Frontend, AgeBasedSheddingBoundsQueueWait) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  std::atomic<double> now{0.0};
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.clock = [&now] { return now.load(); };
  cfg.max_queue_wait = 10.0;
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);

  auto stale = fe.submit(request("a", 0, 0, 1));
  auto fresh_ticket = fe.submit(request("a", 0, 0, 2));
  now.store(20.0);  // both exceed max_queue_wait
  fe.resume();
  EXPECT_EQ(stale->wait().error().code, "shed");
  EXPECT_EQ(fresh_ticket->wait().error().code, "shed");
  EXPECT_EQ(fe.stats().shed, 2u);
  EXPECT_EQ(fe.stats().served, 0u);
}

// ---------------------------------------------------------------------------
// Frontend: fairness, degradation, determinism
// ---------------------------------------------------------------------------

TEST(Frontend, WeightedFairDequeueUnderSaturation) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.concurrency = 1;  // serial dequeue: the schedule is the stride order
  cfg.max_queue = 1000;
  cfg.per_tenant_queue = 1000;
  cfg.max_queue_wait = 0.0;
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);
  fe.set_tenant_weight("a", 3.0);
  fe.set_tenant_weight("b", 1.0);

  std::vector<std::shared_ptr<Ticket>> a_tickets, b_tickets;
  for (std::size_t i = 0; i < 30; ++i) {
    a_tickets.push_back(fe.submit(request("a", 0, 0, i % 32)));
    b_tickets.push_back(fe.submit(request("b", 0, 0, i % 32)));
  }
  fe.resume();
  fe.drain();

  // Under saturation a 3:1 weight split must yield ~3:1 service in any
  // prefix of the dequeue order.
  std::size_t a_in_first_20 = 0;
  for (auto& t : a_tickets) {
    auto r = t->wait();
    ASSERT_TRUE(r.ok());
    if (r.value().sequence <= 20) ++a_in_first_20;
  }
  EXPECT_GE(a_in_first_20, 13u);
  EXPECT_LE(a_in_first_20, 16u);
  for (auto& t : b_tickets) ASSERT_TRUE(t->wait().ok());  // no starvation
}

TEST(Frontend, DegradesToCoarserLevelUnderPressure) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume(32, 3, 8));
  FrontendConfig cfg;
  cfg.start_paused = true;
  cfg.concurrency = 1;
  cfg.max_queue = 10;
  cfg.degrade_watermark = 0.5;
  cfg.degrade_levels = 1;
  cfg.max_queue_wait = 0.0;
  Frontend fe(tiled, cfg);

  std::vector<std::shared_ptr<Ticket>> tickets;
  for (std::size_t i = 0; i < 10; ++i) {
    tickets.push_back(fe.submit(request("a", 0, 0, 16)));
  }
  fe.resume();
  fe.drain();

  std::size_t degraded = 0;
  for (auto& t : tickets) {
    auto r = t->wait();
    ASSERT_TRUE(r.ok());
    if (r.value().degraded) {
      ++degraded;
      EXPECT_EQ(r.value().level, 1u);
      EXPECT_EQ(r.value().image->ny(), 16u);  // level 1 of a 32^3 volume
    } else {
      EXPECT_EQ(r.value().level, 0u);
      EXPECT_EQ(r.value().image->ny(), 32u);
    }
  }
  // Backlog >= 5 for the first five dequeues, below after.
  EXPECT_EQ(degraded, 5u);
  EXPECT_EQ(fe.stats().degraded, 5u);
}

TEST(Frontend, DeterministicResultsAcrossWorkerCounts) {
  auto volume = make_volume(32, 3, 8);
  auto run = [&](std::size_t concurrency) {
    access::TiledService tiled;
    tiled.register_volume("vol", volume);
    FrontendConfig cfg;
    cfg.concurrency = concurrency;
    cfg.max_queue = 10000;
    cfg.per_tenant_queue = 10000;
    cfg.max_queue_wait = 0.0;  // nothing sheds: every request completes
    cfg.degrade_levels = 0;
    Frontend fe(tiled, cfg);
    std::vector<std::shared_ptr<Ticket>> tickets;
    const std::string tenants[] = {"t0", "t1", "t2"};
    for (std::size_t i = 0; i < 60; ++i) {
      tickets.push_back(
          fe.submit(request(tenants[i % 3], i % 3, int(i % 3), i % 8)));
    }
    std::vector<std::vector<float>> images;
    for (auto& t : tickets) {
      auto r = t->wait();
      EXPECT_TRUE(r.ok());
      const auto& img = *r.value().image;
      images.emplace_back(img.data(), img.data() + img.size());
    }
    return images;
  };
  const auto serial = run(1);
  const auto parallel_run = run(8);
  ASSERT_EQ(serial.size(), parallel_run.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel_run[i]) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Cache/service accounting agreement + thread-safe TiledService counters
// ---------------------------------------------------------------------------

TEST(Frontend, CacheHitsSkipRendersAndAccountingAgrees) {
  access::TiledService tiled;
  auto volume = make_volume(32, 3, 8);
  tiled.register_volume("vol", volume);
  FrontendConfig cfg;
  cfg.max_queue_wait = 0.0;
  cfg.degrade_levels = 0;
  Frontend fe(tiled, cfg);

  auto first = fe.get(request("a", 0, 1, 7));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_EQ(first.value().bytes, volume->slice_bytes(0, 1));
  EXPECT_EQ(tiled.bytes_served(), volume->slice_bytes(0, 1));

  auto second = fe.get(request("b", 0, 1, 7));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  // The hit never re-rendered: TiledService saw exactly one request.
  EXPECT_EQ(tiled.requests(), 1u);
  EXPECT_EQ(tiled.bytes_served(), volume->slice_bytes(0, 1));
  EXPECT_EQ(fe.cache_stats().hits, 1u);
  EXPECT_EQ(fe.cache_stats().misses, 1u);
}

TEST(Frontend, UnknownVolumeFailsTyped) {
  access::TiledService tiled;
  FrontendConfig cfg;
  cfg.max_queue_wait = 0.0;
  Frontend fe(tiled, cfg);
  auto r = fe.get(request("a", 0, 0, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "not_found");
  EXPECT_EQ(fe.stats().errors, 1u);
}

TEST(Frontend, DestructorFailsQueuedTicketsAsUnavailable) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume());
  std::shared_ptr<Ticket> orphan;
  {
    FrontendConfig cfg;
    cfg.start_paused = true;
    Frontend fe(tiled, cfg);
    orphan = fe.submit(request("a", 0, 0, 1));
  }
  ASSERT_TRUE(orphan->done());
  EXPECT_EQ(orphan->wait().error().code, "unavailable");
}

TEST(TiledService, ConcurrentSliceCountersAreConsistent) {
  access::TiledService tiled;
  tiled.register_volume("vol", make_volume(32, 3, 8));
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tiled, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto img = tiled.slice("vol", 0, 0, (t * kPerThread + i) % 32);
        ASSERT_TRUE(img.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tiled.requests(), kThreads * kPerThread);
  EXPECT_EQ(tiled.bytes_served(),
            Bytes(kThreads * kPerThread) * 32 * 32 * sizeof(float));
}

}  // namespace
}  // namespace alsflow::serve
