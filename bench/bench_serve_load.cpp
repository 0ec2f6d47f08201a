// Serving front-end load benchmark: cache effectiveness, singleflight
// coalescing, and overload behaviour of serve::Frontend.
//
// Three phases, each with an acceptance line:
//  1. cold vs hot  — p50 latency of cache hits must be >= 10x better than
//     cold renders (the whole point of the slice cache).
//  2. coalesce     — a concurrent burst of identical requests performs
//     exactly one render; everyone else hits or coalesces.
//  3. overload     — ~2x over-admission sheds instead of growing queues:
//     p99 queue wait of *served* requests stays bounded by max_queue_wait
//     and the queue never exceeds its cap.
//
// Results land in BENCH_serve_load.json for machine consumption.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/tiled.hpp"
#include "common/stats.hpp"
#include "data/multiscale.hpp"
#include "serve/frontend.hpp"
#include "tomo/phantom.hpp"

using namespace alsflow;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

serve::SliceRequest req(const std::string& tenant, std::size_t index,
                        int axis = 2) {
  serve::SliceRequest r;
  r.tenant = tenant;
  r.volume = "vol";
  r.level = 0;
  r.axis = axis;  // axis 2 is the strided (slowest) render path
  r.index = index;
  return r;
}

}  // namespace

int main() {
  std::printf("=== serve::Frontend load benchmark ===\n\n");
  const std::size_t n = 192;
  std::printf("building %zu^3 multiscale volume...\n", n);
  auto volume = std::make_shared<const data::MultiscaleVolume>(
      data::MultiscaleVolume::build(tomo::shepp_logan_3d(n), 3, 32));

  // --- Phase 1: cold vs hot p50 -------------------------------------------
  double cold_p50 = 0.0, hot_p50 = 0.0;
  {
    access::TiledService tiled;
    tiled.register_volume("vol", volume);
    serve::FrontendConfig cfg;
    cfg.cache_bytes = 256 * MiB;
    cfg.max_queue_wait = 0.0;
    cfg.degrade_levels = 0;
    serve::Frontend fe(tiled, cfg);

    std::vector<double> cold, hot;
    for (std::size_t i = 0; i < 128; ++i) {
      const double t0 = now_s();
      auto r = fe.get(req("viewer", i));
      if (r.ok()) cold.push_back(now_s() - t0);
    }
    for (std::size_t i = 0; i < 128; ++i) {
      const double t0 = now_s();
      auto r = fe.get(req("viewer", i));
      if (r.ok()) hot.push_back(now_s() - t0);
    }
    std::sort(cold.begin(), cold.end());
    std::sort(hot.begin(), hot.end());
    cold_p50 = percentile_sorted(cold, 0.5);
    hot_p50 = percentile_sorted(hot, 0.5);
    const auto cs = fe.cache_stats();
    std::printf("cold p50 %8.1f us   hot p50 %8.1f us   speedup %6.1fx"
                "   (hits %zu / misses %zu)   %s\n",
                cold_p50 * 1e6, hot_p50 * 1e6,
                hot_p50 > 0 ? cold_p50 / hot_p50 : 0.0, cs.hits, cs.misses,
                cold_p50 >= 10.0 * hot_p50 ? ">= 10x OK" : "MISSED");
  }

  // --- Phase 2: duplicate burst coalesces to one render -------------------
  std::size_t dup_misses = 0, dup_hits = 0, dup_coalesced = 0;
  constexpr std::size_t kDupes = 16;
  {
    access::TiledService tiled;
    tiled.register_volume("vol", volume);
    serve::FrontendConfig cfg;
    cfg.concurrency = 4;
    cfg.cache_bytes = 256 * MiB;
    cfg.max_queue_wait = 0.0;
    cfg.degrade_levels = 0;
    cfg.start_paused = true;  // queue the whole burst, then release at once
    serve::Frontend fe(tiled, cfg);

    std::vector<std::shared_ptr<serve::Ticket>> tickets;
    for (std::size_t i = 0; i < kDupes; ++i) {
      tickets.push_back(fe.submit(req("viewer", 91)));  // identical key
    }
    fe.resume();
    for (auto& t : tickets) (void)t->wait();
    const auto cs = fe.cache_stats();
    dup_misses = cs.misses;
    dup_hits = cs.hits;
    dup_coalesced = cs.coalesced;
    std::printf("dupe burst of %zu: renders %zu, coalesced %zu, hits %zu"
                "   %s\n",
                kDupes, cs.misses, cs.coalesced, cs.hits,
                cs.misses == 1 && cs.coalesced + cs.hits == kDupes - 1
                    ? "1 render OK"
                    : "MISSED");
  }

  // --- Phase 3: 2x over-admission sheds, queue wait stays bounded ---------
  double p50_wait = 0.0, p99_wait = 0.0;
  std::size_t served = 0, shed = 0, max_depth = 0;
  const Seconds kMaxWait = 0.05;
  {
    access::TiledService tiled;
    tiled.register_volume("vol", volume);
    serve::FrontendConfig cfg;
    cfg.concurrency = 2;
    cfg.max_queue = 64;
    cfg.per_tenant_queue = 64;
    cfg.cache_bytes = 1 * MiB;  // small: keep the renders coming
    cfg.max_queue_wait = kMaxWait;
    cfg.degrade_levels = 0;
    serve::Frontend fe(tiled, cfg);

    // Open-loop offered load from 4 client threads, distinct slices so
    // every admitted request is a real render.
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 500;
    std::vector<std::vector<std::shared_ptr<serve::Ticket>>> all(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = 0; i < kPerClient; ++i) {
          all[c].push_back(
              fe.submit(req("viewer-" + std::to_string(c),
                            (c * kPerClient + i) % n, int(i % 3))));
        }
      });
    }
    for (auto& c : clients) c.join();
    fe.drain();

    std::vector<double> waits;
    for (auto& tickets : all) {
      for (auto& t : tickets) {
        auto r = t->wait();
        if (r.ok()) waits.push_back(r.value().queue_wait);
      }
    }
    const auto st = fe.stats();
    served = st.served;
    shed = st.shed + st.rejected + st.deadline_shed;
    max_depth = st.max_queue_depth;
    std::sort(waits.begin(), waits.end());
    p50_wait = percentile_sorted(waits, 0.5);
    p99_wait = percentile_sorted(waits, 0.99);
    std::printf("overload: offered %zu, served %zu, shed %zu, "
                "max depth %zu/%zu\n",
                kClients * kPerClient, served, shed, max_depth,
                cfg.max_queue);
    std::printf("queue wait p50 %6.2f ms  p99 %6.2f ms (cap %4.0f ms)   %s\n",
                p50_wait * 1e3, p99_wait * 1e3, kMaxWait * 1e3,
                p99_wait <= kMaxWait && max_depth <= cfg.max_queue && shed > 0
                    ? "bounded OK"
                    : "MISSED");
  }

  // --- JSON record --------------------------------------------------------
  if (FILE* f = std::fopen("BENCH_serve_load.json", "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"volume_n\": %zu,\n", n);
    std::fprintf(f, "  \"cold_p50_s\": %.9f,\n", cold_p50);
    std::fprintf(f, "  \"hot_p50_s\": %.9f,\n", hot_p50);
    std::fprintf(f, "  \"hot_speedup\": %.2f,\n",
                 hot_p50 > 0 ? cold_p50 / hot_p50 : 0.0);
    std::fprintf(f, "  \"dupe_burst\": %zu,\n", kDupes);
    std::fprintf(f, "  \"dupe_renders\": %zu,\n", dup_misses);
    std::fprintf(f, "  \"dupe_coalesced\": %zu,\n", dup_coalesced);
    std::fprintf(f, "  \"dupe_hits\": %zu,\n", dup_hits);
    std::fprintf(f, "  \"overload_served\": %zu,\n", served);
    std::fprintf(f, "  \"overload_shed\": %zu,\n", shed);
    std::fprintf(f, "  \"overload_max_queue_depth\": %zu,\n", max_depth);
    std::fprintf(f, "  \"queue_wait_p50_s\": %.9f,\n", p50_wait);
    std::fprintf(f, "  \"queue_wait_p99_s\": %.9f,\n", p99_wait);
    std::fprintf(f, "  \"queue_wait_cap_s\": %.3f\n", double(kMaxWait));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_serve_load.json\n");
  }
  return 0;
}
