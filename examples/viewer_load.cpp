// viewer_load — concurrent Tiled viewers hammering the serving front end.
//
// Models the access-layer moment from Section 4.2.4: a beamline group and
// a remote collaborator both scrubbing through a freshly published
// multiscale reconstruction while a bulk export script churns in the
// background. The serve::Frontend keeps the interactive viewers fast
// (cache + weighted-fair dequeue) and sheds the export's excess instead
// of letting queues grow.
//
// Prints the per-tenant outcome, cache effectiveness, latency percentiles
// and the telemetry metrics snapshot.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/tiled.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "data/multiscale.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frontend.hpp"
#include "tomo/phantom.hpp"

using namespace alsflow;

namespace {

struct TenantOutcome {
  std::string name;
  std::size_t served = 0;
  std::size_t failed = 0;
  std::vector<double> latency{};
};

}  // namespace

int main() {
  telemetry::global().set_enabled(true);

  std::printf("=== viewer_load: concurrent viewers on serve::Frontend ===\n\n");
  const std::size_t n = 192;
  auto volume = std::make_shared<const data::MultiscaleVolume>(
      data::MultiscaleVolume::build(tomo::shepp_logan_3d(n), 3, 32));
  access::TiledService tiled;
  tiled.register_volume("scan-0001", volume);

  // Dedicated pool so render workers are real threads even on boxes where
  // the global pool is serial (single-core CI).
  parallel::ThreadPool pool(3);
  serve::FrontendConfig cfg;
  cfg.pool = &pool;
  cfg.concurrency = 2;
  cfg.max_queue = 48;
  cfg.per_tenant_queue = 48;
  cfg.cache_bytes = 32 * MiB;
  cfg.max_queue_wait = 0.05;
  serve::Frontend frontend(tiled, cfg);
  // Interactive viewers outweigh the batch exporter 4:1.
  frontend.set_tenant_weight("beamline", 4.0);
  frontend.set_tenant_weight("remote", 4.0);
  frontend.set_tenant_weight("export", 1.0);

  // Each viewer scrubs through slices; the exporter walks every slice of
  // every axis as fast as it can submit.
  auto viewer = [&](TenantOutcome* out, std::size_t requests, int axis,
                    std::size_t stride) {
    for (std::size_t i = 0; i < requests; ++i) {
      serve::SliceRequest req;
      req.tenant = out->name;
      req.volume = "scan-0001";
      req.level = 0;
      req.axis = axis;
      req.index = (i * stride) % n;
      const auto t0 = std::chrono::steady_clock::now();
      auto r = frontend.submit(std::move(req))->wait();
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (r.ok()) {
        out->served++;
        out->latency.push_back(dt);
      } else {
        out->failed++;
      }
    }
  };
  auto exporter = [&](TenantOutcome* out) {
    std::vector<std::shared_ptr<serve::Ticket>> open;
    for (std::size_t i = 0; i < 3 * n; ++i) {  // open-loop: no backpressure
      serve::SliceRequest req;
      req.tenant = out->name;
      req.volume = "scan-0001";
      req.level = 0;
      req.axis = int(i / n);
      req.index = i % n;
      open.push_back(frontend.submit(std::move(req)));
    }
    for (auto& t : open) {
      if (t->wait().ok()) {
        out->served++;
      } else {
        out->failed++;
      }
    }
  };

  TenantOutcome beamline{"beamline"}, remote{"remote"}, exporte{"export"};
  std::thread t1(viewer, &beamline, 200, 0, 1);   // scrub z, revisits
  std::thread t2(viewer, &remote, 200, 2, 7);     // strided x scrub
  std::thread t3(exporter, &exporte);
  t1.join();
  t2.join();
  t3.join();
  frontend.drain();

  std::printf("%-10s %8s %8s %12s %12s\n", "tenant", "served", "failed",
              "p50 (ms)", "p99 (ms)");
  for (auto* t : {&beamline, &remote, &exporte}) {
    std::sort(t->latency.begin(), t->latency.end());
    std::printf("%-10s %8zu %8zu %12.3f %12.3f\n", t->name.c_str(), t->served,
                t->failed, percentile_sorted(t->latency, 0.5) * 1e3,
                percentile_sorted(t->latency, 0.99) * 1e3);
  }

  const auto cs = frontend.cache_stats();
  const auto st = frontend.stats();
  const double lookups = double(cs.hits + cs.misses + cs.coalesced);
  std::printf("\ncache: %zu hits / %zu misses / %zu coalesced"
              "  (hit rate %.0f%%, %zu evictions)\n",
              cs.hits, cs.misses, cs.coalesced,
              lookups > 0 ? 100.0 * double(cs.hits + cs.coalesced) / lookups
                          : 0.0,
              cs.evictions);
  std::printf("frontend: %zu submitted, %zu served, %zu shed, %zu rejected, "
              "%zu degraded, max queue depth %zu\n",
              st.submitted, st.served, st.shed, st.rejected, st.degraded,
              st.max_queue_depth);
  std::printf("tiled service rendered %zu slices (%s)\n", tiled.requests(),
              human_bytes(tiled.bytes_served()).c_str());

  std::printf("\nmetrics snapshot\n%s",
              telemetry::global().metrics().report().c_str());
  return 0;
}
