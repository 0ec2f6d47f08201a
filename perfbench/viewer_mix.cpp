// viewer_mix: two closed-loop viewers plus a bulk exporter on published
// pyramids, through serve::Frontend over access::TiledService.
//
// One viewer scrubs z (contiguous slices), the other scrubs x (the strided
// path). Each viewer asks for a new slice and then revisits it twice, so
// two of every three viewer requests are cache hits by construction. A
// closed-loop exporter keeps a fixed window of requests outstanding and
// walks every level-0 z and y slice of a second volume: 2 x 256 slices,
// 128 MiB, 2.7 times the slice cache. Viewers read hot entries while the
// exporter inserts and evicts, so a change that helps one side at the
// other's cost shows. serve and access do all the work here.
//
// What the access pattern implies for the cache: it holds 3/4 of one
// axis of slices. Between two visits of a slice, its viewer has inserted
// every other slice of its axis, and the exporter every other slice of its
// volume, so every new viewer slice and every export slice must miss. A
// revisit follows its miss at once, so it hits unless 3/4 of the cache
// was replaced in between (a client thread descheduled for that long);
// such revisit misses are counted, and must stay rare.
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/tiled.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "data/multiscale.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frontend.hpp"
#include "tomo/phantom.hpp"

namespace perfbench {
namespace {

using alsflow::tomo::Volume;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kExportWindow = 4;
// The exporter walks the row-contiguous planes (axes 0 and 1). Strided
// x-plane renders are DRAM-latency bound, so on a host whose last-level
// cache is shared with other tenants an exporter on that axis swung its
// rate by +-20% run to run; the x viewer still exercises that path.
constexpr std::size_t kExportAxes = 2;
constexpr std::size_t kLevels = 3;

// Everything the measured phase serves from; rebuilt by each set-up.
struct Service {
  std::unique_ptr<alsflow::parallel::ThreadPool> pool;
  alsflow::access::TiledService tiled;
  std::unique_ptr<alsflow::serve::Frontend> frontend;
};

std::unique_ptr<Service> set_up(const Volume& viewed, const Volume& exported,
                                std::size_t n) {
  auto svc = std::make_unique<Service>();
  svc->pool = std::make_unique<alsflow::parallel::ThreadPool>(3);  // 2 workers
  svc->tiled.register_volume(
      "viewed", std::make_shared<const alsflow::data::MultiscaleVolume>(
                    alsflow::data::MultiscaleVolume::build(viewed, kLevels)));
  svc->tiled.register_volume(
      "exported", std::make_shared<const alsflow::data::MultiscaleVolume>(
                      alsflow::data::MultiscaleVolume::build(exported, kLevels)));
  alsflow::serve::FrontendConfig cfg;
  cfg.pool = svc->pool.get();
  cfg.concurrency = 2;
  cfg.cache_bytes = (3 * n / 4) * n * n * sizeof(float);
  svc->frontend =
      std::make_unique<alsflow::serve::Frontend>(svc->tiled, cfg);
  svc->frontend->set_tenant_weight("viewer-z", 4.0);
  svc->frontend->set_tenant_weight("viewer-x", 4.0);
  svc->frontend->set_tenant_weight("export", 1.0);
  return svc;
}

// Reference hashes of MultiscaleVolume::slice for every key the phase can
// request: [axis * n + index] per volume.
struct References {
  std::vector<std::uint64_t> viewed, exported;
};

std::uint64_t slice_hash(const alsflow::data::MultiscaleVolume& v, int axis,
                         std::size_t index) {
  auto img = v.slice(0, axis, index);
  return img.ok() ? hash_floats(img.value().data(), img.value().size()) : 0;
}

struct Client {
  Series latency;            // submit -> slice in hand
  Series queue_wait, render;  // from SliceResponse
  std::vector<double> done_at;  // completion times (exporter rate windows)
  std::size_t requests = 0, errors = 0, wrong_bytes = 0;
  std::size_t hits = 0, revisits = 0, revisit_misses = 0, wrong_hits = 0;
};

struct PhaseResult {
  Client z, x, exporter;
  Series export_rates;  // exporter slices/s per one-second window
};

void check_response(const alsflow::Result<alsflow::serve::SliceResponse>& r,
                    std::uint64_t want, bool revisit, Client* c) {
  ++c->requests;
  if (!r.ok()) {
    ++c->errors;
    return;
  }
  const auto& resp = r.value();
  if (hash_floats(resp.image->data(), resp.image->size()) != want) {
    ++c->wrong_bytes;
  }
  c->queue_wait.add(resp.queue_wait);
  c->render.add(resp.render_seconds);
  if (resp.cache_hit) ++c->hits;
  if (revisit) ++c->revisits;
  if (revisit && !resp.cache_hit) ++c->revisit_misses;
  if ((!revisit && resp.cache_hit) || resp.coalesced) ++c->wrong_hits;
}

// Where each client is in its access pattern. It carries over from one
// phase to the next, so the pattern (and the hit proof) is unbroken.
struct Cursor {
  std::size_t z_pos = 0, z_k = 0;
  // Odd, so coprime to the power-of-two axis length: the x viewer visits
  // every slice once per cycle. Fixed: the stride sets how many cache
  // lines consecutive strided renders share, i.e. their cost.
  std::size_t x_pos = 0, x_k = 0, x_stride = 7;
  std::size_t e_key = 0;
};

Cursor make_cursor(std::size_t n, std::uint64_t seed) {
  alsflow::Rng rng(seed);
  Cursor c;
  c.z_pos = std::size_t(rng.uniform_int(0, std::int64_t(n) - 1));
  c.x_pos = std::size_t(rng.uniform_int(0, std::int64_t(n) - 1));
  c.e_key = std::size_t(rng.uniform_int(0, std::int64_t(kExportAxes * n) - 1));
  return c;
}

// Exporter slices per second: the median over one-second windows of the
// phase, so a few seconds of another tenant's memory traffic do not set
// the run's figure.
Series window_rates(const std::vector<double>& done_at, double t0,
                    double seconds) {
  Series rates;
  const std::size_t windows = std::max<std::size_t>(1, std::size_t(seconds));
  const double width = seconds / double(windows);
  std::vector<std::size_t> count(windows, 0);
  for (double t : done_at) {
    const auto w = std::size_t((t - t0) / width);
    if (t >= t0 && w < windows) ++count[w];
  }
  for (std::size_t c : count) rates.add(double(c) / width);
  return rates;
}

PhaseResult run_phase(Service& svc, const References& ref, std::size_t n,
                      Cursor& cur, double seconds, SpanLog& spans,
                      std::uint64_t first_op) {
  PhaseResult out;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_op{first_op};
  auto& fe = *svc.frontend;

  auto viewer = [&](Client* c, const char* tenant, int axis, std::size_t* pos,
                    std::size_t* k, std::size_t stride,
                    const std::vector<std::uint64_t>& want) {
    for (; !stop.load(std::memory_order_relaxed); ++*k) {
      if (*k > 0 && *k % 3 == 0) *pos = (*pos + stride) % n;
      alsflow::serve::SliceRequest req;
      req.tenant = tenant;
      req.volume = "viewed";
      req.axis = axis;
      req.index = *pos;
      const std::uint64_t op = next_op.fetch_add(1);
      Scope sp(spans, "serve", "viewer_request", 0, op);
      auto r = fe.submit(std::move(req))->wait();
      c->latency.add(sp.stop());
      check_response(r, want[std::size_t(axis) * n + *pos], *k % 3 != 0, c);
    }
  };
  auto exporter = [&](Client* c) {
    struct Pending {
      std::shared_ptr<alsflow::serve::Ticket> ticket;
      std::size_t key;
      std::uint64_t span;
    };
    std::deque<Pending> window;
    std::size_t& k = cur.e_key;
    while (true) {
      const bool stopping = stop.load(std::memory_order_relaxed);
      while (!stopping && window.size() < kExportWindow) {
        const std::size_t key = k++ % (kExportAxes * n);
        alsflow::serve::SliceRequest req;
        req.tenant = "export";
        req.volume = "exported";
        req.axis = int(key / n);
        req.index = key % n;
        const std::uint64_t op = next_op.fetch_add(1);
        const std::uint64_t span =
            spans.enabled() ? spans.begin("serve", "export_request", 0, op) : 0;
        window.push_back({fe.submit(std::move(req)), key, span});
      }
      if (window.empty()) break;
      Pending p = std::move(window.front());
      window.pop_front();
      auto r = p.ticket->wait();
      if (p.span) spans.end(p.span);
      check_response(r, ref.exported[p.key], false, c);
      c->done_at.push_back(now_s());
    }
  };

  const double t0 = now_s();
  std::thread tz(viewer, &out.z, "viewer-z", 0, &cur.z_pos, &cur.z_k,
                 std::size_t(1), std::cref(ref.viewed));
  std::thread tx(viewer, &out.x, "viewer-x", 2, &cur.x_pos, &cur.x_k,
                 cur.x_stride, std::cref(ref.viewed));
  std::thread te(exporter, &out.exporter);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  tz.join();
  tx.join();
  te.join();
  out.export_rates = window_rates(out.exporter.done_at, t0, seconds);
  fe.drain();
  return out;
}

void merge(Client* into, const Client& c) {
  into->latency.append(c.latency);
  into->queue_wait.append(c.queue_wait);
  into->render.append(c.render);
  into->requests += c.requests;
  into->errors += c.errors;
  into->wrong_bytes += c.wrong_bytes;
  into->hits += c.hits;
  into->revisits += c.revisits;
  into->revisit_misses += c.revisit_misses;
  into->wrong_hits += c.wrong_hits;
}

Client pooled(const PhaseResult& p) {
  Client all;
  for (const Client* c : {&p.z, &p.x, &p.exporter}) merge(&all, *c);
  return all;
}

}  // namespace

Result run_viewer_mix(const Options& opt, SpanLog& spans) {
  const std::size_t n = opt.tiny ? 128 : 256;
  Result res;

  // Inputs, outside every timed region.
  const Volume viewed = alsflow::tomo::shepp_logan_3d(n);
  const Volume exported =
      alsflow::tomo::proppant_phantom(n, derive_seed(opt.seed, 1));

  // Set-up: pyramid builds, registration and Frontend construction.
  Series setup;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    const double t0 = now_s();
    svc = set_up(viewed, exported, n);
    setup.add(now_s() - t0);
  }
  res.set_median("setup_s", setup);

  References ref;
  const auto viewed_pyr = svc->tiled.volume("viewed");
  const auto exported_pyr = svc->tiled.volume("exported");
  for (int axis = 0; axis < 3; ++axis) {
    for (std::size_t i = 0; i < n; ++i) {
      ref.viewed.push_back(slice_hash(*viewed_pyr, axis, i));
      if (std::size_t(axis) < kExportAxes) {
        ref.exported.push_back(slice_hash(*exported_pyr, axis, i));
      }
    }
  }

  SpanLog untraced(false);
  Cursor cursor = make_cursor(n, derive_seed(opt.seed, 2));
  const double e2e_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  PhaseResult ph = run_phase(*svc, ref, n, cursor, e2e_seconds, untraced, 1);
  res.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<PhaseResult> phases{ph};
  Series viewer_lat = ph.z.latency;
  viewer_lat.append(ph.x.latency);
  res.set_median("throughput_per_s", ph.export_rates, "1/s");
  res.set_median("latency_p50_s", viewer_lat);
  res.set_median("viewer_p50_s", viewer_lat);
  res.set("viewer_p99_s", viewer_lat.quantile(0.99), "s", viewer_lat.count());
  res.set_median("export_slices_per_s", ph.export_rates, "1/s");

  if (opt.trace) {
    auto& tel = alsflow::telemetry::global();
    tel.set_enabled(true);
    const auto before = svc->frontend->cache_stats();
    auto& posts = tel.metrics().counter("alsflow_pool_posts_total");
    const std::uint64_t posts0 = posts.value();
    PhaseResult tr =
        run_phase(*svc, ref, n, cursor, opt.seconds / 2, spans, 1u << 30);
    tel.set_enabled(false);
    phases.push_back(tr);
    const Client all = pooled(tr);
    const auto cs = svc->frontend->cache_stats();
    const double lookups = double((cs.hits - before.hits) +
                                  (cs.misses - before.misses) +
                                  (cs.coalesced - before.coalesced));
    res.set("serve.hit_ratio", double(cs.hits - before.hits) / lookups,
            "ratio", std::size_t(lookups));
    res.set("serve.evictions", double(cs.evictions - before.evictions),
            "count");
    res.set("parallel.posts_per_request",
            double(posts.value() - posts0) / double(all.requests), "ratio",
            all.requests);
    res.set("serve.queue_wait_p50_s", all.queue_wait.median(), "s",
            all.queue_wait.count());
    res.set("serve.queue_wait_p99_s", all.queue_wait.quantile(0.99), "s",
            all.queue_wait.count());
    res.set("serve.render_p50_s", all.render.median(), "s",
            all.render.count());
    res.set("serve.render_p99_s", all.render.quantile(0.99), "s",
            all.render.count());
    Series traced_lat = tr.z.latency;
    traced_lat.append(tr.x.latency);
    res.set("telemetry.traced_slowdown",
            traced_lat.median() / viewer_lat.median(), "ratio",
            traced_lat.count());

    // Direct TiledService::slice: contiguous (axis 0) vs strided (axis 2).
    for (int axis : {0, 2}) {
      Series s;
      for (std::size_t i = 0; i < n; i += 4) {
        Scope sp(spans, "access", axis == 0 ? "slice_axis0" : "slice_axis2");
        auto img = svc->tiled.slice("exported", 0, axis, i);
        s.add(sp.stop());
        res.gate(img.ok(), "direct TiledService::slice");
      }
      res.set_median(axis == 0 ? "access.slice_axis0_s" : "access.slice_axis2_s",
                     s);
    }
  }

  // Correctness over every phase run.
  const auto st = svc->frontend->stats();
  Client total;
  for (const PhaseResult& p : phases) merge(&total, pooled(p));
  res.attempt(total.requests);
  res.fail(total.errors + total.wrong_bytes);
  const auto cs = svc->frontend->cache_stats();
  res.set("serve.cache_hits", double(total.hits), "count", total.requests);
  res.set("serve.revisits", double(total.revisits), "count", total.requests);
  res.set("serve.revisit_misses", double(total.revisit_misses), "count",
          total.revisits);
  res.gate(total.wrong_bytes == 0,
           "every served slice byte-equal to MultiscaleVolume::slice");
  res.gate(total.wrong_hits == 0,
           "new viewer slices and export slices always miss, nothing coalesces");
  res.gate(total.revisit_misses * 100 <= total.revisits,
           "revisits hit the cache (at most 1% evicted by a stalled client)");
  res.gate(cs.hits == total.hits,
           "ChunkCache hit counter agrees with the responses");
  res.gate(st.shed == 0 && st.rejected == 0 && st.errors == 0,
           "no request shed, rejected or errored");
  res.set("serve.shed", double(st.shed), "count");
  res.set("serve.rejected", double(st.rejected), "count");
  res.set("serve.degraded", double(st.degraded), "count");
  res.set("serve.max_queue_depth", double(st.max_queue_depth), "count");
  return res;
}

}  // namespace perfbench
