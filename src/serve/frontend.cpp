#include "serve/frontend.hpp"

#include <algorithm>
#include <utility>

#include "common/telemetry.hpp"

namespace alsflow::serve {

namespace {

// Serving instruments, resolved once (registry references stay valid for
// its lifetime). Mirrors of the frontend's always-on Stats, recorded only
// when telemetry is enabled.
struct ServeMetrics {
  telemetry::Counter& requests;
  telemetry::Counter& served;
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& coalesced;
  telemetry::Counter& shed;
  telemetry::Counter& rejected;
  telemetry::Counter& degraded;
  telemetry::Counter& bytes;
  telemetry::Histogram& queue_wait;
  telemetry::Histogram& render;
};

ServeMetrics& serve_metrics() {
  auto& m = telemetry::global().metrics();
  const std::vector<double> latency_buckets{1e-5, 1e-4, 1e-3, 1e-2,
                                            0.1,  0.5,  1.0,  2.0, 5.0};
  static ServeMetrics metrics{
      m.counter("alsflow_serve_requests_total"),
      m.counter("alsflow_serve_served_total"),
      m.counter("alsflow_serve_cache_hits_total"),
      m.counter("alsflow_serve_cache_misses_total"),
      m.counter("alsflow_serve_coalesced_total"),
      m.counter("alsflow_serve_shed_total"),
      m.counter("alsflow_serve_rejected_total"),
      m.counter("alsflow_serve_degraded_total"),
      m.counter("alsflow_serve_bytes_total"),
      m.histogram("alsflow_serve_queue_wait_seconds", latency_buckets),
      m.histogram("alsflow_serve_render_seconds", latency_buckets),
  };
  return metrics;
}

// Per-tenant queue-depth gauge (labels are pre-rendered Prometheus text).
telemetry::Gauge& tenant_depth_gauge(const std::string& tenant) {
  return telemetry::global().metrics().gauge(
      "alsflow_serve_queue_depth", "tenant=\"" + tenant + "\"");
}

FrontendConfig normalize(FrontendConfig c) {
  if (!c.clock) c.clock = &telemetry::Telemetry::wall_now;
  c.concurrency = std::max<std::size_t>(1, c.concurrency);
  c.per_tenant_queue = std::max<std::size_t>(1, c.per_tenant_queue);
  c.max_queue = std::max<std::size_t>(1, c.max_queue);
  c.degrade_watermark = std::clamp(c.degrade_watermark, 0.0, 1.0);
  return c;
}

Error shed_error() {
  return Error::make("shed", "queue full: oldest request dropped");
}

}  // namespace

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

Result<SliceResponse> Ticket::wait() {
  UniqueLock lock(m_);
  while (!result_.has_value()) cv_.wait(lock.native());
  return *result_;
}

bool Ticket::done() const {
  LockGuard lock(m_);
  return result_.has_value();
}

void Ticket::fulfill(Result<SliceResponse> r) {
  {
    LockGuard lock(m_);
    result_.emplace(std::move(r));
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

Frontend::Frontend(access::TiledService& tiled, FrontendConfig config)
    : tiled_(tiled),
      config_(normalize(std::move(config))),
      pool_(config_.pool != nullptr ? *config_.pool
                                    : parallel::ThreadPool::global()),
      cache_(config_.cache_bytes),
      paused_(config_.start_paused) {}

Frontend::~Frontend() {
  std::vector<std::shared_ptr<Ticket>> orphans;
  {
    UniqueLock lock(mu_);
    stopping_ = true;
    for (auto& [name, tenant] : tenants_) {
      for (auto& q : tenant.q) orphans.push_back(std::move(q.ticket));
      tenant.q.clear();
    }
    stats_.shed += orphans.size();
    queued_total_ = 0;
    stats_.queue_depth = 0;
    // Workers hold `this`; wait for every posted worker to finish before
    // the members go away. Queues are empty, so each exits promptly after
    // its current render.
    while (active_workers_ > 0) idle_cv_.wait(lock.native());
  }
  for (auto& t : orphans) {
    t->fulfill(Error::make("unavailable", "frontend shutting down"));
  }
}

void Frontend::set_tenant_weight(const std::string& tenant, double weight) {
  LockGuard lock(mu_);
  tenants_[tenant].weight = std::max(weight, 1e-6);
}

std::shared_ptr<Ticket> Frontend::submit(SliceRequest req) {
  auto ticket = std::make_shared<Ticket>();
  const double now = config_.clock();
  const bool tel = telemetry::global().enabled();
  if (tel) serve_metrics().requests.add();

  std::shared_ptr<Ticket> shed;          // oldest queued, dropped for `req`
  std::optional<Error> rejection;        // `req` itself refused
  std::size_t to_spawn = 0;
  // Gauge update hoisted out of mu_: the registry lookup takes the
  // telemetry lock and must not run under a serve-layer lock
  // (lockcheck: emit-under-lock). The tenant name is copied up front
  // because req is moved into the queue below.
  const std::string tenant_name = req.tenant;
  double tenant_depth = -1.0;
  {
    LockGuard lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      rejection = Error::make("unavailable", "frontend shutting down");
      ++stats_.rejected;
    } else if (req.deadline > 0.0 && now >= req.deadline) {
      rejection = Error::make("deadline_exceeded",
                              "deadline already passed at admission");
      ++stats_.rejected;
    } else {
      Tenant& tenant = tenants_[req.tenant];
      const bool tenant_full = tenant.q.size() >= config_.per_tenant_queue;
      const bool global_full = queued_total_ >= config_.max_queue;
      if (tenant_full || global_full) {
        if (!config_.shed_oldest) {
          rejection = Error::make("overloaded", "queue full");
          ++stats_.rejected;
        } else if (tenant_full) {
          shed = std::move(tenant.q.front().ticket);
          tenant.q.pop_front();
          --queued_total_;
          ++stats_.shed;
        } else {
          shed = shed_oldest_locked();
        }
      }
      if (!rejection.has_value()) {
        if (tenant.q.empty()) tenant.pass = std::max(tenant.pass, vtime_);
        tenant.q.push_back(Queued{std::move(req), ticket, now});
        ++queued_total_;
        stats_.queue_depth = queued_total_;
        stats_.max_queue_depth = std::max(stats_.max_queue_depth,
                                          queued_total_);
        if (tel) tenant_depth = double(tenant.q.size());
        spawn_workers_locked();
        std::swap(to_spawn, spawn_pending_);
      }
    }
  }
  if (tenant_depth >= 0.0) tenant_depth_gauge(tenant_name).set(tenant_depth);
  if (shed) {
    if (tel) serve_metrics().shed.add();
    shed->fulfill(shed_error());
  }
  if (rejection.has_value()) {
    if (tel) serve_metrics().rejected.add();
    ticket->fulfill(std::move(*rejection));
  }
  for (std::size_t i = 0; i < to_spawn; ++i) {
    pool_.post([this] { worker_loop(); });
  }
  return ticket;
}

Result<SliceResponse> Frontend::get(SliceRequest req) {
  return submit(std::move(req))->wait();
}

void Frontend::resume() {
  std::size_t to_spawn = 0;
  {
    LockGuard lock(mu_);
    paused_ = false;
    spawn_workers_locked();
    std::swap(to_spawn, spawn_pending_);
  }
  for (std::size_t i = 0; i < to_spawn; ++i) {
    pool_.post([this] { worker_loop(); });
  }
}

void Frontend::drain() {
  UniqueLock lock(mu_);
  while (queued_total_ > 0 || active_workers_ > 0) {
    idle_cv_.wait(lock.native());
  }
}

Frontend::Stats Frontend::stats() const {
  LockGuard lock(mu_);
  return stats_;
}

void Frontend::spawn_workers_locked() {
  // active_workers_ already counts reserved-but-unposted slots; any active
  // worker keeps draining until the queue is empty, so matching workers to
  // queued items (capped by concurrency) can never strand a request.
  while (!paused_ && !stopping_ && active_workers_ < config_.concurrency &&
         active_workers_ < queued_total_) {
    ++active_workers_;
    ++spawn_pending_;
  }
}

Frontend::Tenant* Frontend::next_tenant_locked() {
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.q.empty()) continue;
    if (best == nullptr || tenant.pass < best->pass) best = &tenant;
  }
  return best;
}

std::shared_ptr<Ticket> Frontend::shed_oldest_locked() {
  Tenant* oldest = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.q.empty()) continue;
    if (oldest == nullptr ||
        tenant.q.front().enqueued_at < oldest->q.front().enqueued_at) {
      oldest = &tenant;
    }
  }
  if (oldest == nullptr) return nullptr;
  auto ticket = std::move(oldest->q.front().ticket);
  oldest->q.pop_front();
  --queued_total_;
  stats_.queue_depth = queued_total_;
  ++stats_.shed;
  return ticket;
}

void Frontend::worker_loop() {
  const bool tel = telemetry::global().enabled();
  for (;;) {
    Queued item;
    bool degraded = false;
    bool exit_worker = false;
    double dequeued_at = 0.0;
    std::uint64_t sequence = 0;
    // Tickets shed at dequeue (stale or past deadline), failed below
    // without holding mu_.
    std::vector<std::pair<std::shared_ptr<Ticket>, Error>> stale;
    // Queue-depth gauge updates recorded under mu_, applied after release
    // (the registry lookup takes the telemetry lock; lockcheck's
    // emit-under-lock rule). Interleaving with other workers can apply
    // sets slightly out of order — the gauge is an approximate depth
    // indicator, not an accounting counter.
    std::vector<std::pair<std::string, double>> depth_updates;
    {
      LockGuard lock(mu_);
      for (;;) {
        if (paused_ || stopping_ || queued_total_ == 0) {
          --active_workers_;
          if (active_workers_ == 0) idle_cv_.notify_all();
          exit_worker = true;
          break;
        }
        Tenant* tenant = next_tenant_locked();
        item = std::move(tenant->q.front());
        tenant->q.pop_front();
        --queued_total_;
        stats_.queue_depth = queued_total_;
        if (tel) {
          depth_updates.emplace_back(item.req.tenant,
                                     double(tenant->q.size()));
        }
        vtime_ = tenant->pass;
        tenant->pass += 1.0 / tenant->weight;

        // check:allow callback-under-lock clock is a lock-free read
        dequeued_at = config_.clock();
        const double age = dequeued_at - item.enqueued_at;
        const bool past_deadline =
            item.req.deadline > 0.0 && dequeued_at >= item.req.deadline;
        const bool too_old = config_.max_queue_wait > 0.0 &&
                             age > config_.max_queue_wait;
        if (past_deadline || too_old) {
          ++stats_.shed;
          if (past_deadline) ++stats_.deadline_shed;
          stale.emplace_back(
              std::move(item.ticket),
              past_deadline
                  ? Error::make("deadline_exceeded", "missed in queue")
                  : Error::make("shed", "exceeded max_queue_wait"));
          continue;
        }
        // Over the watermark with this request taken, the backlog is still
        // deep: trade resolution for latency.
        const std::size_t watermark = std::size_t(
            config_.degrade_watermark * double(config_.max_queue));
        degraded = config_.degrade_levels > 0 && queued_total_ >= watermark &&
                   watermark > 0;
        sequence = ++sequence_;
        break;
      }
    }
    for (auto& [tenant, depth] : depth_updates) {
      tenant_depth_gauge(tenant).set(depth);
    }
    for (auto& [ticket, err] : stale) {
      if (tel) serve_metrics().shed.add();
      ticket->fulfill(std::move(err));
    }
    if (exit_worker) return;
    render_and_fulfill(std::move(item), dequeued_at, degraded, sequence);
  }
}

void Frontend::render_and_fulfill(Queued item, double dequeued_at,
                                  bool degraded, std::uint64_t sequence) {
  const SliceRequest& req = item.req;
  std::size_t level = req.level;
  std::size_t index = req.index;
  if (degraded) {
    // Serve the same spatial position from a coarser pyramid level; each
    // level halves every axis, so the index scales by the level gap.
    if (auto volume = tiled_.volume(req.volume)) {
      const std::size_t coarsest = volume->n_levels() - 1;
      level = std::min(req.level + config_.degrade_levels, coarsest);
      index = req.index >> (level - req.level);
    }
  }
  degraded = level != req.level;

  const SliceKey key{req.volume, level, req.axis, index};
  const double t0 = config_.clock();
  auto lookup = cache_.get_or_render(key, [this, &key]() {
    return tiled_.slice(key.volume, key.level, key.axis, key.index);
  });
  const double t1 = config_.clock();

  auto& tel = telemetry::global();
  if (tel.enabled()) {
    auto& sm = serve_metrics();
    if (lookup.hit) {
      sm.hits.add();
    } else if (lookup.coalesced) {
      sm.coalesced.add();
    } else {
      sm.misses.add();
      // Retroactive wall-domain span for the leader render.
      const telemetry::SpanId span =
          tel.begin("serve", "render", 0, t0, telemetry::ClockDomain::Wall);
      tel.attr(span, "volume", key.volume);
      tel.attr(span, "level", std::uint64_t(key.level));
      tel.attr(span, "tenant", req.tenant);
      tel.end(span, t1);
    }
    sm.queue_wait.observe(dequeued_at - item.enqueued_at);
    sm.render.observe(t1 - t0);
  }
  // Per-tenant queue-wait health on the frontend's injected clock (sim time
  // in tests, wall time in live deployments).
  tel.emit(dequeued_at, "serve", "queue_wait",
           req.tenant.empty() ? std::string_view("anonymous") : req.tenant,
           dequeued_at - item.enqueued_at);

  if (!lookup.image.ok()) {
    {
      LockGuard lock(mu_);
      ++stats_.errors;
    }
    item.ticket->fulfill(lookup.image.error());
    return;
  }

  SliceResponse resp;
  resp.image = lookup.image.value();
  resp.level = level;
  resp.degraded = degraded;
  resp.cache_hit = lookup.hit;
  resp.coalesced = lookup.coalesced;
  resp.queue_wait = dequeued_at - item.enqueued_at;
  resp.render_seconds = t1 - t0;
  resp.bytes = Bytes(resp.image->size()) * sizeof(float);
  resp.sequence = sequence;
  {
    LockGuard lock(mu_);
    ++stats_.served;
    if (degraded) ++stats_.degraded;
  }
  if (tel.enabled()) {
    auto& sm = serve_metrics();
    sm.served.add();
    sm.bytes.add(resp.bytes);
    if (degraded) sm.degraded.add();
  }
  item.ticket->fulfill(std::move(resp));
}

}  // namespace alsflow::serve
