#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/telemetry.hpp"

namespace alsflow::net {

// Link-level Grafana panel numbers: concurrent transfers (instantaneous
// utilization proxy), bytes offered, and the achieved mean throughput.
void Link::record_metrics() {
  auto& tel = telemetry::global();
  if (!tel.enabled()) return;
  const std::string label = "link=\"" + name_ + "\"";
  auto& m = tel.metrics();
  m.gauge("alsflow_link_active_transfers", label).set(double(active_.size()));
  m.gauge("alsflow_link_mean_throughput_bps", label).set(mean_throughput());
}

Link::Link(sim::Engine& eng, std::string name, double bandwidth_bps,
           Seconds latency)
    : eng_(eng),
      name_(std::move(name)),
      bandwidth_(bandwidth_bps),
      latency_(latency),
      last_update_(eng.now()),
      created_at_(eng.now()) {
  assert(bandwidth_ > 0.0);
}

void Link::update_progress() {
  const Seconds now = eng_.now();
  const Seconds dt = now - last_update_;
  last_update_ = now;
  if (active_.empty() || dt <= 0.0) return;
  const double rate_each = bandwidth_ * factor_ / double(active_.size());
  if (rate_each <= 0.0) return;  // blacked out: nothing moved
  for (auto& t : active_) {
    t.remaining = std::max(0.0, t.remaining - rate_each * dt);
  }
}

void Link::reschedule() {
  if (pending_event_ != 0) {
    eng_.cancel(pending_event_);
    pending_event_ = 0;
  }
  if (active_.empty()) return;
  const double rate_each = bandwidth_ * factor_ / double(active_.size());
  // Blackout: transfers hold their position; set_bandwidth_factor(> 0)
  // reschedules when the path comes back.
  if (rate_each <= 0.0) return;
  double min_remaining = std::numeric_limits<double>::max();
  for (const auto& t : active_) {
    min_remaining = std::min(min_remaining, t.remaining);
  }
  const Seconds eta = min_remaining / rate_each;
  pending_event_ = eng_.schedule_in(eta, [this] {
    pending_event_ = 0;
    on_completion_event();
  });
}

void Link::set_bandwidth_factor(double f) {
  // Settle progress at the old rate first, then apply the new one.
  update_progress();
  factor_ = f < 0.0 ? 0.0 : f;
  reschedule();
  record_metrics();
}

void Link::on_completion_event() {
  update_progress();
  // Pop every transfer that has drained (float tolerance: sub-byte).
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->remaining <= 0.5) {
      auto done = it->done;
      // Deliver after propagation latency (plus any chaos recall spike in
      // effect at delivery time).
      const Seconds deliver = latency_ + extra_latency_;
      auto& tel = telemetry::global();
      // The ratio costs two divisions per delivery, so it is computed only
      // with a sink installed.
      if (tel.observing() && it->bytes > 0.5) {
        // Per-delivery slowdown: achieved time over the contention-free,
        // healthy-link time. ~n under n-way fair sharing; far above that
        // under degradation, blackout stalls, or recall spikes. Stamped
        // with the delivery time (no event is scheduled for it).
        const double expected = it->bytes / bandwidth_ + latency_;
        tel.emit(eng_.now() + deliver, "net", "delivery", name_,
                 expected > 0.0
                     ? (eng_.now() - it->started + deliver) / expected
                     : 1.0);
      }
      it = active_.erase(it);
      if (deliver > 0.0) {
        eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
      } else {
        done.trigger();
      }
    } else {
      ++it;
    }
  }
  record_metrics();
  reschedule();
}

sim::Future<sim::Unit> Link::send(Bytes bytes) {
  update_progress();
  total_bytes_ += bytes;
  {
    auto& tel = telemetry::global();
    if (tel.enabled()) {
      tel.metrics()
          .counter("alsflow_link_bytes_total", "link=\"" + name_ + "\"")
          .add(bytes);
    }
  }
  Transfer t;
  t.remaining = double(bytes);
  t.bytes = double(bytes);
  t.started = eng_.now();
  active_.push_back(t);
  auto done = active_.back().done;
  if (bytes == 0) {
    active_.pop_back();
    const Seconds deliver = latency_ + extra_latency_;
    if (deliver > 0.0) {
      eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
    } else {
      // Resolve asynchronously so callers can always co_await first.
      eng_.schedule_in(0.0, [done]() mutable { done.trigger(); });
    }
  } else {
    reschedule();
  }
  record_metrics();
  // The caller awaits the delivery event's own state.
  return sim::Future<sim::Unit>(done.state());
}

double Link::mean_throughput() const {
  const Seconds elapsed = eng_.now() - created_at_;
  return elapsed > 0.0 ? double(total_bytes_) / elapsed : 0.0;
}

}  // namespace alsflow::net
