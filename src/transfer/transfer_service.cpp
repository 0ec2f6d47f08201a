#include "transfer/transfer_service.hpp"

#include "common/log.hpp"

namespace alsflow::transfer {

void TransferService::add_route(const std::string& src_name,
                                const std::string& dst_name, net::Link* link) {
  LockGuard lock(mu_);
  routes_[{src_name, dst_name}] = link;
}

net::Link* TransferService::route(const std::string& src,
                                  const std::string& dst) const {
  LockGuard lock(mu_);
  auto it = routes_.find({src, dst});
  return it == routes_.end() ? nullptr : it->second;
}

void TransferService::record_outcome(const TransferOutcome& outcome) {
  LockGuard lock(mu_);
  total_bytes_ += outcome.bytes_moved;
  history_.push_back(outcome);
}

sim::Future<TransferOutcome> TransferService::submit_impl(TransferSpec spec) {
  TransferOutcome outcome;
  outcome.label = spec.label;
  outcome.submitted_at = eng_.now();

  auto& tel = telemetry::global();
  const telemetry::SpanId span = tel.begin(
      "transfer", spec.label.empty() ? std::string_view("transfer") : spec.label,
      spec.trace_parent, eng_.now());

  if (spec.src == nullptr || spec.dst == nullptr) {
    outcome.status = Error::make("invalid_argument", "null endpoint");
    outcome.finished_at = eng_.now();
    finish_telemetry(span, spec, outcome);
    record_outcome(outcome);
    co_return outcome;
  }
  net::Link* link = route(spec.src->name(), spec.dst->name());
  if (link == nullptr) {
    outcome.status = Error::make(
        "no_route", spec.src->name() + " -> " + spec.dst->name());
    outcome.finished_at = eng_.now();
    finish_telemetry(span, spec, outcome);
    record_outcome(outcome);
    co_return outcome;
  }

  co_await sim::delay(eng_, tuning_.per_task_overhead);

  // The route events' target, "src->dst". Callers build it under their
  // own observing() check, and only once, so with no sink installed a
  // transfer formats no route string, and a sink installed mid-transfer
  // still sees the full target.
  std::string route_name;
  auto route_target = [&]() -> std::string_view {
    if (route_name.empty()) {
      route_name = spec.src->name() + "->" + spec.dst->name();
    }
    return route_name;
  };
  // Per-file-attempt health events: value is a 0/1 success indicator, so a
  // window's mean is the observed attempt reliability on this route.
  auto emit_attempt = [&](bool ok, std::string_view detail) {
    if (!tel.observing()) return;
    tel.emit(eng_.now(), "transfer", "file_attempt", route_target(),
             ok ? 1.0 : 0.0, ok, detail);
  };

  Error first_error{"", ""};
  std::string stranded_path;
  for (const auto& file : spec.files) {
    auto stat = spec.src->stat(file.src_path);
    if (!stat.ok()) {
      ++outcome.files_failed;
      if (first_error.code.empty()) first_error = stat.error();
      continue;
    }
    const Bytes size = stat.value().size;
    const std::uint64_t checksum = stat.value().checksum;

    bool file_ok = false;
    bool corrupt_copy_at_dst = false;  // last landed copy failed its checksum
    Seconds backoff = tuning_.retry_delay;
    for (int attempt = 0; attempt <= tuning_.max_retries; ++attempt) {
      if (attempt > 0) {
        ++outcome.retries;
        // Exponential backoff with deterministic seeded jitter: a fixed
        // delay would march every transfer caught in the same fault burst
        // back onto the link in lock-step.
        Seconds wait = backoff;
        if (tuning_.retry_jitter > 0.0) {
          wait *= 1.0 + tuning_.retry_jitter * (2.0 * rng_.uniform() - 1.0);
        }
        co_await sim::delay(eng_, wait);
        backoff *= tuning_.retry_backoff;
      }
      co_await sim::delay(eng_, tuning_.per_file_overhead);
      co_await link->send(size);

      if (transient_failure_rate_ > 0.0 &&
          rng_.bernoulli(transient_failure_rate_)) {
        log_warn("globus") << spec.label << ": transient fault moving "
                           << file.src_path << " (attempt " << attempt << ")";
        emit_attempt(false, "transient");
        continue;  // nothing landed; retry
      }

      const bool corrupted =
          corruption_rate_ > 0.0 && rng_.bernoulli(corruption_rate_);
      // The destination write happens regardless; corruption is detected
      // (and the file re-sent) only when checksum verification is on.
      const std::uint64_t landed_checksum = corrupted ? ~checksum : checksum;
      Status put = spec.dst->put(file.dst_path, size, landed_checksum,
                                 eng_.now());
      // Destination-write health, attributed to the endpoint itself
      // (permission and capacity incidents are endpoint problems, not route
      // problems).
      tel.emit(eng_.now(), "transfer", "endpoint_write", spec.dst->name(),
               put.ok() ? 1.0 : 0.0, put);
      if (!put.ok()) {
        if (first_error.code.empty()) first_error = put.error();
        emit_attempt(false, put.error().code);
        break;  // permission/capacity: permanent, no retry
      }
      corrupt_copy_at_dst = corrupted;
      if (spec.verify_checksum) {
        if (tuning_.checksum_rate > 0.0) {
          co_await sim::delay(eng_, double(size) / tuning_.checksum_rate);
        }
        if (landed_checksum != checksum) {
          log_warn("globus") << spec.label << ": checksum mismatch on "
                             << file.dst_path << " (attempt " << attempt
                             << ")";
          emit_attempt(false, "checksum_mismatch");
          continue;  // corrupted copy stays until overwritten by the retry
        }
      }
      file_ok = true;
      outcome.bytes_moved += size;
      emit_attempt(true, "");
      break;
    }
    if (file_ok) {
      ++outcome.files_ok;
    } else {
      ++outcome.files_failed;
      if (first_error.code.empty()) {
        first_error = Error::make("retries_exhausted", file.src_path);
      }
      if (corrupt_copy_at_dst) {
        // The retry budget ran out with a known-bad copy at the
        // destination; remove it so downstream flows can't ingest it.
        Status rm = spec.dst->remove(file.dst_path);
        if (rm.ok()) {
          log_warn("globus") << spec.label << ": removed corrupted copy "
                             << file.dst_path << " after retries exhausted";
        } else {
          // Cleanup failed too: a known-corrupt copy is stranded at the
          // destination. Surface it in the outcome — it is strictly worse
          // than retries_exhausted (bad data at rest, not just missing
          // data), so it overrides first_error below.
          ++outcome.files_stranded;
          if (stranded_path.empty()) stranded_path = file.dst_path;
          log_warn("globus") << spec.label
                             << ": could not remove corrupted copy "
                             << file.dst_path << " (" << rm.error().code
                             << "); corrupt copy stranded at destination";
        }
      }
    }
  }

  if (outcome.files_failed > 0) {
    outcome.status = first_error;
  }
  if (outcome.files_stranded > 0) {
    outcome.status = Error::make("stranded_corrupt_copy", stranded_path);
  }
  outcome.finished_at = eng_.now();
  // Whole-task goodput: payload bytes over wall (sim) duration,
  // retries/backoff included — the figure the paper's bandwidth panels plot
  // per route.
  const Seconds took = outcome.finished_at - outcome.submitted_at;
  if (tel.observing()) {
    tel.emit(eng_.now(), "transfer", "transfer_done", route_target(),
             took > 0.0 ? double(outcome.bytes_moved) / took : 0.0,
             outcome.status);
  }
  finish_telemetry(span, spec, outcome);
  record_outcome(outcome);
  co_return outcome;
}

void TransferService::finish_telemetry(telemetry::SpanId span,
                                       const TransferSpec& spec,
                                       const TransferOutcome& outcome) {
  auto& tel = telemetry::global();
  tel.attr(span, "bytes_moved", std::uint64_t(outcome.bytes_moved));
  tel.attr(span, "files_ok", std::uint64_t(outcome.files_ok));
  tel.attr(span, "files_failed", std::uint64_t(outcome.files_failed));
  tel.attr(span, "retries", std::uint64_t(outcome.retries));
  if (!outcome.status.ok()) {
    tel.attr(span, "error", outcome.status.error().code);
  }
  tel.end(span, eng_.now());
  if (!tel.enabled()) return;
  const std::string route_label =
      spec.src == nullptr || spec.dst == nullptr
          ? std::string()
          : "route=\"" + spec.src->name() + "->" + spec.dst->name() + "\"";
  auto& m = tel.metrics();
  m.counter("alsflow_transfer_tasks_total", route_label).add();
  m.counter("alsflow_transfer_bytes_total", route_label)
      .add(outcome.bytes_moved);
  m.counter("alsflow_transfer_files_total", route_label).add(outcome.files_ok);
  if (outcome.retries > 0) {
    m.counter("alsflow_transfer_retries_total", route_label)
        .add(std::uint64_t(outcome.retries));
  }
  if (outcome.files_failed > 0) {
    m.counter("alsflow_transfer_failures_total", route_label)
        .add(outcome.files_failed);
  }
  if (outcome.files_stranded > 0) {
    m.counter("alsflow_transfer_stranded_total", route_label)
        .add(outcome.files_stranded);
  }
}

}  // namespace alsflow::transfer
