#include "pipeline/streaming_service.hpp"

#include <cassert>

#include "common/log.hpp"

namespace alsflow::pipeline {

StreamingService::StreamingService(sim::Engine& eng,
                                   net::Channel<beamline::FrameBatch>& mirror,
                                   net::Link& esnet_in, net::Link& zmq_back,
                                   hpc::ComputeModel model)
    : eng_(eng), zmq_back_(zmq_back), model_(model) {
  // Frames traverse ESnet to the NERSC compute node as they are acquired.
  mirror.attach(
      [this](const beamline::FrameBatch& batch) { on_batch(batch); },
      &esnet_in, [](const beamline::FrameBatch& b) { return b.bytes; });
}

void StreamingService::begin_scan(const data::ScanMetadata& scan) {
  Active a;
  a.scan = scan;
  auto& tel = telemetry::global();
  if (tel.enabled()) {  // the span name is a built string
    a.span = tel.begin("streaming", "stream:" + scan.scan_id, 0, eng_.now());
    tel.attr(a.span, "n_angles", std::uint64_t(scan.n_angles));
  }
  LockGuard lock(mu_);
  active_[scan.scan_id] = std::move(a);
}

void StreamingService::on_batch(const beamline::FrameBatch& batch) {
  Active* found = nullptr;
  {
    LockGuard lock(mu_);
    auto it = active_.find(batch.scan_id);
    if (it != active_.end()) found = &it->second;
  }
  if (found == nullptr) return;  // streaming not enabled for scan
  Active& a = *found;
  a.frames += batch.count;
  a.bytes += batch.bytes;  // in-memory cache until acquisition completes
  {
    auto& tel = telemetry::global();
    if (tel.enabled()) {
      tel.metrics().counter("alsflow_streaming_frames_total").add(batch.count);
      tel.metrics().counter("alsflow_streaming_bytes_total").add(batch.bytes);
    }
  }
  if (batch.last_of_scan) a.saw_last = true;
  if (a.saw_last && a.frames >= a.scan.n_angles) {
    finalize(batch.scan_id).detach();
  }
}

sim::Proc StreamingService::finalize(std::string scan_id) {
  Active* found = nullptr;
  {
    LockGuard lock(mu_);
    found = &active_.at(scan_id);
  }
  Active& a = *found;
  const telemetry::SpanId scan_span = a.span;
  StreamingReport report;
  report.scan_id = scan_id;
  report.last_frame_at = eng_.now();
  report.cached_bytes = a.bytes;

  // The phases open only under a recorded scan span: no orphan roots.
  auto& tel = telemetry::global();
  const telemetry::SpanId recon_span =
      scan_span != 0
          ? tel.begin("streaming", "gpu_backprojection", scan_span, eng_.now())
          : 0;
  // Back-project the cached, filtered dataset on the 4-GPU node.
  co_await sim::delay(
      eng_, model_.streaming_finalize_seconds(a.scan.rows, a.scan.cols));
  report.recon_done_at = eng_.now();
  tel.end(recon_span, eng_.now());

  const telemetry::SpanId return_span =
      scan_span != 0
          ? tel.begin("streaming", "preview_return", scan_span, eng_.now())
          : 0;
  // Three orthogonal float32 preview slices return via ZeroMQ.
  const Bytes preview_bytes = 3ull * a.scan.cols * a.scan.cols * 4;
  co_await zmq_back_.send(preview_bytes);
  report.preview_at = eng_.now();
  tel.end(return_span, eng_.now());

  tel.attr(scan_span, "cached_bytes", std::uint64_t(report.cached_bytes));
  tel.attr(scan_span, "preview_latency_s", report.preview_latency());
  tel.end(scan_span, eng_.now());
  if (tel.enabled()) {
    // The paper's Fig. 2 metric: acquisition completion -> preview visible.
    tel.metrics()
        .histogram("alsflow_streaming_preview_latency_seconds",
                   {1.0, 2.0, 5.0, 8.0, 10.0, 15.0, 30.0, 60.0})
        .observe(report.preview_latency());
    tel.metrics().counter("alsflow_streaming_previews_total").add();
  }
  // Time-to-first-slice, the streaming paper's headline SLO.
  tel.emit(eng_.now(), "streaming", "first_slice", scan_id,
           report.preview_latency());
  log_info("streaming") << scan_id << ": preview in "
                        << human_duration(report.preview_latency())
                        << " after acquisition";
  auto done = a.done;
  {
    LockGuard lock(mu_);
    ++delivered_;
    reports_[scan_id] = report;
    active_.erase(scan_id);
  }
  // Trigger outside the lock: resumed waiters may immediately call
  // report() / previews_delivered(), which take mu_.
  done.trigger(report);
}

sim::Future<StreamingReport> StreamingService::wait_preview_impl(
    std::string scan_id) {
  std::optional<sim::Event<StreamingReport>> done;
  {
    LockGuard lock(mu_);
    auto existing = reports_.find(scan_id);
    if (existing != reports_.end()) co_return existing->second;
    auto it = active_.find(scan_id);
    assert(it != active_.end() && "scan not registered for streaming");
    done = it->second.done;
  }
  co_return co_await *done;
}

std::optional<StreamingReport> StreamingService::report(
    const std::string& scan_id) const {
  LockGuard lock(mu_);
  auto it = reports_.find(scan_id);
  if (it == reports_.end()) return std::nullopt;
  return it->second;
}

}  // namespace alsflow::pipeline
