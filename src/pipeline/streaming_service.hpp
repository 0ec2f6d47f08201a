// NERSC streaming reconstruction service (the <10 s preview branch).
//
// Mirrors the production layout: the service subscribes to the beamline's
// PVA mirror channel *through the ESnet link*, so frames arrive at NERSC
// synchronously with acquisition and are cached in GPU-node memory. When
// the final frame lands, the cached (already filtered) data is
// back-projected — ComputeModel charges the 7-8 s the paper measures at
// full scale — and a three-slice preview is pushed back to the beamline
// over the ZeroMQ return path (<1 s).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "beamline/frames.hpp"
#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "hpc/compute_model.hpp"
#include "net/link.hpp"
#include "net/pubsub.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::pipeline {

struct StreamingReport {
  std::string scan_id;
  Seconds last_frame_at = 0.0;   // acquisition completion (last frame sent)
  Seconds recon_done_at = 0.0;   // back-projection finished at NERSC
  Seconds preview_at = 0.0;      // preview visible at the beamline
  Bytes cached_bytes = 0;

  // The headline metric: acquisition completion -> preview on screen.
  Seconds preview_latency() const { return preview_at - last_frame_at; }
};

class StreamingService {
 public:
  StreamingService(sim::Engine& eng, net::Channel<beamline::FrameBatch>& mirror,
                   net::Link& esnet_in, net::Link& zmq_back,
                   hpc::ComputeModel model);

  // Register an upcoming scan (the web-app "launch streaming service"
  // action). Unregistered scans are ignored.
  void begin_scan(const data::ScanMetadata& scan);

  // Resolves when the preview for `scan_id` reaches the beamline.
  // (Wrapper over the coroutine impl: see flow/engine.hpp on GCC 12.)
  sim::Future<StreamingReport> wait_preview(std::string scan_id) {
    return wait_preview_impl(std::move(scan_id));
  }

  std::optional<StreamingReport> report(const std::string& scan_id) const
      ALSFLOW_EXCLUDES(mu_);
  std::size_t previews_delivered() const ALSFLOW_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return delivered_;
  }

 private:
  struct Active {
    data::ScanMetadata scan;
    std::size_t frames = 0;
    Bytes bytes = 0;
    // The link fair-shares bandwidth, so the (smaller) final batch can
    // overtake earlier ones; finalize only once the last batch has been
    // seen AND every frame is accounted for.
    bool saw_last = false;
    telemetry::SpanId span = 0;  // scan-lifetime streaming span
    sim::Event<StreamingReport> done;
  };

  sim::Future<StreamingReport> wait_preview_impl(std::string scan_id);
  // Mirror-channel sink (after the ESnet hop): caches one batch and
  // starts the back-projection once every frame has landed.
  void on_batch(const beamline::FrameBatch& batch);
  sim::Proc finalize(std::string scan_id);

  sim::Engine& eng_;
  net::Link& zmq_back_;
  hpc::ComputeModel model_;
  // Scan state mutates on the single engine thread; mu_ machine-checks the
  // container-access contract and keeps cross-thread readers (tests,
  // exporters) safe. Never held across co_await; Active values reached
  // through a looked-up pointer stay engine-thread-only.
  mutable Mutex mu_{LockRank::kStreamingService, "pipeline.streaming"};
  std::map<std::string, Active> active_ ALSFLOW_GUARDED_BY(mu_);
  std::map<std::string, StreamingReport> reports_ ALSFLOW_GUARDED_BY(mu_);
  std::size_t delivered_ ALSFLOW_GUARDED_BY(mu_) = 0;
};

}  // namespace alsflow::pipeline
