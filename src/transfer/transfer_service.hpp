// Globus-Transfer-equivalent data movement service.
//
// Flows submit transfer tasks between storage endpoints; the service
// resolves the route's network link, moves each file (sharing bandwidth
// with every other active transfer on that link), optionally verifies a
// checksum on arrival, and retries corrupted or transiently-failed files.
// Fault injection (corruption rate, transient failure rate) exercises the
// retry machinery; endpoint permission rules surface as permanent errors,
// reproducing the paper's prune-burst incident mode.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_safety.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/endpoint.hpp"

namespace alsflow::transfer {

struct FilePair {
  std::string src_path;
  std::string dst_path;
};

struct TransferSpec {
  storage::StorageEndpoint* src = nullptr;
  storage::StorageEndpoint* dst = nullptr;
  std::vector<FilePair> files;
  bool verify_checksum = true;
  std::string label;  // for history / debugging
  // Telemetry parent span (e.g. the flow task that submitted this
  // transfer); 0 makes the transfer span a root.
  telemetry::SpanId trace_parent = 0;
};

struct TransferOutcome {
  Status status = Status::success();
  std::string label;
  Bytes bytes_moved = 0;
  std::size_t files_ok = 0;
  std::size_t files_failed = 0;
  // Failed files whose known-corrupt destination copy could not be removed
  // after the retry budget ran out: a bad copy is sitting at the
  // destination where downstream flows could ingest it. When nonzero the
  // outcome's status code is `stranded_corrupt_copy` (more severe than
  // plain `retries_exhausted`, which means no copy landed at all).
  std::size_t files_stranded = 0;
  int retries = 0;
  Seconds submitted_at = 0.0;
  Seconds finished_at = 0.0;

  Seconds duration() const { return finished_at - submitted_at; }
};

struct TransferTuning {
  // Fixed task-setup latency (auth handshake, endpoint activation).
  Seconds per_task_overhead = 3.0;
  // Per-file protocol overhead.
  Seconds per_file_overhead = 0.2;
  // Post-transfer checksum read rate (bytes/s) — parallel DTN hashing; 0
  // disables the time cost while keeping verification.
  double checksum_rate = 2.5e9;
  int max_retries = 3;
  // Retry pacing: attempt k (k >= 1) waits retry_delay * retry_backoff^(k-1),
  // scaled by a deterministic jitter of up to +/- retry_jitter drawn from
  // the service's seeded rng. A fixed delay resynchronizes every transfer
  // caught in a fault burst into lock-step retry storms; the spread
  // decorrelates them while keeping the simulation byte-reproducible.
  Seconds retry_delay = 5.0;
  double retry_backoff = 2.0;
  double retry_jitter = 0.25;
};

class TransferService {
 public:
  TransferService(sim::Engine& eng, std::uint64_t seed = 1234)
      : eng_(eng), rng_(seed) {}

  // Register the link used for endpoint pair (by endpoint name). Routes are
  // directional; register both directions for full duplex.
  void add_route(const std::string& src_name, const std::string& dst_name,
                 net::Link* link);

  TransferTuning& tuning() { return tuning_; }

  // Fault injection.
  void set_corruption_rate(double p) { corruption_rate_ = p; }
  void set_transient_failure_rate(double p) { transient_failure_rate_ = p; }

  // Submit a transfer task; the future resolves when the task completes
  // (successfully or not). Missing route or endpoints fail immediately.
  // (Plain-function wrapper over the coroutine impl: see the note in
  // flow/engine.hpp on GCC 12 and prvalue coroutine arguments.)
  sim::Future<TransferOutcome> submit(TransferSpec spec) {
    return submit_impl(std::move(spec));
  }

  // Completed-transfer log. The reference stays stable (the vector member
  // never moves); snapshot semantics only hold on the engine thread while
  // no transfer is in flight.
  const std::vector<TransferOutcome>& history() const ALSFLOW_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return history_;
  }
  Bytes total_bytes_moved() const ALSFLOW_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return total_bytes_;
  }

 private:
  sim::Future<TransferOutcome> submit_impl(TransferSpec spec);
  net::Link* route(const std::string& src, const std::string& dst) const
      ALSFLOW_EXCLUDES(mu_);
  void record_outcome(const TransferOutcome& outcome) ALSFLOW_EXCLUDES(mu_);
  // Close the transfer span and bump the per-route counters, labelled
  // route="src->dst" (unlabelled when an endpoint is missing).
  void finish_telemetry(telemetry::SpanId span, const TransferSpec& spec,
                        const TransferOutcome& outcome);

  sim::Engine& eng_;
  Rng rng_;
  TransferTuning tuning_;
  double corruption_rate_ = 0.0;
  double transient_failure_rate_ = 0.0;
  // Transfers run as coroutines on the single engine thread; mu_ makes the
  // route-table / history access contract machine-checked and keeps
  // cross-thread readers (tests, exporters) safe. Never held across
  // co_await.
  mutable Mutex mu_{LockRank::kTransferService, "transfer.service"};
  std::map<std::pair<std::string, std::string>, net::Link*> routes_
      ALSFLOW_GUARDED_BY(mu_);
  std::vector<TransferOutcome> history_ ALSFLOW_GUARDED_BY(mu_);
  Bytes total_bytes_ ALSFLOW_GUARDED_BY(mu_) = 0;
};

}  // namespace alsflow::transfer
