// Superfacility API (SFAPI) client facade.
//
// Production flows never talk to Slurm directly: they authenticate with a
// collaboration-account token and call the NERSC Superfacility REST API to
// submit, poll, and cancel jobs. This facade reproduces that shape — token
// refresh with expiry, per-call latency, and the submit/status/cancel verb
// set — over the SlurmCluster simulation.
#pragma once

#include <string>

#include "common/result.hpp"
#include "common/units.hpp"
#include "hpc/slurm.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::hpc {

struct SfApiTuning {
  Seconds call_latency = 0.3;     // REST round trip
  Seconds auth_latency = 1.0;     // OAuth token exchange
  Seconds token_lifetime = 600.0; // re-auth after expiry
};

class SfApiClient {
 public:
  using Tuning = SfApiTuning;

  SfApiClient(sim::Engine& eng, SlurmCluster& cluster, Tuning tuning = {})
      : eng_(eng), cluster_(cluster), tuning_(tuning) {}

  // Submit a batch job; resolves with the Slurm job id.
  // (Wrapper over the coroutine impl: see flow/engine.hpp on GCC 12.)
  sim::Future<Result<JobId>> submit_job(JobSpec spec) {
    return submit_job_impl(std::move(spec));
  }

  // Poll a job's state.
  sim::Future<Result<JobInfo>> job_status(JobId id);

  // Block until the job reaches a terminal state (poll-free convenience
  // used by flows; the real client long-polls).
  sim::Future<JobInfo> wait_job(JobId id);

  std::size_t api_calls() const { return api_calls_; }
  std::size_t auth_refreshes() const { return auth_refreshes_; }

 private:
  sim::Future<Result<JobId>> submit_job_impl(JobSpec spec);
  // Ensure a live token, paying the auth exchange when expired.
  sim::Future<sim::Unit> authenticate();

  sim::Engine& eng_;
  SlurmCluster& cluster_;
  Tuning tuning_;
  Seconds token_valid_until_ = -1.0;
  std::size_t api_calls_ = 0;
  std::size_t auth_refreshes_ = 0;
};

}  // namespace alsflow::hpc
