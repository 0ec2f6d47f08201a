#include "hpc/sfapi.hpp"

namespace alsflow::hpc {

sim::Future<sim::Unit> SfApiClient::authenticate() {
  if (eng_.now() > token_valid_until_) {
    ++auth_refreshes_;
    co_await sim::delay(eng_, tuning_.auth_latency);
    token_valid_until_ = eng_.now() + tuning_.token_lifetime;
  }
  co_return sim::Unit{};
}

sim::Future<Result<JobId>> SfApiClient::submit_job_impl(JobSpec spec) {
  co_await authenticate();
  ++api_calls_;
  co_await sim::delay(eng_, tuning_.call_latency);
  Result<JobId> submitted = cluster_.submit(std::move(spec));
  co_return submitted;
}

sim::Future<Result<JobInfo>> SfApiClient::job_status(JobId id) {
  co_await authenticate();
  ++api_calls_;
  co_await sim::delay(eng_, tuning_.call_latency);
  co_return cluster_.info(id);
}

sim::Future<JobInfo> SfApiClient::wait_job(JobId id) {
  co_return co_await cluster_.wait(id);
}

}  // namespace alsflow::hpc
