#include "flow/run_db.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>


namespace alsflow::flow {

bool is_terminal(RunState s) {
  return s == RunState::Completed || s == RunState::Failed ||
         s == RunState::Cancelled;
}

std::string RunDatabase::create_run(const std::string& flow_name, Seconds now,
                                    std::string parameters) {
  LockGuard lock(mu_);
  char id[48];
  std::snprintf(id, sizeof id, "run-%06llu",
                static_cast<unsigned long long>(next_id_++));
  FlowRunRecord rec;
  rec.id = id;
  rec.flow_name = flow_name;
  rec.created_at = now;
  rec.parameters = std::move(parameters);
  order_.push_back(&runs_.emplace(rec.id, rec).first->second);
  return id;
}

void RunDatabase::mark_running(const std::string& run_id, Seconds now) {
  LockGuard lock(mu_);
  auto& rec = runs_.at(run_id);
  rec.state = RunState::Running;
  if (rec.started_at < 0.0) rec.started_at = now;
}

void RunDatabase::mark_retrying(const std::string& run_id, Seconds /*now*/) {
  LockGuard lock(mu_);
  runs_.at(run_id).state = RunState::Retrying;
}

void RunDatabase::mark_finished(const std::string& run_id,
                                RunState final_state, Seconds now,
                                const std::string& error) {
  LockGuard lock(mu_);
  assert(is_terminal(final_state));
  auto& rec = runs_.at(run_id);
  rec.state = final_state;
  rec.finished_at = now;
  rec.error = error;
}

void RunDatabase::add_retry(const std::string& run_id) {
  LockGuard lock(mu_);
  ++runs_.at(run_id).retries;
}

const FlowRunRecord* RunDatabase::run(const std::string& run_id) const {
  // The returned pointer targets a map node (stable across inserts);
  // field reads on a still-running record stay engine-thread-only.
  LockGuard lock(mu_);
  auto it = runs_.find(run_id);
  return it == runs_.end() ? nullptr : &it->second;
}

std::vector<FlowRunRecord> RunDatabase::runs_locked(
    const std::string& flow_name) const {
  std::vector<FlowRunRecord> out;
  for_each_run_locked(flow_name,
                      [&](const FlowRunRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<FlowRunRecord> RunDatabase::runs(
    const std::string& flow_name) const {
  LockGuard lock(mu_);
  return runs_locked(flow_name);
}

std::vector<FlowRunRecord> RunDatabase::runs_in_state_locked(
    const std::string& flow_name, RunState state) const {
  std::vector<FlowRunRecord> out;
  for_each_run_locked(flow_name, [&](const FlowRunRecord& rec) {
    if (rec.state == state) out.push_back(rec);
  });
  return out;
}

std::vector<FlowRunRecord> RunDatabase::runs_in_state(
    const std::string& flow_name, RunState state) const {
  LockGuard lock(mu_);
  return runs_in_state_locked(flow_name, state);
}

Summary RunDatabase::duration_summary(const std::string& flow_name,
                                      std::size_t last_n,
                                      RunState state) const {
  LockGuard lock(mu_);
  // Two passes over the records in place: count the matches, then take
  // the durations of the last `last_n`.
  std::size_t matching = 0;
  for_each_run_locked(flow_name, [&](const FlowRunRecord& rec) {
    if (rec.state == state) ++matching;
  });
  const std::size_t start = matching > last_n ? matching - last_n : 0;
  std::vector<double> durations;
  durations.reserve(matching - start);
  std::size_t i = 0;
  for_each_run_locked(flow_name, [&](const FlowRunRecord& rec) {
    if (rec.state == state && i++ >= start) {
      durations.push_back(rec.duration());
    }
  });
  return summarize(std::move(durations));
}

double RunDatabase::success_rate(const std::string& flow_name) const {
  LockGuard lock(mu_);
  std::size_t terminal = 0, completed = 0;
  for_each_run_locked(flow_name, [&](const FlowRunRecord& rec) {
    if (is_terminal(rec.state)) {
      ++terminal;
      if (rec.state == RunState::Completed) ++completed;
    }
  });
  return terminal == 0 ? 1.0 : double(completed) / double(terminal);
}

void RunDatabase::record_task(TaskRunRecord rec) {
  LockGuard lock(mu_);
  task_runs_.push_back(std::move(rec));
}

std::vector<TaskRunRecord> RunDatabase::tasks(
    const std::string& flow_run_id) const {
  LockGuard lock(mu_);
  std::vector<TaskRunRecord> out;
  for (const auto& t : task_runs_) {
    if (t.flow_run_id == flow_run_id) out.push_back(t);
  }
  return out;
}

namespace {

// The last `last_n` of `durations`.
std::vector<double> last_durations(std::vector<double> durations,
                                   std::size_t last_n) {
  if (durations.size() > last_n) {
    durations.erase(durations.begin(),
                    durations.end() - std::ptrdiff_t(last_n));
  }
  return durations;
}

// Exact order statistics: the raw samples are at hand, so there is no
// reason to estimate them through histogram buckets.
RunDatabase::TaskQuantiles exact_quantiles(std::vector<double> durations) {
  RunDatabase::TaskQuantiles q;
  q.n = durations.size();
  std::sort(durations.begin(), durations.end());
  q.p50 = percentile_sorted(durations, 0.50);
  q.p95 = percentile_sorted(durations, 0.95);
  q.p99 = percentile_sorted(durations, 0.99);
  return q;
}

}  // namespace

Summary RunDatabase::task_duration_summary(const std::string& flow_name,
                                           const std::string& task_name,
                                           std::size_t last_n) const {
  return summarize(
      last_durations(completed_task_durations(flow_name, task_name), last_n));
}

RunDatabase::TaskQuantiles RunDatabase::task_duration_quantiles(
    const std::string& flow_name, const std::string& task_name,
    std::size_t last_n) const {
  return exact_quantiles(
      last_durations(completed_task_durations(flow_name, task_name), last_n));
}

std::vector<double> RunDatabase::completed_task_durations(
    const std::string& flow_name, const std::string& task_name) const {
  LockGuard lock(mu_);
  std::vector<double> out;
  for (const auto& t : task_runs_) {
    if (t.task_name != task_name) continue;
    if (t.state != RunState::Completed) continue;
    if (t.started_at < 0.0 || t.finished_at < 0.0) continue;
    if (!flow_name.empty()) {
      auto it = runs_.find(t.flow_run_id);
      if (it == runs_.end() || it->second.flow_name != flow_name) continue;
    }
    out.push_back(t.finished_at - t.started_at);
  }
  return out;
}

std::vector<std::string> RunDatabase::task_names(
    const std::string& flow_name) const {
  LockGuard lock(mu_);
  std::vector<std::string> out;
  for (const auto& t : task_runs_) {
    if (!flow_name.empty()) {
      auto it = runs_.find(t.flow_run_id);
      if (it == runs_.end() || it->second.flow_name != flow_name) continue;
    }
    if (std::find(out.begin(), out.end(), t.task_name) == out.end()) {
      out.push_back(t.task_name);
    }
  }
  return out;
}

}  // namespace alsflow::flow
