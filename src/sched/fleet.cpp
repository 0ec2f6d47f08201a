#include "sched/fleet.hpp"

#include <cstdlib>
#include <utility>

#include "common/log.hpp"

namespace alsflow::sched {

Fleet::Fleet(sim::Engine& eng, FacilityDirectory& directory,
             std::string policy_name, SchedulerConfig cfg)
    : eng_(eng),
      dir_(directory),
      policy_name_(std::move(policy_name)),
      cfg_(cfg) {}

Fleet::Shard& Fleet::add_shard(std::string beamline,
                               const FlowRegistrar& registrar) {
  if (by_name_.count(beamline) != 0) {
    log_error("sched") << "beamline shard '" << beamline << "' added twice";
    std::abort();
  }
  auto shard = std::make_unique<Shard>();
  shard->beamline = std::move(beamline);
  shard->db = std::make_unique<flow::RunDatabase>();
  shard->flows = std::make_unique<flow::FlowEngine>(eng_, *shard->db);
  shard->policy = require_policy(policy_name_);
  shard->scheduler = std::make_unique<FederatedScheduler>(
      eng_, *shard->flows, dir_, *shard->policy, cfg_);
  if (registrar) registrar(shard->beamline, *shard->flows);
  shards_.push_back(std::move(shard));
  Shard& ref = *shards_.back();
  by_name_.emplace(ref.beamline, &ref);
  return ref;
}

Fleet::Shard* Fleet::shard(const std::string& beamline) {
  auto it = by_name_.find(beamline);
  return it == by_name_.end() ? nullptr : it->second;
}

sim::Future<ScanResult> Fleet::submit(const std::string& beamline,
                                      ScanRequest scan) {
  Shard* s = shard(beamline);
  if (s == nullptr) {
    log_error("sched") << "submit to unknown beamline shard '" << beamline
                       << "'";
    std::abort();
  }
  return s->scheduler->submit(std::move(scan));
}

std::vector<const flow::RunDatabase*> Fleet::run_dbs() const {
  std::vector<const flow::RunDatabase*> dbs;
  dbs.reserve(shards_.size());
  for (const auto& s : shards_) dbs.push_back(s->db.get());
  return dbs;
}

Summary Fleet::merged_duration_summary(const std::string& flow_name,
                                       std::size_t last_n) const {
  return flow::merged_duration_summary(run_dbs(), flow_name, last_n);
}

flow::RunDatabase::TaskQuantiles Fleet::merged_task_duration_quantiles(
    const std::string& flow_name, const std::string& task_name,
    std::size_t last_n) const {
  return flow::merged_task_duration_quantiles(run_dbs(), flow_name, task_name,
                                              last_n);
}

std::map<std::string, std::size_t> Fleet::placements() const {
  std::map<std::string, std::size_t> out;
  for (const auto& s : shards_) {
    for (const auto& [facility, n] : s->scheduler->placements()) {
      out[facility] += n;
    }
  }
  return out;
}

std::size_t Fleet::scans_lost() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->scheduler->scans_lost();
  return n;
}

std::size_t Fleet::failovers() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->scheduler->failovers();
  return n;
}

std::size_t Fleet::hedges_launched() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->scheduler->hedges_launched();
  return n;
}

}  // namespace alsflow::sched
