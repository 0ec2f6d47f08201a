#include "sched/directory.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace alsflow::sched {

void FacilityDirectory::add(FacilityInfo info) {
  const char* fault = nullptr;
  if (info.adapter == nullptr) {
    fault = "has no adapter";
  } else if (has(info.name)) {
    fault = "registered twice";
  } else if (infos_.size() == kMaxFacilities) {
    fault = "is past the site limit";
  }
  if (fault != nullptr) {
    log_error("sched") << "facility '" << info.name << "' " << fault;
    std::abort();
  }
  inflight_.emplace(info.name, 0);
  infos_.push_back(std::move(info));
}

std::uint64_t FacilityDirectory::site_bit(const std::string& facility) const {
  for (std::size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].name == facility) return std::uint64_t(1) << i;
  }
  return 0;
}

std::string FacilityDirectory::flow_for(const std::string& facility) const {
  for (const auto& info : infos_) {
    if (info.name == facility) return info.flow_name;
  }
  return "";
}

std::vector<FacilityState> FacilityDirectory::snapshot(Seconds now) const {
  std::vector<FacilityState> out;
  out.reserve(infos_.size());
  for (const auto& info : infos_) {
    FacilityState s;
    s.name = info.name;
    s.flow_name = info.flow_name;
    s.available = info.adapter->available();
    s.health = info.health ? info.health(now) : 1.0;
    s.queue = info.adapter->queue_stats();
    if (info.link != nullptr) {
      s.has_link = true;
      s.link_bps = info.link->bandwidth() * info.link->bandwidth_factor();
      s.link_latency = info.link->latency() + info.link->extra_latency();
    }
    s.capacity_hint = info.capacity_hint;
    auto it = inflight_.find(info.name);
    s.inflight_placements = it == inflight_.end() ? 0 : it->second;
    out.push_back(std::move(s));
  }
  return out;
}

void FacilityDirectory::note_placed(const std::string& facility) {
  ++inflight_[facility];
}

void FacilityDirectory::note_finished(const std::string& facility) {
  auto it = inflight_.find(facility);
  if (it != inflight_.end() && it->second > 0) --it->second;
}

std::size_t FacilityDirectory::inflight(const std::string& facility) const {
  auto it = inflight_.find(facility);
  return it == inflight_.end() ? 0 : it->second;
}

}  // namespace alsflow::sched
