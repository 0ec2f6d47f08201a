#include "sched/sites.hpp"

#include <utility>

#include "chaos/chaos_engine.hpp"

namespace alsflow::sched {

namespace {

// Sustaining 12-20 scans/hour with 20-30 minute reconstructions needs ~6
// concurrent jobs per site (rate x duration), so the realtime allocation
// spans several nodes and the ALCF endpoint keeps a matching pilot pool.
constexpr int kPerlmutterNodes = 8;
constexpr int kPolarisWorkers = 6;
// Elastic, but slower per instance and behind a thinner path: the cost
// model should only burst here under pressure.
constexpr double kCloudCapacity = 16.0;

void add_site(FacilityDirectory* directory, std::string flow_name,
              hpc::ComputeAdapter* adapter, net::Link* link,
              double capacity_hint) {
  FacilityInfo info;
  info.name = adapter->facility();
  info.flow_name = std::move(flow_name);
  info.adapter = adapter;
  info.link = link;
  info.capacity_hint = capacity_hint;
  directory->add(std::move(info));
}

}  // namespace

Sites::Sites(sim::Engine& eng, std::string nersc_flow, std::string alcf_flow,
             std::string cloud_flow)
    : perlmutter_(eng, "perlmutter", kPerlmutterNodes),
      sfapi_(eng, perlmutter_),
      nersc_(eng, sfapi_, hpc::ComputeModel{}),
      polaris_(eng, "polaris", kPolarisWorkers),
      alcf_(eng, polaris_, hpc::ComputeModel{}),
      cloud_(eng, hpc::ComputeModel{}),
      // ESnet paths to both centers, and a thinner commercial path to the
      // cloud region.
      esnet_nersc_(eng, "esnet-nersc", gbps(10.0), 0.03),
      esnet_alcf_(eng, "esnet-alcf", gbps(10.0), 0.05),
      esnet_cloud_(eng, "esnet-cloud", gbps(5.0), 0.04) {
  add_site(&directory_, std::move(nersc_flow), &nersc_, &esnet_nersc_,
           double(kPerlmutterNodes));
  add_site(&directory_, std::move(alcf_flow), &alcf_, &esnet_alcf_,
           double(kPolarisWorkers));
  add_site(&directory_, std::move(cloud_flow), &cloud_, &esnet_cloud_,
           kCloudCapacity);
}

void Sites::bind_chaos(chaos::ChaosEngine& chaos) {
  chaos.bind_link(&esnet_nersc_);
  chaos.bind_link(&esnet_alcf_);
  chaos.bind_link(&esnet_cloud_);
  chaos.bind_adapter(&nersc_);
  chaos.bind_adapter(&alcf_);
  chaos.bind_adapter(&cloud_);
}

}  // namespace alsflow::sched
