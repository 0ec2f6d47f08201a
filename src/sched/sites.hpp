// sched::Sites: the compute sites every world places scans on (Figure 3).
//
// Perlmutter at NERSC (Slurm behind SFAPI, realtime QOS), Polaris at ALCF
// (a Globus Compute pilot pool) and an elastic cloud-burst region, each
// behind its own ESnet path, built once at production size, plus one
// FacilityDirectory row per site in a fixed order (nersc, alcf, cloud).
// pipeline::Facility and sched::FleetWorld each own one and name, per
// site, the recon flow a placement there runs. Sim-thread only.
#pragma once

#include <string>

#include "hpc/adapter.hpp"
#include "hpc/cloud.hpp"
#include "hpc/globus_compute.hpp"
#include "hpc/sfapi.hpp"
#include "hpc/slurm.hpp"
#include "net/link.hpp"
#include "sched/directory.hpp"
#include "sim/engine.hpp"

namespace alsflow::chaos {
class ChaosEngine;
}  // namespace alsflow::chaos

namespace alsflow::sched {

class Sites {
 public:
  // `*_flow`: the recon flow the owning world runs for a placement on that
  // site (the directory row's flow_name).
  Sites(sim::Engine& eng, std::string nersc_flow, std::string alcf_flow,
        std::string cloud_flow);
  // The directory rows and the SFAPI client point into this object.
  Sites(const Sites&) = delete;
  Sites& operator=(const Sites&) = delete;

  hpc::SlurmCluster& perlmutter() { return perlmutter_; }
  hpc::GlobusComputeEndpoint& polaris() { return polaris_; }
  hpc::NerscSlurmAdapter& nersc() { return nersc_; }
  hpc::AlcfGlobusComputeAdapter& alcf() { return alcf_; }
  hpc::CloudBurstAdapter& cloud() { return cloud_; }
  net::Link& esnet_nersc() { return esnet_nersc_; }
  net::Link& esnet_alcf() { return esnet_alcf_; }
  net::Link& esnet_cloud() { return esnet_cloud_; }
  FacilityDirectory& directory() { return directory_; }

  // Bind the three ESnet links and the three compute adapters to `chaos`,
  // so a scenario can target any site or path by name.
  void bind_chaos(chaos::ChaosEngine& chaos);

 private:
  hpc::SlurmCluster perlmutter_;
  hpc::SfApiClient sfapi_;
  hpc::NerscSlurmAdapter nersc_;
  hpc::GlobusComputeEndpoint polaris_;
  hpc::AlcfGlobusComputeAdapter alcf_;
  hpc::CloudBurstAdapter cloud_;
  net::Link esnet_nersc_;
  net::Link esnet_alcf_;
  net::Link esnet_cloud_;
  FacilityDirectory directory_;
};

}  // namespace alsflow::sched
