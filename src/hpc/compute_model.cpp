#include "hpc/compute_model.hpp"

namespace alsflow::hpc {

Seconds ComputeModel::recon_seconds(Device device, tomo::Algorithm algo,
                                    std::size_t nz, std::size_t n,
                                    int n_iterations) const {
  const double voxels = double(nz) * double(n) * double(n);
  double rate = cpu_node_voxels_per_s;
  switch (device) {
    case Device::CpuNode128: rate = cpu_node_voxels_per_s; break;
    case Device::GpuNode4: rate = gpu_node_voxels_per_s; break;
    case Device::Workstation: rate = workstation_voxels_per_s; break;
  }
  double factor = 1.0;
  switch (algo) {
    case tomo::Algorithm::Gridrec:
      factor = 1.0;  // the calibrated baseline
      break;
    case tomo::Algorithm::FBP:
      factor = 1.4;  // direct back-projection costs more per voxel
      break;
    case tomo::Algorithm::SIRT:
      factor = iterative_iteration_factor * double(n_iterations);
      break;
  }
  return voxels * factor / rate;
}

Seconds ComputeModel::streaming_finalize_seconds(std::size_t nz,
                                                 std::size_t n) const {
  const double voxels = double(nz) * double(n) * double(n);
  return voxels / gpu_node_voxels_per_s;
}

}  // namespace alsflow::hpc
