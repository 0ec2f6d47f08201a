// Calibrated compute-cost model for paper-scale reconstructions.
//
// Our kernels run for real at test scale; production scale (2160 x 2560 x
// 2560 volumes, ~2000 projections) is charged to simulated time via rates
// calibrated against the paper's reported numbers:
//   * streaming back-projection of a 1969 x 2160 x 2560 scan on a 4-GPU
//     Perlmutter node finishes in 7-8 s  -> ~1.9e9 voxels/s (Section 5.2);
//   * the file-based TomoPy pass (preprocessing + gridrec, 128-core CPU
//     node) lands in the 20-30 minute band -> ~1.1e7 voxels/s.
// Rates are per reconstructed voxel of output volume; iterative methods
// scale with iteration count.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "tomo/recon.hpp"

namespace alsflow::hpc {

enum class Device {
  CpuNode128,  // Perlmutter CPU node, 128 cores (file-based branch)
  GpuNode4,    // Perlmutter GPU node, 4 accelerators (streaming branch)
  Workstation, // historical beamline workstation (baseline)
};

struct ComputeModel {
  // Full-quality file-based pipeline on a CPU node (TomoPy-equivalent:
  // normalize + -log + ring removal + gridrec), voxels/second.
  double cpu_node_voxels_per_s = 0.95e7;
  // One-shot streaming FBP on a 4-GPU node (streamtomocupy-equivalent).
  double gpu_node_voxels_per_s = 1.9e9;
  // Historical single workstation (the "hour per slice" era).
  double workstation_voxels_per_s = 2.5e5;
  // Polaris nodes run the file-based pass somewhat faster than the
  // Perlmutter CPU node (Table 2: ALCF flow ~1150 s vs NERSC ~1500 s).
  double alcf_speedup = 1.25;
  // Iterative methods: cost of one SIRT iteration relative to one full
  // FBP pass over the same volume.
  double iterative_iteration_factor = 2.0;

  // Modeled wall-clock to reconstruct an (nz x n x n) volume.
  Seconds recon_seconds(Device device, tomo::Algorithm algo, std::size_t nz,
                        std::size_t n, int n_iterations = 30) const;

  // Streaming preview: per-frame filtering overlaps acquisition, so the
  // post-acquisition cost is the back-projection of the cached, filtered
  // data (the 7-8 s the paper reports).
  Seconds streaming_finalize_seconds(std::size_t nz, std::size_t n) const;
};

}  // namespace alsflow::hpc
