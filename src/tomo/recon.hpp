// Slice reconstruction algorithms.
//
// The file-based workflow in the paper uses TomoPy (gridrec by default,
// iterative methods for quality); the streaming branch uses one-shot
// filtered back-projection. We provide the same menu:
//   * FBP     — filter + back-project, O(n_angles * n^2) per slice.
//   * Gridrec — direct Fourier reconstruction (projection-slice theorem
//               with ramp density compensation), O(n^2 log n) per slice.
//   * SIRT    — simultaneous iterative reconstruction, matched A / A^T.
#pragma once

#include <cstddef>
#include <vector>

#include "tomo/filters.hpp"
#include "tomo/geometry.hpp"
#include "tomo/image.hpp"

namespace alsflow::tomo {

enum class Algorithm { FBP, Gridrec, SIRT };

const char* algorithm_name(Algorithm a);

struct ReconOptions {
  Algorithm algorithm = Algorithm::FBP;
  FilterKind filter = FilterKind::SheppLogan;  // FBP / Gridrec
  int n_iterations = 30;                       // SIRT
  bool non_negative = false;                   // clamp negatives (SIRT/FBP)
};

// Reconstruct an n x n slice from a sinogram (n_angles x n_det).
Image reconstruct_slice(const Image& sinogram, const Geometry& geo,
                        std::size_t n, const ReconOptions& opts = {});

// Reconstruct a stack of sinograms into an (nz x n x n) volume,
// parallelized across slices on the shared pool (the decomposition the
// paper's per-node TomoPy runs use). Every sinogram must be
// (n_angles x n_det) for `geo`.
Volume reconstruct_volume(const std::vector<Image>& sinograms,
                          const Geometry& geo, std::size_t n,
                          const ReconOptions& opts = {});

Image reconstruct_fbp(const Image& sinogram, const Geometry& geo,
                      std::size_t n, FilterKind filter);
Image reconstruct_gridrec(const Image& sinogram, const Geometry& geo,
                          std::size_t n, FilterKind filter);
Image reconstruct_sirt(const Image& sinogram, const Geometry& geo,
                       std::size_t n, int n_iterations,
                       bool non_negative = true);

}  // namespace alsflow::tomo
