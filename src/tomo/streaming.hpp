// Streaming reconstructor — the streamtomocupy-equivalent kernel behind the
// paper's <10 s preview path.
//
// Frames (one 2-D projection per rotation angle) arrive one at a time while
// the scan is still running. Each frame is flat-field-corrected, -log'd,
// ramp-filtered and back-projected as it arrives, into the three-slice
// preview the beamline pushes back to ImageJ:
//   * the central XY slice (full plane),
//   * one XZ and one YZ orthogonal cut (single lines per detector row).
// All of that work overlaps acquisition, the asynchronous-processing trick
// streamtomocupy uses. The sums run in angle order (a frame that arrives
// early waits for the gap before it to fill), so finalize() copies them,
// adds any angle still waiting, and scales: the preview is bit-identical to
// back-projecting the filtered sinograms from scratch, for any arrival
// order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tomo/filters.hpp"
#include "tomo/geometry.hpp"
#include "tomo/image.hpp"

namespace alsflow::tomo {

struct StreamingConfig {
  Geometry geo;                 // angles / detector width / center
  std::size_t n_rows = 0;       // detector rows per frame (slices)
  std::size_t recon_n = 0;      // output slice resolution (default n_det)
  FilterKind filter = FilterKind::SheppLogan;
  bool normalize = true;        // apply dark/flat + minus_log per frame

  std::size_t recon_width() const { return recon_n ? recon_n : geo.n_det; }
};

// Three orthogonal preview slices through the volume center.
struct OrthoPreview {
  Image xy;  // (recon_n x recon_n), slice at z = n_rows/2
  Image xz;  // (n_rows x recon_n), cut at y = center
  Image yz;  // (n_rows x recon_n), cut at x = center
};

class StreamingReconstructor {
 public:
  explicit StreamingReconstructor(StreamingConfig config);

  // Reference fields for flat-field correction (required if
  // config.normalize). Shapes: (n_rows x n_det).
  void set_reference(const Image& dark, const Image& flat);

  // Ingest one frame: shape (n_rows x n_det), projection at angle index a.
  // Frames may arrive in any order; duplicates overwrite (one that replaces
  // an angle already summed rebuilds the preview sums).
  void on_frame(std::size_t angle_index, const Image& frame);

  std::size_t frames_received() const { return frames_received_; }
  bool complete() const { return frames_received_ >= config_.geo.n_angles; }

  // The three preview slices: a copy of the running sums, scaled. Valid
  // once complete() (partial previews from fewer angles are allowed and
  // simply noisier).
  OrthoPreview finalize() const;

  // Full-plane reconstruction of detector row z (for full-volume recon).
  Image reconstruct_row(std::size_t z) const;

  // Back-project every detector row into an (n_rows x recon_n x recon_n)
  // volume, rows parallelized across the pool (per-row back-projection
  // nests its own parallel_for; the reentrant pool shares both levels).
  Volume reconstruct_all_rows() const;

  // Access the cached, filtered sinogram for detector row z.
  const Image& filtered_sinogram(std::size_t z) const { return sinos_[z]; }

 private:
  // Add the received angles in [a0, a1), in angle order, to the unscaled
  // preview sums `plane`, `xz` and `yz`.
  void add_angles(std::size_t a0, std::size_t a1, Image& plane,
                  std::span<double> xz, std::span<double> yz) const;

  StreamingConfig config_;
  ProjectionFilter filter_;
  Image dark_, flat_;
  bool have_reference_ = false;
  // One sinogram per detector row; rows filled as frames arrive.
  std::vector<Image> sinos_;
  std::vector<bool> seen_;
  std::size_t frames_received_ = 0;
  // FBP tables: per-angle trig (fbp_trig), pixel-centre u and v, and the
  // zero coordinate each cut holds fixed.
  std::vector<double> ct_, st_, us_, vs_, zeros_;
  // Unscaled preview sums over the angles [0, frontier_), all received: the
  // XY plane in float, as fbp_backproject sums it, and the XZ / YZ cuts
  // (n_rows x recon_n) in double, as fbp_backproject_points sums them.
  Image plane_;
  std::vector<double> xz_, yz_;
  std::size_t frontier_ = 0;
};

}  // namespace alsflow::tomo
