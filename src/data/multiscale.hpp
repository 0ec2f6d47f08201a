// Multiscale chunked volume ("Zarr-style" pyramid).
//
// The file-based workflow converts each reconstruction into a multiscale
// volume so the web viewer (itk-vtk-viewer via Tiled) can stream coarse
// levels first. Levels are produced by repeated 2x mean-downsampling; each
// level is stored in fixed-size chunks addressable by (z, y, x) chunk
// index, which is what a slice server fetches.
#pragma once

#include <cstddef>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "tomo/image.hpp"

namespace alsflow::data {

struct ChunkIndex {
  std::size_t z = 0, y = 0, x = 0;
};

class MultiscaleVolume {
 public:
  // Build `n_levels` levels (level 0 = full resolution); each subsequent
  // level halves every axis (ceil division). chunk = cubic chunk edge.
  static MultiscaleVolume build(const tomo::Volume& vol, std::size_t n_levels,
                                std::size_t chunk = 32);

  std::size_t n_levels() const { return levels_.size(); }
  const tomo::Volume& level(std::size_t l) const { return levels_[l]; }

  // Chunk grid shape at a level.
  ChunkIndex chunk_grid(std::size_t level) const;

  // Copy out one chunk (zero-padded at volume edges).
  Result<tomo::Volume> chunk(std::size_t level, ChunkIndex idx) const;

  // Axis-aligned slice from any level: axis 0 = z (xy plane),
  // 1 = y (xz plane), 2 = x (yz plane).
  Result<tomo::Image> slice(std::size_t level, int axis,
                            std::size_t index) const;

  // Total bytes across all levels (the 40-60 GB "additional data" of the
  // paper's reconstruction products, at our scale).
  Bytes total_bytes() const;

  // Bytes one materialized chunk occupies at `level`: chunks are cubic (the
  // edge given to build()) and zero-padded at volume edges, so every copy is
  // edge^3 float32 regardless of position. 0 for an invalid level. This is the unit a
  // chunk cache must account per entry to match what chunk() allocates.
  Bytes chunk_bytes(std::size_t level) const;

  // Bytes slice(level, axis, ·) materializes (the served image's float32
  // footprint). 0 for an invalid level or axis. TiledService charges this
  // per request, so cache accounting and bytes_served() agree by
  // construction.
  Bytes slice_bytes(std::size_t level, int axis) const;

 private:
  std::size_t chunk_ = 32;
  std::vector<tomo::Volume> levels_;
};

// One 2x mean-downsampling step (exposed for tests).
tomo::Volume downsample2(const tomo::Volume& vol);

}  // namespace alsflow::data
