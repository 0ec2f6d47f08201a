// Parallel-beam forward and back projection.
//
// The forward projector is pixel-driven with linear splatting; its exact
// adjoint (back_project_adjoint) pairs with it for iterative methods
// (SIRT/MLEM need a matched <Ax, y> = <x, A^T y> pair). fbp_backproject is
// the *scaled, interpolating* back-projector used by filtered
// back-projection: combined with the ProjectionFilter convention it
// reconstructs attenuation values at the correct amplitude.
//
// Units: images span [-1, 1]^2; sinogram values are line integrals in those
// units, directly comparable to analytic_sinogram().
#pragma once

#include "tomo/geometry.hpp"
#include "tomo/image.hpp"

namespace alsflow::tomo {

// A x: image (n x n) -> sinogram (n_angles x n_det).
Image forward_project(const Image& img, const Geometry& geo);

// As forward_project, but writing into a caller-owned sinogram (zeroed
// here). The iterative solvers reuse one buffer across iterations instead
// of constructing a fresh Image per iteration.
void forward_project_into(const Image& img, const Geometry& geo, Image& sino);

// A^T y: sinogram -> image (n x n). Exact adjoint of forward_project.
Image back_project_adjoint(const Image& sino, const Geometry& geo,
                           std::size_t n);

// As back_project_adjoint, into a caller-owned n x n image. Every pixel is
// assigned, so the target needs no zeroing.
void back_project_adjoint_into(const Image& sino, const Geometry& geo,
                               std::size_t n, Image& img);

// FBP back-projector: gather with linear interpolation, scaled by
// pi / n_angles * n_det / 2 (the 1/spacing factor; see filters.hpp).
Image fbp_backproject(const Image& filtered_sino, const Geometry& geo,
                      std::size_t n);

// Accumulate the FBP contribution of a single filtered projection row into
// `accum`, scale applied per call: summed over every angle it matches
// fbp_backproject, whose gather it shares.
void fbp_accumulate_row(Image& accum, std::span<const float> filtered_row,
                        const Geometry& geo, std::size_t angle_index);

// FBP-reconstruct arbitrary sample points (us[i], vs[i]) in [-1, 1] coords
// from a filtered sinogram. Used to extract single lines of a slice (the
// streaming preview's orthogonal cuts) without reconstructing the plane.
void fbp_backproject_points(const Image& filtered_sino, const Geometry& geo,
                            std::span<const double> us,
                            std::span<const double> vs, std::span<float> out);

}  // namespace alsflow::tomo
