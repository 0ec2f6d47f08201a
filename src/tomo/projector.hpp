// Parallel-beam forward and back projection.
//
// The forward projector is pixel-driven with linear splatting; its exact
// adjoint (back_project_adjoint) pairs with it for iterative methods
// (SIRT needs a matched <Ax, y> = <x, A^T y> pair). fbp_backproject is
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

// FBP one angle at a time, for callers that sum the angles themselves (the
// streaming preview adds each frame as it arrives). fbp_backproject is, per
// row, fbp_accumulate_row over every angle in angle order from zero, then
// one multiply by fbp_scale; fbp_backproject_points is the same with
// fbp_accumulate_points. A caller that sums in that order reproduces them
// bit for bit. The accumulate calls allocate nothing.

// Per-angle cos and sin, pre-scaled by 1 / det_spacing (n_angles each).
void fbp_trig(const Geometry& geo, std::span<double> ct, std::span<double> st);

// pi / n_angles from the angular integral; 1 / det_spacing from the
// frequency-domain filter discretization (see filters.hpp).
double fbp_scale(const Geometry& geo);

// The one FBP gather: one angle (detector row `det`, trig ct / st from
// fbp_trig) into one plane row at height v. out[x] += tap(det, t(x)) with
// t(x) = us[x] * ct + (v * st + center), over the x whose two linear-
// interpolation taps both lie on the detector.
void fbp_accumulate_row(std::span<const float> det, std::span<const double> us,
                        double v, double ct, double st, double center,
                        std::span<float> out);

// The same angle at sample points (us[i], vs[i]): acc[i] += tap(det, t_i)
// with the same t expression and the same skip.
void fbp_accumulate_points(std::span<const float> det,
                           std::span<const double> us,
                           std::span<const double> vs, double ct, double st,
                           double center, std::span<double> acc);

// FBP-reconstruct arbitrary sample points (us[i], vs[i]) in [-1, 1] coords
// from a filtered sinogram: single lines of a slice (such as the streaming
// preview's orthogonal cuts) without reconstructing the plane.
void fbp_backproject_points(const Image& filtered_sino, const Geometry& geo,
                            std::span<const double> us,
                            std::span<const double> vs, std::span<float> out);

}  // namespace alsflow::tomo
