// Region discretisation.
//
// The paper's pattern 1 is the histogram <region, visited times> and
// pattern 2 is <movement pattern PoI_i -> PoI_j, happen times>. For the
// adversary to compare histograms *across* users (identification) the keys
// must live in a user-independent space, so places are keyed by the square
// grid cell containing them. Cells are sized so that the small jitter in
// extracted PoI centroids (GPS noise, partial visits) almost never moves a
// place across a cell boundary, while distinct city places fall in distinct
// cells.
#pragma once

#include <cstdint>

#include "geo/projection.hpp"

namespace locpriv::privacy {

/// Opaque id of a grid cell.
using RegionId = std::int64_t;

/// Maps coordinates to grid-cell ids within a local projection.
class RegionGrid {
 public:
  /// `cell_m` is the cell edge in meters (default 250 m: comfortably larger
  /// than PoI centroid jitter, smaller than the synthetic city's 500 m
  /// blocks). Precondition: cell_m > 0.
  RegionGrid(const geo::LatLon& anchor, double cell_m);

  /// Cell id containing `p`. Ids are stable across calls and unique per
  /// cell within +-4000 km of the anchor.
  RegionId region_of(const geo::LatLon& p) const;

  double cell_m() const { return cell_m_; }
  const geo::LocalProjection& projection() const { return projection_; }

 private:
  geo::LocalProjection projection_;
  double cell_m_;
};

/// Packs an ordered pair of regions (a movement pattern a -> b) into one
/// 64-bit key. Requires both ids to fit in 32 bits, which region_of
/// guarantees.
std::int64_t pack_transition(RegionId from, RegionId to);

/// Unpacks a movement-pattern key.
void unpack_transition(std::int64_t key, RegionId& from, RegionId& to);

}  // namespace locpriv::privacy
