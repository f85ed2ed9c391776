#include "privacy/region.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace locpriv::privacy {

namespace {
// Cell indices are offset into [0, 2^15) per axis so the packed id is
// non-negative and fits 30 bits; +-16384 cells of >= 1 m covers any city.
constexpr std::int64_t kAxisOffset = 1 << 14;
constexpr std::int64_t kAxisSpan = 1 << 15;
}  // namespace

RegionGrid::RegionGrid(const geo::LatLon& anchor, double cell_m)
    : projection_(anchor), cell_m_(cell_m) {
  LOCPRIV_EXPECT(cell_m > 0.0);
}

RegionId RegionGrid::region_of(const geo::LatLon& p) const {
  const geo::EastNorth plane = projection_.to_plane(p);
  const auto ix = static_cast<std::int64_t>(std::floor(plane.east_m / cell_m_));
  const auto iy = static_cast<std::int64_t>(std::floor(plane.north_m / cell_m_));
  LOCPRIV_EXPECT(ix >= -kAxisOffset && ix < kAxisOffset);
  LOCPRIV_EXPECT(iy >= -kAxisOffset && iy < kAxisOffset);
  return (ix + kAxisOffset) * kAxisSpan + (iy + kAxisOffset);
}

std::int64_t pack_transition(RegionId from, RegionId to) {
  LOCPRIV_EXPECT(from >= 0 && from < (std::int64_t{1} << 31));
  LOCPRIV_EXPECT(to >= 0 && to < (std::int64_t{1} << 31));
  return (from << 31) | to;
}

void unpack_transition(std::int64_t key, RegionId& from, RegionId& to) {
  LOCPRIV_EXPECT(key >= 0);
  from = key >> 31;
  to = key & ((std::int64_t{1} << 31) - 1);
}

}  // namespace locpriv::privacy
