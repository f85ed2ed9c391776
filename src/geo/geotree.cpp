#include "geo/geotree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::geo {

namespace {

// Interleaves the low 32 bits of v so bit i lands at bit 2i.
inline std::uint64_t spread_bits(std::uint64_t v) {
  v &= 0x00000000FFFFFFFFull;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v << 2)) & 0x3333333333333333ull;
  v = (v | (v << 1)) & 0x5555555555555555ull;
  return v;
}

// Inverse of spread_bits: gathers the even bits of v into the low 32 bits.
inline std::uint64_t compact_bits(std::uint64_t v) {
  v &= 0x5555555555555555ull;
  v = (v | (v >> 1)) & 0x3333333333333333ull;
  v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v >> 4)) & 0x00FF00FF00FF00FFull;
  v = (v | (v >> 8)) & 0x0000FFFF0000FFFFull;
  v = (v | (v >> 16)) & 0x00000000FFFFFFFFull;
  return v;
}

// Cell index of a coordinate along one axis at `level`, clamped to the valid
// range so the axis maxima (lat 90, lon 180) land in the last cell.
inline std::uint64_t axis_cell(double value_deg, double origin_deg, double span_deg,
                               int level) {
  const double t = (value_deg - origin_deg) / span_deg;
  double cell = std::floor(t * static_cast<double>(1ull << level));
  const double max_cell = static_cast<double>((1ull << level) - 1);
  if (cell < 0.0) cell = 0.0;
  if (cell > max_cell) cell = max_cell;
  return static_cast<std::uint64_t>(cell);
}

// Largest level whose cell is still at least `span_deg` wide along an axis of
// total extent `axis_deg` — so an interval of that span covers <= 2 cells.
inline int level_for_span(double span_deg, double axis_deg) {
  if (!(span_deg > 0.0)) return kGeohashMaxLevel;
  int level = 0;
  double cell_deg = axis_deg;
  while (level < kGeohashMaxLevel && cell_deg * 0.5 >= span_deg) {
    cell_deg *= 0.5;
    ++level;
  }
  return level;
}

// Relative margin applied to disc bounding boxes. The boxes below are exact
// mathematical supersets of the metric disc; the margin only has to absorb
// floating-point rounding (~1e-16 relative), and candidates are refined with
// exact distances afterwards, so over-covering is always safe.
constexpr double kBoxSlack = 1.0 + 1e-9;

struct DiscBox {
  double lat_lo_deg = 0.0;
  double lat_hi_deg = 0.0;
  // For haversine the lon interval may extend past ±180 (antimeridian wrap);
  // for equirectangular it never wraps (the metric's raw lon delta doesn't).
  double lon_lo_deg = 0.0;
  double lon_hi_deg = 0.0;
  bool full_lon = false;
};

// Bounding box of the haversine disc: latitude swings the angular radius;
// longitude follows the tangent-meridian bound asin(sin(r/R) / cos(lat0)),
// degenerating to the full band when the disc reaches a pole.
DiscBox haversine_box(const LatLon& center, double radius_m) {
  DiscBox box;
  const double ang = radius_m / kEarthRadiusMeters * kBoxSlack + 1e-12;
  const double dlat_deg = rad_to_deg(ang);
  box.lat_lo_deg = center.lat_deg - dlat_deg;
  box.lat_hi_deg = center.lat_deg + dlat_deg;
  const double cos_lat0 = std::cos(deg_to_rad(center.lat_deg));
  const double sin_ang = std::sin(std::min(ang, std::numbers::pi / 2.0));
  if (box.lat_lo_deg <= -90.0 || box.lat_hi_deg >= 90.0 || sin_ang >= cos_lat0) {
    box.full_lon = true;
    return box;
  }
  const double dlon_deg = rad_to_deg(std::asin(sin_ang / cos_lat0)) * kBoxSlack;
  box.lon_lo_deg = center.lon_deg - dlon_deg;
  box.lon_hi_deg = center.lon_deg + dlon_deg;
  return box;
}

// Bounding box of the equirectangular disc. d >= R*|dlat|, so latitude gets
// the same swing; |dlon| <= (r/R) / cos(mean_lat), bounded over the band of
// mean latitudes the lat interval allows.
DiscBox equirectangular_box(const LatLon& center, double radius_m) {
  DiscBox box;
  const double ang = radius_m / kEarthRadiusMeters * kBoxSlack + 1e-12;
  const double dlat_deg = rad_to_deg(ang);
  box.lat_lo_deg = center.lat_deg - dlat_deg;
  box.lat_hi_deg = center.lat_deg + dlat_deg;
  const double band_lo =
      (center.lat_deg + std::max(-90.0, box.lat_lo_deg)) / 2.0;
  const double band_hi = (center.lat_deg + std::min(90.0, box.lat_hi_deg)) / 2.0;
  const double cos_min = std::min(std::cos(deg_to_rad(band_lo)),
                                  std::cos(deg_to_rad(band_hi)));
  if (cos_min <= 1e-9) {
    box.full_lon = true;
    return box;
  }
  const double dlon_deg = rad_to_deg(ang / cos_min) * kBoxSlack;
  box.lon_lo_deg = std::max(-180.0, center.lon_deg - dlon_deg);
  box.lon_hi_deg = std::min(180.0, center.lon_deg + dlon_deg);
  if (box.lon_hi_deg - box.lon_lo_deg >= 360.0) box.full_lon = true;
  return box;
}

DiscBox disc_box(const LatLon& center, double radius_m, GeoTree::Metric metric) {
  return metric == GeoTree::Metric::kHaversine ? haversine_box(center, radius_m)
                                               : equirectangular_box(center, radius_m);
}

}  // namespace

std::uint64_t geohash_encode(const LatLon& p) {
  const std::uint64_t lat_bits = axis_cell(p.lat_deg, -90.0, 180.0, kGeohashMaxLevel);
  const std::uint64_t lon_bits = axis_cell(p.lon_deg, -180.0, 360.0, kGeohashMaxLevel);
  return spread_bits(lat_bits) | (spread_bits(lon_bits) << 1);
}

std::uint64_t geohash_prefix(std::uint64_t code, int level) {
  LOCPRIV_EXPECT(level >= 0 && level <= kGeohashMaxLevel);
  return code >> (2 * (kGeohashMaxLevel - level));
}

std::uint64_t geohash_cell(std::uint64_t lat_bits, std::uint64_t lon_bits, int level) {
  LOCPRIV_EXPECT(level >= 0 && level <= kGeohashMaxLevel);
  LOCPRIV_EXPECT(lat_bits < (1ull << level) && lon_bits < (1ull << level));
  return spread_bits(lat_bits) | (spread_bits(lon_bits) << 1);
}

LatLon geohash_cell_center(std::uint64_t prefix, int level) {
  LOCPRIV_EXPECT(level >= 0 && level <= kGeohashMaxLevel);
  const double cells = static_cast<double>(1ull << level);
  const double lat_bits = static_cast<double>(compact_bits(prefix));
  const double lon_bits = static_cast<double>(compact_bits(prefix >> 1));
  return {-90.0 + (lat_bits + 0.5) * 180.0 / cells,
          -180.0 + (lon_bits + 0.5) * 360.0 / cells};
}

GeoTree::GeoTree(std::vector<LatLon> points) : points_(std::move(points)) {
  LOCPRIV_EXPECT(points_.size() < std::numeric_limits<std::uint32_t>::max());
  const std::size_t n = points_.size();
  std::vector<std::uint64_t> full(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = geohash_encode(points_[i]);
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [&full](std::uint32_t a, std::uint32_t b) {
    return full[a] != full[b] ? full[a] < full[b] : a < b;
  });
  codes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) codes_[i] = full[order_[i]];
}

std::pair<std::size_t, std::size_t> GeoTree::cell_range(std::uint64_t prefix,
                                                        int level) const {
  LOCPRIV_EXPECT(level >= 0 && level <= kGeohashMaxLevel);
  const int shift = 2 * (kGeohashMaxLevel - level);
  const std::uint64_t lo_code = prefix << shift;
  const std::uint64_t hi_code = (prefix + 1) << shift;
  const auto lo = std::lower_bound(codes_.begin(), codes_.end(), lo_code);
  const auto hi = std::lower_bound(lo, codes_.end(), hi_code);
  return {static_cast<std::size_t>(lo - codes_.begin()),
          static_cast<std::size_t>(hi - codes_.begin())};
}

void GeoTree::collect_cells(std::uint64_t lat_lo, std::uint64_t lat_hi,
                            std::uint64_t lon_lo, std::uint64_t lon_hi, int level,
                            std::vector<std::pair<std::size_t, std::size_t>>& ranges) const {
  for (std::uint64_t lat = lat_lo; lat <= lat_hi; ++lat) {
    for (std::uint64_t lon = lon_lo; lon <= lon_hi; ++lon) {
      const auto range = cell_range(geohash_cell(lat, lon, level), level);
      if (range.first < range.second) ranges.push_back(range);
    }
  }
}

std::vector<std::pair<std::size_t, std::size_t>> GeoTree::cover_disc(
    const LatLon& center, double radius_m, Metric metric) const {
  const DiscBox box = disc_box(center, radius_m, metric);
  const double lat_span = box.lat_hi_deg - box.lat_lo_deg;
  const double lon_span = box.full_lon ? 360.0 : box.lon_hi_deg - box.lon_lo_deg;
  const int level =
      std::min(level_for_span(lat_span, 180.0), level_for_span(lon_span, 360.0));
  const std::uint64_t max_cell = (1ull << level) - 1;
  const std::uint64_t lat_lo = axis_cell(box.lat_lo_deg, -90.0, 180.0, level);
  const std::uint64_t lat_hi = axis_cell(box.lat_hi_deg, -90.0, 180.0, level);

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (box.full_lon || box.lon_hi_deg - box.lon_lo_deg >= 360.0) {
    collect_cells(lat_lo, lat_hi, 0, max_cell, level, ranges);
    return ranges;
  }
  // Split an interval that crosses the antimeridian into its two wrapped
  // halves (at most one side can stick out, since the width is < 360). At
  // coarse levels the halves can land in overlapping cell ranges; when they
  // touch, sweep the whole longitude axis once instead of double-counting.
  std::uint64_t lon_cell_lo;
  std::uint64_t lon_cell_hi;
  if (box.lon_lo_deg < -180.0) {
    const std::uint64_t wrap_lo =
        axis_cell(box.lon_lo_deg + 360.0, -180.0, 360.0, level);
    const std::uint64_t main_hi = axis_cell(box.lon_hi_deg, -180.0, 360.0, level);
    if (wrap_lo <= main_hi) {
      collect_cells(lat_lo, lat_hi, 0, max_cell, level, ranges);
      return ranges;
    }
    collect_cells(lat_lo, lat_hi, wrap_lo, max_cell, level, ranges);
    lon_cell_lo = 0;
    lon_cell_hi = main_hi;
  } else if (box.lon_hi_deg > 180.0) {
    const std::uint64_t wrap_hi =
        axis_cell(box.lon_hi_deg - 360.0, -180.0, 360.0, level);
    const std::uint64_t main_lo = axis_cell(box.lon_lo_deg, -180.0, 360.0, level);
    if (wrap_hi >= main_lo) {
      collect_cells(lat_lo, lat_hi, 0, max_cell, level, ranges);
      return ranges;
    }
    collect_cells(lat_lo, lat_hi, 0, wrap_hi, level, ranges);
    lon_cell_lo = main_lo;
    lon_cell_hi = max_cell;
  } else {
    lon_cell_lo = axis_cell(box.lon_lo_deg, -180.0, 360.0, level);
    lon_cell_hi = axis_cell(box.lon_hi_deg, -180.0, 360.0, level);
  }
  collect_cells(lat_lo, lat_hi, lon_cell_lo, lon_cell_hi, level, ranges);
  return ranges;
}

std::vector<std::uint32_t> GeoTree::query_rect(double lat_lo_deg, double lat_hi_deg,
                                               double lon_lo_deg,
                                               double lon_hi_deg) const {
  LOCPRIV_EXPECT(lat_lo_deg <= lat_hi_deg && lon_lo_deg <= lon_hi_deg);
  std::vector<std::uint32_t> out;
  if (points_.empty()) return out;
  const int level = std::min(level_for_span(lat_hi_deg - lat_lo_deg, 180.0),
                             level_for_span(lon_hi_deg - lon_lo_deg, 360.0));
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  collect_cells(axis_cell(lat_lo_deg, -90.0, 180.0, level),
                axis_cell(lat_hi_deg, -90.0, 180.0, level),
                axis_cell(lon_lo_deg, -180.0, 360.0, level),
                axis_cell(lon_hi_deg, -180.0, 360.0, level), level, ranges);
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      const LatLon& p = points_[order_[pos]];
      if (p.lat_deg >= lat_lo_deg && p.lat_deg <= lat_hi_deg &&
          p.lon_deg >= lon_lo_deg && p.lon_deg <= lon_hi_deg) {
        out.push_back(order_[pos]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<GeoTree::Hit> GeoTree::query_radius(const LatLon& center, double radius_m,
                                                Metric metric) const {
  LOCPRIV_EXPECT(radius_m >= 0.0);
  std::vector<Hit> hits;
  if (points_.empty()) return hits;
  const auto ranges = cover_disc(center, radius_m, metric);
  std::vector<LatLon> candidates;
  std::vector<std::uint32_t> indices;
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      indices.push_back(order_[pos]);
      candidates.push_back(points_[order_[pos]]);
    }
  }
  std::vector<double> distances(candidates.size());
  if (metric == Metric::kHaversine) {
    haversine_from(center, candidates, distances);
  } else {
    equirectangular_from(center, candidates, distances);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (distances[i] <= radius_m) hits.push_back({indices[i], distances[i]});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                        : a.index < b.index;
  });
  return hits;
}

bool GeoTree::any_within(const LatLon& center, double radius_m, Metric metric) const {
  LOCPRIV_EXPECT(radius_m >= 0.0);
  if (points_.empty()) return false;
  const auto ranges = cover_disc(center, radius_m, metric);
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      const LatLon& p = points_[order_[pos]];
      const double d = metric == Metric::kHaversine ? haversine_m(center, p)
                                                    : equirectangular_m(center, p);
      if (d <= radius_m) return true;
    }
  }
  return false;
}

GeoCellIndex::GeoCellIndex(double cell_m) {
  LOCPRIV_EXPECT(cell_m > 0.0);
  // Largest level whose latitude cell height still covers cell_m.
  int level = 0;
  double height_m = std::numbers::pi * kEarthRadiusMeters;
  while (level < kGeohashMaxLevel && height_m * 0.5 >= cell_m) {
    height_m *= 0.5;
    ++level;
  }
  level_ = level;
}

void GeoCellIndex::insert(std::uint32_t id, const LatLon& p) {
  const std::uint64_t cell = geohash_prefix(geohash_encode(p), level_);
  LOCPRIV_EXPECT(cell_of_.emplace(id, cell).second);
  auto& ids = cells_[cell];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void GeoCellIndex::move(std::uint32_t id, const LatLon& p) {
  const auto it = cell_of_.find(id);
  LOCPRIV_EXPECT(it != cell_of_.end());
  const std::uint64_t cell = geohash_prefix(geohash_encode(p), level_);
  if (cell == it->second) return;
  auto& old_ids = cells_[it->second];
  old_ids.erase(std::lower_bound(old_ids.begin(), old_ids.end(), id));
  if (old_ids.empty()) cells_.erase(it->second);
  it->second = cell;
  auto& ids = cells_[cell];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void GeoCellIndex::candidates_within(const LatLon& center, double radius_m,
                                     std::vector<std::uint32_t>& out) const {
  LOCPRIV_EXPECT(radius_m >= 0.0);
  const std::size_t base = out.size();
  const DiscBox box = equirectangular_box(center, radius_m);
  const std::uint64_t max_cell = (1ull << level_) - 1;
  const std::uint64_t lat_lo = axis_cell(box.lat_lo_deg, -90.0, 180.0, level_);
  const std::uint64_t lat_hi = axis_cell(box.lat_hi_deg, -90.0, 180.0, level_);
  const std::uint64_t lon_lo =
      box.full_lon ? 0 : axis_cell(box.lon_lo_deg, -180.0, 360.0, level_);
  const std::uint64_t lon_hi =
      box.full_lon ? max_cell : axis_cell(box.lon_hi_deg, -180.0, 360.0, level_);
  // Near the poles the longitude margin can explode into thousands of cells;
  // cheaper there to hand back everything and let the caller's exact-distance
  // refine sort it out (still deterministic: ids are sorted below).
  constexpr std::uint64_t kMaxProbedCells = 4096;
  if ((lat_hi - lat_lo + 1) * (lon_hi - lon_lo + 1) > kMaxProbedCells) {
    for (const auto& [id, cell] : cell_of_) out.push_back(id);
  } else {
    for (std::uint64_t lat = lat_lo; lat <= lat_hi; ++lat) {
      for (std::uint64_t lon = lon_lo; lon <= lon_hi; ++lon) {
        const auto it = cells_.find(geohash_cell(lat, lon, level_));
        if (it == cells_.end()) continue;
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
}

}  // namespace locpriv::geo
