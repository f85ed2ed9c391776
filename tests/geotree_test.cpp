#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geo/geodesy.hpp"
#include "geo/geotree.hpp"
#include "geo/latlon.hpp"
#include "stats/rng.hpp"

namespace locpriv::geo {
namespace {

const LatLon kBeijing{39.9042, 116.4074};

std::vector<LatLon> scatter(std::size_t n, const LatLon& center, double spread_deg,
                            std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<LatLon> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({center.lat_deg + rng.uniform(-spread_deg, spread_deg),
                      center.lon_deg + rng.uniform(-spread_deg, spread_deg)});
  }
  return points;
}

// locpriv-lint: allow(linear-spatial-scan) brute-force oracle for index tests
std::vector<GeoTree::Hit> oracle_radius(const std::vector<LatLon>& points,
                                        const LatLon& center, double radius_m,
                                        GeoTree::Metric metric) {
  std::vector<GeoTree::Hit> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = metric == GeoTree::Metric::kHaversine
                         ? haversine_m(center, points[i])
                         : equirectangular_m(center, points[i]);
    if (d <= radius_m) hits.push_back({static_cast<std::uint32_t>(i), d});
  }
  std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                        : a.index < b.index;
  });
  return hits;
}

TEST(GeohashEncoding, PrefixNestsAndCenterRoundTrips) {
  const std::uint64_t code = geohash_encode(kBeijing);
  for (int level = 0; level <= kGeohashMaxLevel; ++level) {
    const std::uint64_t prefix = geohash_prefix(code, level);
    EXPECT_LT(prefix, 1ull << (2 * level));
    // A cell's center must re-encode into the same cell.
    EXPECT_EQ(geohash_prefix(geohash_encode(geohash_cell_center(prefix, level)), level),
              prefix);
    // Child cells refine their parent.
    if (level > 0) {
      EXPECT_EQ(prefix >> 2, geohash_prefix(code, level - 1));
    }
  }
}

TEST(GeohashEncoding, AxisExtremesStayInRange) {
  for (const LatLon& p : {LatLon{90.0, 180.0}, LatLon{-90.0, -180.0}, LatLon{0.0, 0.0},
                          LatLon{89.9999, -180.0}, LatLon{-90.0, 179.9999}}) {
    const std::uint64_t code = geohash_encode(p);
    EXPECT_LT(code, 1ull << (2 * kGeohashMaxLevel));
    const LatLon center = geohash_cell_center(code, kGeohashMaxLevel);
    EXPECT_NEAR(center.lat_deg, p.lat_deg, 180.0 / (1 << 26) * 2);
    EXPECT_NEAR(center.lon_deg, p.lon_deg, 360.0 / (1 << 26) * 2);
  }
}

TEST(GeoTree, CellRangeCountsEveryPointExactlyOnce) {
  const auto points = scatter(500, kBeijing, 0.5, 41);
  const GeoTree tree(points);
  // Full sweeps at coarse levels: the cells partition the points.
  for (int level : {0, 3}) {
    std::size_t total = 0;
    for (std::uint64_t prefix = 0; prefix < (1ull << (2 * level)); ++prefix) {
      const auto [lo, hi] = tree.cell_range(prefix, level);
      total += hi - lo;
    }
    EXPECT_EQ(total, points.size()) << "level " << level;
  }
  // At a fine level, each point is inside the cell its own code names: the
  // cell's rectangle finds it and holds exactly the cell range's points.
  constexpr int kLevel = 14;
  const double lat_half = 90.0 / (1 << kLevel);
  const double lon_half = 180.0 / (1 << kLevel);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t prefix = geohash_prefix(geohash_encode(points[i]), kLevel);
    const LatLon center = geohash_cell_center(prefix, kLevel);
    const auto ids = tree.query_rect(center.lat_deg - lat_half, center.lat_deg + lat_half,
                                     center.lon_deg - lon_half, center.lon_deg + lon_half);
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), i));
    const auto [lo, hi] = tree.cell_range(prefix, kLevel);
    EXPECT_EQ(ids.size(), hi - lo);
  }
}

TEST(GeoTree, RadiusQueryMatchesOracleBothMetrics) {
  const auto points = scatter(800, kBeijing, 0.3, 42);
  const GeoTree tree(points);
  stats::Rng rng(43);
  for (int q = 0; q < 50; ++q) {
    const LatLon center{kBeijing.lat_deg + rng.uniform(-0.3, 0.3),
                        kBeijing.lon_deg + rng.uniform(-0.3, 0.3)};
    const double radius = rng.uniform(50.0, 20000.0);
    for (auto metric : {GeoTree::Metric::kHaversine, GeoTree::Metric::kEquirectangular}) {
      EXPECT_EQ(tree.query_radius(center, radius, metric),
                oracle_radius(points, center, radius, metric));
    }
  }
}

TEST(GeoTree, AnyWithinAgreesWithRadiusQuery) {
  const auto points = scatter(200, kBeijing, 0.1, 44);
  const GeoTree tree(points);
  stats::Rng rng(45);
  for (int q = 0; q < 50; ++q) {
    const LatLon center{kBeijing.lat_deg + rng.uniform(-0.12, 0.12),
                        kBeijing.lon_deg + rng.uniform(-0.12, 0.12)};
    const double radius = rng.uniform(10.0, 5000.0);
    for (auto metric : {GeoTree::Metric::kHaversine, GeoTree::Metric::kEquirectangular}) {
      EXPECT_EQ(tree.any_within(center, radius, metric),
                !tree.query_radius(center, radius, metric).empty());
    }
  }
}

TEST(GeoTree, DeterministicAcrossRebuilds) {
  const auto points = scatter(300, kBeijing, 0.2, 48);
  const GeoTree a(points);
  const GeoTree b(points);
  const auto hits_a = a.query_radius(kBeijing, 15000.0);
  EXPECT_EQ(hits_a, b.query_radius(kBeijing, 15000.0));
  // Duplicate coordinates tie-break by ascending original index.
  std::vector<LatLon> dupes(8, kBeijing);
  const GeoTree d(dupes);
  const auto hits = d.query_radius(kBeijing, 1.0);
  ASSERT_EQ(hits.size(), dupes.size());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].index, i);
}

TEST(GeoCellIndex, CandidatesAreSortedSupersetAndTrackMoves) {
  stats::Rng rng(52);
  std::vector<LatLon> positions;
  GeoCellIndex index(500.0);
  for (std::uint32_t id = 0; id < 300; ++id) {
    positions.push_back({kBeijing.lat_deg + rng.uniform(-0.05, 0.05),
                         kBeijing.lon_deg + rng.uniform(-0.05, 0.05)});
    index.insert(id, positions.back());
  }
  // Move a third of the points somewhere else.
  for (std::uint32_t id = 0; id < 300; id += 3) {
    positions[id] = {kBeijing.lat_deg + rng.uniform(-0.05, 0.05),
                     kBeijing.lon_deg + rng.uniform(-0.05, 0.05)};
    index.move(id, positions[id]);
  }
  for (int q = 0; q < 30; ++q) {
    const LatLon center{kBeijing.lat_deg + rng.uniform(-0.05, 0.05),
                        kBeijing.lon_deg + rng.uniform(-0.05, 0.05)};
    const double radius = rng.uniform(100.0, 2000.0);
    std::vector<std::uint32_t> candidates;
    index.candidates_within(center, radius, candidates);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end());
    for (std::uint32_t id = 0; id < 300; ++id) {
      if (equirectangular_m(center, positions[id]) <= radius) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id))
            << "id " << id << " within " << radius << " m but not a candidate";
      }
    }
  }
}

TEST(Geodesy, BatchedDistancesBitIdenticalToScalar) {
  const auto points = scatter(256, kBeijing, 1.5, 53);
  std::vector<double> batched(points.size());
  haversine_from(kBeijing, points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], haversine_m(kBeijing, points[i])) << i;
  }
  equirectangular_from(kBeijing, points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], equirectangular_m(kBeijing, points[i])) << i;
  }
}

}  // namespace
}  // namespace locpriv::geo
