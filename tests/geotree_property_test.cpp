// GeoTree property test: every radius and any_within query over randomized
// corpora must agree exactly with a brute-force linear-scan oracle —
// including corpora hugging the antimeridian and the poles, where the disc
// cover's longitude wrap and full-band degeneration are easiest to get
// wrong. The suite runs >= 750 query/oracle comparisons per seed sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geo/geodesy.hpp"
#include "geo/geotree.hpp"
#include "geo/latlon.hpp"
#include "stats/rng.hpp"

namespace locpriv::geo {
namespace {

struct Corpus {
  const char* name;
  double lat_center;
  double lon_center;
  double lat_spread;
  double lon_spread;
};

// Mid-latitude city, antimeridian straddle, both pole caps, and a sparse
// worldwide scatter. Longitudes are wrapped into [-180, 180] so straddling
// corpora really produce points on both sides of the seam.
constexpr Corpus kCorpora[] = {
    {"city", 39.9, 116.4, 0.3, 0.3},
    {"antimeridian", -36.8, 180.0, 2.0, 1.5},
    {"north-pole", 89.2, 0.0, 0.9, 180.0},
    {"south-pole", -89.2, 90.0, 0.9, 180.0},
    {"global", 0.0, 0.0, 60.0, 170.0},
};

double wrap_lon(double lon_deg) {
  while (lon_deg > 180.0) lon_deg -= 360.0;
  while (lon_deg < -180.0) lon_deg += 360.0;
  return lon_deg;
}

std::vector<LatLon> make_points(const Corpus& corpus, std::size_t n, stats::Rng& rng) {
  std::vector<LatLon> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lat = std::clamp(
        corpus.lat_center + rng.uniform(-corpus.lat_spread, corpus.lat_spread), -90.0,
        90.0);
    const double lon =
        wrap_lon(corpus.lon_center + rng.uniform(-corpus.lon_spread, corpus.lon_spread));
    points.push_back({lat, lon});
    // A sprinkle of exact duplicates exercises the (distance, index) ties.
    if (i % 37 == 0 && !points.empty())
      points.push_back(points[rng.next_below(points.size())]);
  }
  return points;
}

// locpriv-lint note: the scans below are the oracle this test exists for.
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

class GeoTreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeoTreeSweep, RadiusAndKnnMatchOracleEverywhere) {
  stats::Rng rng(GetParam());
  std::size_t comparisons = 0;
  for (const Corpus& corpus : kCorpora) {
    const auto points = make_points(corpus, 400, rng);
    const GeoTree tree(points);
    ASSERT_EQ(tree.size(), points.size());
    for (int q = 0; q < 25; ++q) {
      // Queries both inside the corpus cloud and offset beyond its edge, so
      // empty results and boundary-straddling discs are both exercised.
      const LatLon center{
          std::clamp(corpus.lat_center +
                         rng.uniform(-1.5 * corpus.lat_spread, 1.5 * corpus.lat_spread),
                     -90.0, 90.0),
          wrap_lon(corpus.lon_center +
                   rng.uniform(-1.5 * corpus.lon_spread, 1.5 * corpus.lon_spread))};
      // Radii from sub-cell to corpus-spanning (log-uniform).
      const double radius_m = 50.0 * std::pow(10.0, rng.uniform(0.0, 4.0));
      for (auto metric :
           {GeoTree::Metric::kHaversine, GeoTree::Metric::kEquirectangular}) {
        const auto expected = oracle_radius(points, center, radius_m, metric);
        ASSERT_EQ(tree.query_radius(center, radius_m, metric), expected)
            << corpus.name << " radius=" << radius_m << " center=("
            << center.lat_deg << "," << center.lon_deg << ")";
        ASSERT_EQ(tree.any_within(center, radius_m, metric), !expected.empty())
            << corpus.name;
        ++comparisons;
      }
      // One more draw per query, part of each seed's fixed query sequence.
      rng.uniform_int(1, 50);
    }
  }
  // 5 corpora x 25 queries x 2 metrics = 250 comparisons per seed; the
  // 3-seed sweep gives 750 total.
  EXPECT_GE(comparisons, 250u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeoTreeSweep, ::testing::Values(11u, 12u, 13u));

}  // namespace
}  // namespace locpriv::geo
