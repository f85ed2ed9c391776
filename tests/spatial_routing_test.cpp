// The three consumers routed through geo::GeoTree / geo::GeoCellIndex must
// stay *exactly* equivalent to their original linear scans — same counts,
// same indices, bitwise-same centroids — because the paper-reproduction
// metrics are asserted byte-identical across PRs. Each suite here pits the
// indexed path against its retained scan twin on randomized inputs, plus
// the locate() boundary regression for the timeline estimator.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "geo/latlon.hpp"
#include "poi/clustering.hpp"
#include "privacy/metrics.hpp"
#include "privacy/reconstruction.hpp"
#include "privacy/region.hpp"
#include "stats/rng.hpp"
#include "trace/trajectory.hpp"

namespace locpriv {
namespace {

// A wandering time-ordered fix stream around the Beijing anchor.
std::vector<trace::TracePoint> make_fixes(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<trace::TracePoint> fixes(n);
  geo::LatLon at{39.9, 116.4};
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at.lat_deg = std::clamp(at.lat_deg + rng.uniform(-2e-3, 2e-3), 39.8, 40.0);
    at.lon_deg = std::clamp(at.lon_deg + rng.uniform(-2e-3, 2e-3), 116.3, 116.5);
    fixes[i] = {at, t};
    t += rng.uniform_int(1, 120);
  }
  return fixes;
}

// Stays jittered around a handful of places, chronological.
std::vector<poi::StayPoint> make_stays(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<geo::LatLon> places;
  for (int p = 0; p < 12; ++p)
    places.push_back({39.9 + rng.uniform(-0.05, 0.05), 116.4 + rng.uniform(-0.05, 0.05)});
  std::vector<poi::StayPoint> stays(n);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::LatLon& place = places[rng.next_below(places.size())];
    stays[i].centroid = {place.lat_deg + rng.uniform(-3e-4, 3e-4),
                        place.lon_deg + rng.uniform(-3e-4, 3e-4)};
    stays[i].enter_s = t;
    stays[i].exit_s = t + 700;
    stays[i].fix_count = 5;
    t += 1000;
  }
  return stays;
}

TEST(Locate, BeforeFirstBetweenAndAfterLast) {
  const std::vector<trace::TracePoint> fixes = {
      {{39.90, 116.40}, 100}, {{39.91, 116.41}, 200}, {{39.92, 116.42}, 300}};
  const privacy::PositionEstimator estimator(fixes);
  // Before the first fix the adversary has no earlier evidence: index 0.
  EXPECT_EQ(estimator.locate(50), 0u);
  EXPECT_EQ(estimator.estimate(50).lat_deg, 39.90);
  // Exactly at a fix resolves to that fix.
  EXPECT_EQ(estimator.locate(100), 0u);
  EXPECT_EQ(estimator.locate(200), 1u);
  // Between fixes: the last one at or before t.
  EXPECT_EQ(estimator.locate(150), 0u);
  EXPECT_EQ(estimator.locate(250), 1u);
  EXPECT_EQ(estimator.locate(299), 1u);
  // At and after the last fix it carries forward.
  EXPECT_EQ(estimator.locate(300), 2u);
  EXPECT_EQ(estimator.locate(100000), 2u);
  EXPECT_EQ(estimator.estimate(100000).lon_deg, 116.42);
}

TEST(Locate, DuplicateTimestampsResolveToLastOfRun) {
  const std::vector<trace::TracePoint> fixes = {
      {{1.0, 1.0}, 10}, {{2.0, 2.0}, 20}, {{3.0, 3.0}, 20}, {{4.0, 4.0}, 30}};
  const privacy::PositionEstimator estimator(fixes);
  EXPECT_EQ(estimator.locate(20), 2u);
  EXPECT_EQ(estimator.locate(25), 2u);
}

TEST(SpatialRouting, FixesNearMatchesScanTwin) {
  const auto fixes = make_fixes(800, 41);
  const privacy::PositionEstimator estimator(fixes);
  stats::Rng rng(42);
  for (int q = 0; q < 40; ++q) {
    const geo::LatLon center{39.8 + rng.uniform(0.0, 0.2), 116.3 + rng.uniform(0.0, 0.2)};
    const double radius_m = rng.uniform(50.0, 5000.0);
    EXPECT_EQ(estimator.fixes_near(center, radius_m),
              estimator.fixes_near_scan(center, radius_m))
        << "radius=" << radius_m;
  }
}

TEST(SpatialRouting, ClusteringMatchesScanTwinBitwise) {
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    const auto stays = make_stays(600, seed);
    const auto indexed = poi::cluster_stay_points(stays, 120.0);
    const auto scanned = poi::cluster_stay_points_scan(stays, 120.0);
    ASSERT_EQ(indexed.size(), scanned.size()) << "seed " << seed;
    for (std::size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i].id, scanned[i].id);
      // Bitwise equality: the refine visits candidates in the same order as
      // the scan, so the running-mean centroids accumulate identically.
      EXPECT_EQ(indexed[i].centroid.lat_deg, scanned[i].centroid.lat_deg);
      EXPECT_EQ(indexed[i].centroid.lon_deg, scanned[i].centroid.lon_deg);
      ASSERT_EQ(indexed[i].visits.size(), scanned[i].visits.size());
      for (std::size_t v = 0; v < indexed[i].visits.size(); ++v)
        EXPECT_EQ(indexed[i].visits[v].enter_s, scanned[i].visits[v].enter_s);
    }
  }
}

TEST(SpatialRouting, PoiRecoveryMatchesScanTwin) {
  const auto reference = poi::cluster_stay_points(make_stays(400, 61), 120.0);
  // The collected set comes from a different seed, so matches are partial.
  const auto collected = poi::cluster_stay_points(make_stays(150, 62), 120.0);
  for (const double radius_m : {25.0, 100.0, 400.0, 2000.0}) {
    const auto indexed = privacy::poi_recovery(reference, collected, radius_m);
    const auto scanned = privacy::poi_recovery_scan(reference, collected, radius_m);
    EXPECT_EQ(indexed.reference_count, scanned.reference_count);
    EXPECT_EQ(indexed.recovered_count, scanned.recovered_count) << "r=" << radius_m;
  }
}

TEST(SpatialRouting, RegionContainmentMatchesScanTwin) {
  stats::Rng rng(71);
  std::vector<geo::LatLon> points;
  for (int i = 0; i < 700; ++i)
    points.push_back({39.9 + rng.uniform(-0.04, 0.04), 116.4 + rng.uniform(-0.04, 0.04)});
  const geo::GeoTree tree(points);
  const privacy::RegionGrid grid({39.9, 116.4}, 250.0);
  std::size_t covered = 0;
  for (const auto& p : points) {
    const privacy::RegionId id = grid.region_of(p);
    const auto indexed = grid.points_in_region(tree, id);
    EXPECT_EQ(indexed, grid.points_in_region_scan(points, id));
    covered += indexed.size();
  }
  // Every probed region contains at least its own probe point.
  EXPECT_GE(covered, points.size());
}

}  // namespace
}  // namespace locpriv
