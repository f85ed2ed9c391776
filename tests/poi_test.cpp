#include <gtest/gtest.h>

#include <cmath>

#include "geo/geodesy.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::poi {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

// Builds a synthetic fix stream: travel to a place, dwell, travel away.
// Returns the stream and (via out-params) the dwell bounds.
std::vector<trace::TracePoint> make_stay_trace(double dwell_minutes,
                                               double travel_speed_mps = 1.5,
                                               double noise_m = 0.0,
                                               std::uint64_t seed = 1) {
  stats::Rng rng(seed);
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  // Approach leg: 600 m walk toward the anchor from the west.
  for (double travelled = 0.0; travelled < 600.0; travelled += travel_speed_mps * 3) {
    geo::LatLon p = geo::destination(kAnchor, 270.0, 600.0 - travelled);
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  // Dwell at the anchor.
  const auto dwell_end = t + static_cast<std::int64_t>(dwell_minutes * 60.0);
  while (t < dwell_end) {
    geo::LatLon p = kAnchor;
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  // Departure leg: 600 m walk east.
  for (double travelled = 0.0; travelled < 600.0; travelled += travel_speed_mps * 3) {
    geo::LatLon p = geo::destination(kAnchor, 90.0, travelled);
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  return points;
}

TEST(StayPointExtraction, FindsSingleStay) {
  const auto points = make_stay_trace(/*dwell_minutes=*/20.0);
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 25.0);
  EXPECT_GE(stays[0].duration_s(), 18 * 60);
  EXPECT_LE(stays[0].duration_s(), 22 * 60);
}

TEST(StayPointExtraction, RobustToGpsNoise) {
  const auto points = make_stay_trace(20.0, 1.5, /*noise_m=*/5.0);
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 30.0);
}

TEST(StayPointExtraction, ShortStayBelowVisitingTimeIsDropped) {
  const auto points = make_stay_trace(/*dwell_minutes=*/5.0);
  EXPECT_TRUE(extract_stay_points(points, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, ContinuousMovementYieldsNoStay) {
  // A long steady drive: no stay should survive the visiting-time filter.
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  for (double travelled = 0.0; travelled < 20000.0; travelled += 9.0 * 3) {
    points.push_back({geo::destination(kAnchor, 45.0, travelled), t});
    t += 3;
  }
  EXPECT_TRUE(extract_stay_points(points, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, EmptyAndTinyInputs) {
  EXPECT_TRUE(extract_stay_points({}, ExtractionParams{}).empty());
  std::vector<trace::TracePoint> two{{kAnchor, 0}, {kAnchor, 10}};
  EXPECT_TRUE(extract_stay_points(two, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, StayOpenAtEndOfStreamIsClosed) {
  // Approach then dwell until the stream ends (no departure).
  auto points = make_stay_trace(20.0);
  // Chop off the departure leg: keep points within 60 m of the anchor tail.
  while (!points.empty() &&
         geo::haversine_m(points.back().position, kAnchor) > 60.0)
    points.pop_back();
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_GE(stays[0].duration_s(), 15 * 60);
}

TEST(StayPointExtraction, BackToBackStaysBothFound) {
  // Two dwells 700 m apart joined by a walk.
  auto points = make_stay_trace(15.0);
  const std::int64_t t0 = points.back().timestamp_s + 3;
  const geo::LatLon second = geo::destination(kAnchor, 90.0, 700.0);
  std::int64_t t = t0;
  for (double travelled = 600.0; travelled < 700.0; travelled += 4.5) {
    points.push_back({geo::destination(kAnchor, 90.0, travelled), t});
    t += 3;
  }
  const std::int64_t dwell_end = t + 15 * 60;
  while (t < dwell_end) {
    points.push_back({second, t});
    t += 3;
  }
  for (double travelled = 0.0; travelled < 400.0; travelled += 4.5) {
    points.push_back({geo::destination(second, 0.0, travelled), t});
    t += 3;
  }
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 2u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 30.0);
  EXPECT_LT(geo::haversine_m(stays[1].centroid, second), 30.0);
  EXPECT_LT(stays[0].exit_s, stays[1].enter_s);
}

TEST(StayPointExtraction, SparseDecimatedStayStillFound) {
  // Fixes every 240 s during a 4 h stay (heavy decimation): the 4-fix
  // window must still detect it.
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  // Two travel fixes far away (approaching).
  points.push_back({geo::destination(kAnchor, 270.0, 5000.0), t});
  t += 240;
  points.push_back({geo::destination(kAnchor, 270.0, 2500.0), t});
  t += 240;
  for (int i = 0; i < 60; ++i) {
    points.push_back({kAnchor, t});
    t += 240;
  }
  points.push_back({geo::destination(kAnchor, 90.0, 2500.0), t});
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_GT(stays[0].duration_s(), 3 * 3600);
}

TEST(StayPointExtraction, Preconditions) {
  std::vector<trace::TracePoint> points{{kAnchor, 0}};
  ExtractionParams params;
  params.radius_m = 0.0;
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params = {};
  params.min_visit_s = 0;
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params = {};
  params.window_fixes = 5;  // Odd.
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params.window_fixes = 2;  // Too small.
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
}

TEST(StayPointExtraction, Table3ParameterSets) {
  const auto sets = table3_parameter_sets();
  ASSERT_EQ(sets.size(), 6u);
  EXPECT_DOUBLE_EQ(sets[0].radius_m, 50.0);
  EXPECT_EQ(sets[0].min_visit_s, 600);
  EXPECT_EQ(sets[2].min_visit_s, 1800);
  EXPECT_DOUBLE_EQ(sets[3].radius_m, 100.0);
  EXPECT_EQ(sets[5].min_visit_s, 1800);
}

class VisitingTimeSweep : public ::testing::TestWithParam<int> {};

TEST_P(VisitingTimeSweep, LongerVisitingTimeNeverFindsMore) {
  // Property (paper Figure 2): the number of extracted stays is
  // non-increasing in the visiting-time threshold.
  const auto points = make_stay_trace(25.0, 1.5, 3.0, 7);
  ExtractionParams strict;
  strict.min_visit_s = GetParam() * 60;
  ExtractionParams loose;
  loose.min_visit_s = std::max<std::int64_t>(60, strict.min_visit_s / 2);
  EXPECT_LE(extract_stay_points(points, strict).size(),
            extract_stay_points(points, loose).size());
}

INSTANTIATE_TEST_SUITE_P(Minutes, VisitingTimeSweep, ::testing::Values(10, 20, 30, 60));

TEST(AnchorExtraction, AgreesOnCleanStay) {
  const auto points = make_stay_trace(20.0);
  const auto buffered = extract_stay_points(points, ExtractionParams{});
  const auto anchored = extract_stay_points_anchor(points, ExtractionParams{});
  ASSERT_EQ(buffered.size(), 1u);
  ASSERT_EQ(anchored.size(), 1u);
  EXPECT_LT(geo::haversine_m(buffered[0].centroid, anchored[0].centroid), 40.0);
}

TEST(AnchorExtraction, EmptyInput) {
  EXPECT_TRUE(extract_stay_points_anchor({}, ExtractionParams{}).empty());
}

TEST(Clustering, MergesNearbyStaysAcrossDays) {
  std::vector<StayPoint> stays;
  for (int day = 0; day < 3; ++day) {
    StayPoint stay;
    stay.centroid = geo::destination(kAnchor, 90.0, day * 10.0);  // Within 50 m.
    stay.enter_s = day * 86400;
    stay.exit_s = day * 86400 + 1200;
    stays.push_back(stay);
  }
  StayPoint far;
  far.centroid = geo::destination(kAnchor, 90.0, 900.0);
  far.enter_s = 3 * 86400;
  far.exit_s = 3 * 86400 + 1200;
  stays.push_back(far);

  const auto pois = cluster_stay_points(stays, 50.0);
  ASSERT_EQ(pois.size(), 2u);
  EXPECT_EQ(pois[0].visit_count(), 3u);
  EXPECT_EQ(pois[1].visit_count(), 1u);
  EXPECT_EQ(pois[0].id, 0);
  EXPECT_EQ(pois[1].id, 1);
}

TEST(Clustering, CentroidIsVisitWeightedMean) {
  std::vector<StayPoint> stays;
  StayPoint a;
  a.centroid = kAnchor;
  a.enter_s = 0;
  a.exit_s = 600;
  StayPoint b;
  b.centroid = geo::destination(kAnchor, 90.0, 30.0);
  b.enter_s = 1000;
  b.exit_s = 1600;
  stays = {a, b};
  const auto pois = cluster_stay_points(stays, 50.0);
  ASSERT_EQ(pois.size(), 1u);
  EXPECT_NEAR(geo::haversine_m(pois[0].centroid, kAnchor), 15.0, 1.0);
}

TEST(Clustering, StayJoinsNearestPoiInRange) {
  const auto stay_at = [](const geo::LatLon& centroid, std::int64_t enter_s) {
    StayPoint stay;
    stay.centroid = centroid;
    stay.enter_s = enter_s;
    stay.exit_s = enter_s + 600;
    return stay;
  };
  const auto east = [](double meters) { return geo::destination(kAnchor, 90.0, meters); };
  const auto entries = [](const Poi& poi) {
    std::vector<std::int64_t> out;
    for (const auto& visit : poi.visits) out.push_back(visit.enter_s);
    return out;
  };
  // Two stays 70 m apart found PoIs 0 and 1. A stay on the segment 30 m
  // from PoI 0 and 40 m from PoI 1 joins PoI 0, which moves to ~15 m. A
  // stay at 45 m (30 m from PoI 0, 25 m from PoI 1) joins PoI 1: the nearer
  // PoI wins, not the first in range. A stay at 130 m is beyond 50 m of both
  // and founds PoI 2.
  const auto pois = cluster_stay_points({stay_at(kAnchor, 0), stay_at(east(70.0), 1000),
                                         stay_at(east(30.0), 2000), stay_at(east(45.0), 3000),
                                         stay_at(east(130.0), 4000)},
                                        50.0);
  ASSERT_EQ(pois.size(), 3u);
  EXPECT_EQ(entries(pois[0]), (std::vector<std::int64_t>{0, 2000}));
  EXPECT_EQ(entries(pois[1]), (std::vector<std::int64_t>{1000, 3000}));
  EXPECT_EQ(entries(pois[2]), (std::vector<std::int64_t>{4000}));

  // Two stays 2^-12 degrees either side of latitude 40 on one meridian
  // (about 54 m apart) found PoIs 0 and 1. A stay at latitude 40 is exactly
  // as far from each, and the tie goes to the lower id.
  const double half_gap = std::ldexp(1.0, -12);
  const geo::LatLon north{40.0 + half_gap, 116.4};
  const geo::LatLon south{40.0 - half_gap, 116.4};
  const geo::LatLon middle{40.0, 116.4};
  EXPECT_EQ(geo::equirectangular_m(north, middle), geo::equirectangular_m(south, middle));
  const auto tied = cluster_stay_points(
      {stay_at(north, 0), stay_at(south, 1000), stay_at(middle, 2000)}, 50.0);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(entries(tied[0]), (std::vector<std::int64_t>{0, 2000}));
  EXPECT_EQ(entries(tied[1]), (std::vector<std::int64_t>{1000}));
}

TEST(Clustering, EmptyInputAndPreconditions) {
  EXPECT_TRUE(cluster_stay_points({}, 50.0).empty());
  EXPECT_THROW(cluster_stay_points({}, 0.0), util::ContractViolation);
}

TEST(SensitivePois, FiltersByVisitCount) {
  std::vector<StayPoint> stays;
  // Five visits to one place, one visit to another.
  for (int i = 0; i < 5; ++i) {
    StayPoint stay;
    stay.centroid = kAnchor;
    stay.enter_s = i * 10000;
    stay.exit_s = i * 10000 + 1200;
    stays.push_back(stay);
  }
  StayPoint rare;
  rare.centroid = geo::destination(kAnchor, 0.0, 1000.0);
  rare.enter_s = 90000;
  rare.exit_s = 91200;
  stays.push_back(rare);

  const auto pois = cluster_stay_points(stays, 50.0);
  const auto sensitive = sensitive_pois(pois, 3);
  ASSERT_EQ(sensitive.size(), 1u);
  EXPECT_EQ(sensitive[0].visit_count(), 1u);
  EXPECT_THROW(sensitive_pois(pois, 0), util::ContractViolation);
}

}  // namespace
}  // namespace locpriv::poi
