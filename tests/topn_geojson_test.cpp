#include <gtest/gtest.h>

#include "geo/geodesy.hpp"
#include "poi/geojson.hpp"
#include "privacy/topn.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

// ---------------------------------------------------------------- top-N --

privacy::PatternHistogram visits_histogram(
    std::initializer_list<std::pair<int, double>> items) {
  privacy::PatternHistogram histogram;
  for (const auto& [key, count] : items) histogram.add(key, count);
  return histogram;
}

TEST(TopRegions, RanksByCountWithDeterministicTies) {
  const auto histogram = visits_histogram({{5, 10.0}, {2, 30.0}, {9, 10.0}, {1, 1.0}});
  const auto top = privacy::top_regions(histogram, 3);
  // Counts: 2 (30), then 5 and 9 tie at 10 -> lower id first; sorted output.
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 2);
  EXPECT_EQ(top[1], 5);
  EXPECT_EQ(top[2], 9);
}

TEST(TopRegions, FewerKeysThanN) {
  const auto histogram = visits_histogram({{7, 3.0}});
  EXPECT_EQ(privacy::top_regions(histogram, 3).size(), 1u);
  EXPECT_THROW(privacy::top_regions(histogram, 0), util::ContractViolation);
}

std::vector<privacy::UserProfileHistograms> topn_profiles() {
  std::vector<privacy::UserProfileHistograms> profiles(3);
  profiles[0].user_id = "a";
  profiles[0].visits = visits_histogram({{1, 30.0}, {2, 20.0}, {3, 5.0}});
  profiles[1].user_id = "b";
  profiles[1].visits = visits_histogram({{1, 25.0}, {2, 18.0}, {4, 9.0}});
  profiles[2].user_id = "c";
  profiles[2].visits = visits_histogram({{7, 30.0}, {8, 20.0}, {9, 2.0}});
  return profiles;
}

TEST(TopNIdentifier, TopTwoCollidesTopThreeSeparates) {
  // Users a and b share top-2 {1,2} but differ at rank 3 — Zang & Bolot's
  // observation that the set shrinks sharply from N=2 to N=3.
  const privacy::TopNIdentifier top2(topn_profiles(), 2);
  const privacy::TopNIdentifier top3(topn_profiles(), 3);
  const auto observed = visits_histogram({{1, 6.0}, {2, 4.0}, {3, 1.0}});
  EXPECT_EQ(top2.matches(observed).size(), 2u);
  const auto matched3 = top3.matches(observed);
  ASSERT_EQ(matched3.size(), 1u);
  EXPECT_EQ(matched3[0], 0u);
  EXPECT_GT(top2.degree_of_anonymity(observed), 0.0);
  EXPECT_DOUBLE_EQ(top3.degree_of_anonymity(observed), 0.0);
}

TEST(TopNIdentifier, IncompleteObservationMatchesNothing) {
  const privacy::TopNIdentifier top3(topn_profiles(), 3);
  const auto observed = visits_histogram({{1, 6.0}});  // Only one region seen.
  EXPECT_TRUE(top3.matches(observed).empty());
  EXPECT_DOUBLE_EQ(top3.degree_of_anonymity(observed), 1.0);
}

TEST(TopNIdentifier, Preconditions) {
  EXPECT_THROW(privacy::TopNIdentifier({}, 3), util::ContractViolation);
  EXPECT_THROW(privacy::TopNIdentifier(topn_profiles(), 0), util::ContractViolation);
}

// -------------------------------------------------------------- GeoJSON --

trace::UserTrace small_trace() {
  trace::UserTrace user;
  user.user_id = "g";
  user.append({kAnchor, 100});
  user.append({geo::destination(kAnchor, 90.0, 100.0), 110});
  return user;
}

TEST(GeoJson, LineStringFeatureShape) {
  const auto user = small_trace();
  const std::string feature =
      poi::trajectory_to_geojson_feature(user.session(0));
  EXPECT_NE(feature.find("\"type\":\"LineString\""), std::string::npos);
  EXPECT_NE(feature.find("\"fixes\":2"), std::string::npos);
  EXPECT_NE(feature.find("\"start_s\":100"), std::string::npos);
  // Lon comes first in GeoJSON.
  EXPECT_NE(feature.find("[116.407400,39.904200]"), std::string::npos);
}

TEST(GeoJson, FeatureCollectionWithPois) {
  poi::Poi place;
  place.id = 3;
  place.centroid = kAnchor;
  place.visits.push_back({kAnchor, 0, 600, 10});
  const std::string doc = poi::to_geojson(small_trace(), {place});
  EXPECT_NE(doc.find("\"type\":\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"Point\""), std::string::npos);
  EXPECT_NE(doc.find("\"poi\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"visits\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"dwell_s\":600"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

TEST(GeoJson, EmptyTraceYieldsEmptyCollection) {
  trace::UserTrace user;
  user.user_id = "empty";
  EXPECT_EQ(poi::to_geojson(user), R"({"type":"FeatureCollection","features":[]})");
}

}  // namespace
}  // namespace locpriv
