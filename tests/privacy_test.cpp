#include <gtest/gtest.h>

#include "geo/geodesy.hpp"
#include "privacy/adversary.hpp"
#include "stats/entropy.hpp"
#include "privacy/detection.hpp"
#include "privacy/matching.hpp"
#include "privacy/metrics.hpp"
#include "privacy/pattern_histogram.hpp"
#include "privacy/region.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

poi::Poi make_poi(int id, const geo::LatLon& where,
                  std::initializer_list<std::int64_t> enter_times,
                  std::int64_t dwell_s = 1200) {
  poi::Poi poi;
  poi.id = id;
  poi.centroid = where;
  for (const std::int64_t t : enter_times)
    poi.visits.push_back({where, t, t + dwell_s, 10});
  return poi;
}

TEST(RegionGrid, SameCellForNearbyPoints) {
  const RegionGrid grid(kAnchor, 250.0);
  const geo::LatLon a = kAnchor;
  const geo::LatLon b = geo::destination(kAnchor, 45.0, 20.0);
  EXPECT_EQ(grid.region_of(a), grid.region_of(b));
}

TEST(RegionGrid, DistinctCellsForDistantPoints) {
  const RegionGrid grid(kAnchor, 250.0);
  EXPECT_NE(grid.region_of(kAnchor),
            grid.region_of(geo::destination(kAnchor, 90.0, 600.0)));
}

TEST(RegionGrid, Preconditions) {
  EXPECT_THROW(RegionGrid(kAnchor, 0.0), util::ContractViolation);
}

TEST(PackTransition, RoundTrip) {
  const RegionId a = 123456;
  const RegionId b = 654321;
  RegionId from = 0;
  RegionId to = 0;
  unpack_transition(pack_transition(a, b), from, to);
  EXPECT_EQ(from, a);
  EXPECT_EQ(to, b);
  EXPECT_NE(pack_transition(a, b), pack_transition(b, a));  // Ordered pairs.
}

TEST(PatternHistogram, AddAndQuery) {
  PatternHistogram histogram;
  EXPECT_TRUE(histogram.empty());
  histogram.add(5);
  histogram.add(5, 2.0);
  histogram.add(9);
  EXPECT_EQ(histogram.key_count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.count(5), 3.0);
  EXPECT_DOUBLE_EQ(histogram.count(404), 0.0);
  EXPECT_DOUBLE_EQ(histogram.total(), 4.0);
  EXPECT_THROW(histogram.add(1, 0.0), util::ContractViolation);
}

TEST(PatternHistogram, VisitHistogramCountsVisitsPerRegion) {
  const RegionGrid grid(kAnchor, 250.0);
  const geo::LatLon work = geo::destination(kAnchor, 90.0, 2000.0);
  const std::vector<poi::Poi> pois{make_poi(0, kAnchor, {0, 40000, 90000}),
                                   make_poi(1, work, {15000, 60000})};
  const PatternHistogram histogram = visit_histogram(pois, grid);
  EXPECT_EQ(histogram.key_count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.count(grid.region_of(kAnchor)), 3.0);
  EXPECT_DOUBLE_EQ(histogram.count(grid.region_of(work)), 2.0);
}

TEST(PatternHistogram, MovementHistogramCountsTransitions) {
  const RegionGrid grid(kAnchor, 250.0);
  const geo::LatLon work = geo::destination(kAnchor, 90.0, 2000.0);
  // Visits: home(0) work(15000) home(40000) work(60000) home(90000):
  // transitions h->w x2, w->h x2.
  const std::vector<poi::Poi> pois{make_poi(0, kAnchor, {0, 40000, 90000}),
                                   make_poi(1, work, {15000, 60000})};
  const PatternHistogram histogram = movement_histogram(pois, grid);
  const RegionId home_region = grid.region_of(kAnchor);
  const RegionId work_region = grid.region_of(work);
  EXPECT_EQ(histogram.key_count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.count(pack_transition(home_region, work_region)), 2.0);
  EXPECT_DOUBLE_EQ(histogram.count(pack_transition(work_region, home_region)), 2.0);
}

TEST(PatternHistogram, RegionSequenceCollapsesSamePlaceRevisits) {
  const RegionGrid grid(kAnchor, 250.0);
  // Two PoIs that fall in the same region: consecutive visits collapse.
  const geo::LatLon near = geo::destination(kAnchor, 0.0, 30.0);
  const std::vector<poi::Poi> pois{make_poi(0, kAnchor, {0, 50000}),
                                   make_poi(1, near, {20000})};
  const auto sequence = region_sequence(pois, grid);
  ASSERT_EQ(sequence.size(), 1u);  // All three visits in one region.
}

TEST(PatternHistogram, BuildHistogramDispatches) {
  const RegionGrid grid(kAnchor, 250.0);
  const std::vector<poi::Poi> pois{make_poi(0, kAnchor, {0, 10000})};
  EXPECT_EQ(build_histogram(Pattern::kVisits, pois, grid).total(), 2.0);
  EXPECT_TRUE(build_histogram(Pattern::kMovements, pois, grid).empty());
}

PatternHistogram histogram_from(std::initializer_list<std::pair<int, double>> items) {
  PatternHistogram histogram;
  for (const auto& [key, count] : items) histogram.add(key, count);
  return histogram;
}

TEST(Matching, IdenticalHistogramsMatch) {
  const auto profile = histogram_from({{1, 10.0}, {2, 20.0}, {3, 5.0}});
  const auto result = match_histograms(profile, profile, MatchParams{});
  ASSERT_TRUE(result.attempted);
  EXPECT_TRUE(result.matches);
  EXPECT_NEAR(result.chi.statistic, 0.0, 1e-12);
}

TEST(Matching, ProportionalSubsampleMatches) {
  const auto profile = histogram_from({{1, 40.0}, {2, 20.0}, {3, 10.0}});
  const auto observed = histogram_from({{1, 8.0}, {2, 4.0}, {3, 2.0}});
  const auto result = match_histograms(observed, profile, MatchParams{});
  ASSERT_TRUE(result.attempted);
  EXPECT_TRUE(result.matches);
}

TEST(Matching, GrosslyDifferentProportionsRejected) {
  const auto profile = histogram_from({{1, 10.0}, {2, 10.0}, {3, 10.0}});
  const auto observed = histogram_from({{1, 60.0}, {2, 1.0}, {3, 1.0}});
  const auto result = match_histograms(observed, profile, MatchParams{});
  ASSERT_TRUE(result.attempted);
  EXPECT_FALSE(result.matches);
}

TEST(Matching, BelowMinObservedTotalNotAttempted) {
  const auto profile = histogram_from({{1, 10.0}, {2, 10.0}});
  const auto observed = histogram_from({{1, 2.0}, {2, 2.0}});  // Total 4 < 5.
  const auto result = match_histograms(observed, profile, MatchParams{});
  EXPECT_FALSE(result.attempted);
  EXPECT_FALSE(result.matches);
}

TEST(Matching, DisjointKeySpacesNeverMatch) {
  const auto profile = histogram_from({{1, 10.0}, {2, 10.0}});
  const auto observed = histogram_from({{8, 10.0}, {9, 10.0}});
  const auto result = match_histograms(observed, profile, MatchParams{});
  EXPECT_FALSE(result.attempted);
  EXPECT_FALSE(result.matches);
}

TEST(Matching, PseudoCountPenalisesUnexpectedKeys) {
  const auto profile = histogram_from({{1, 30.0}, {2, 30.0}});
  // Half the observed mass in a region the profile has never seen.
  const auto observed = histogram_from({{1, 10.0}, {2, 10.0}, {99, 20.0}});
  MatchParams with_smoothing;
  with_smoothing.unseen_key_pseudo_count = 0.5;
  const auto smoothed = match_histograms(observed, profile, with_smoothing);
  ASSERT_TRUE(smoothed.attempted);
  EXPECT_FALSE(smoothed.matches);
  // Without smoothing (paper default), the unknown key is ignored and the
  // known keys still fit.
  const auto unsmoothed = match_histograms(observed, profile, MatchParams{});
  ASSERT_TRUE(unsmoothed.attempted);
  EXPECT_TRUE(unsmoothed.matches);
}

TEST(Matching, LowerTailVariantIsDegenerateOnScarceData) {
  // The paper-literal lower-tail reading fires as soon as the statistic is
  // away from zero — documenting the degeneracy motivates the default.
  const auto profile = histogram_from({{1, 30.0}, {2, 30.0}, {3, 30.0}});
  const auto observed = histogram_from({{1, 5.0}, {2, 1.0}, {3, 0.5}});
  MatchParams lower;
  lower.tail = stats::ChiSquareTail::kLower;
  const auto result = match_histograms(observed, profile, lower);
  ASSERT_TRUE(result.attempted);
  EXPECT_TRUE(result.matches);  // Statistic >> 0 => lower-tail p ~ 1 => "match".
}

TEST(Matching, EmptyProfileNotAttempted) {
  const auto observed = histogram_from({{1, 10.0}, {2, 10.0}});
  EXPECT_FALSE(match_histograms(observed, PatternHistogram{}, MatchParams{}).attempted);
}

std::vector<UserProfileHistograms> three_profiles() {
  std::vector<UserProfileHistograms> profiles(3);
  profiles[0].user_id = "a";
  profiles[0].visits = histogram_from({{1, 30.0}, {2, 15.0}, {3, 5.0}});
  profiles[0].movements = histogram_from({{101, 20.0}, {102, 10.0}});
  profiles[1].user_id = "b";
  profiles[1].visits = histogram_from({{1, 5.0}, {2, 30.0}, {4, 15.0}});
  profiles[1].movements = histogram_from({{201, 20.0}, {202, 10.0}});
  profiles[2].user_id = "c";
  profiles[2].visits = histogram_from({{7, 30.0}, {8, 20.0}});
  profiles[2].movements = histogram_from({{301, 25.0}, {302, 5.0}});
  return profiles;
}

TEST(Adversary, UniqueMatchIdentifies) {
  const Adversary adversary(three_profiles());
  // Proportional to profile a's visits only.
  const auto observed = histogram_from({{1, 12.0}, {2, 6.0}, {3, 2.0}});
  const auto result = adversary.identify(observed, Pattern::kVisits, MatchParams{});
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], 0u);
  EXPECT_DOUBLE_EQ(result.degree_of_anonymity, 0.0);
  EXPECT_DOUBLE_EQ(result.entropy_bits, 0.0);
  EXPECT_DOUBLE_EQ(result.posterior[0], 1.0);
}

TEST(Adversary, NoMatchLeavesFullAnonymity) {
  const Adversary adversary(three_profiles());
  const auto observed = histogram_from({{900, 10.0}, {901, 10.0}});
  const auto result = adversary.identify(observed, Pattern::kVisits, MatchParams{});
  EXPECT_TRUE(result.matched.empty());
  EXPECT_DOUBLE_EQ(result.degree_of_anonymity, 1.0);
  EXPECT_NEAR(result.entropy_bits, stats::max_entropy(3), 1e-12);
}

TEST(Adversary, MultipleMatchesYieldIntermediateAnonymity) {
  auto profiles = three_profiles();
  // Make b's visits identical to a's so both match.
  profiles[1].visits = profiles[0].visits;
  const Adversary adversary(std::move(profiles));
  const auto observed = histogram_from({{1, 12.0}, {2, 6.0}, {3, 2.0}});
  const auto result = adversary.identify(observed, Pattern::kVisits, MatchParams{});
  ASSERT_EQ(result.matched.size(), 2u);
  EXPECT_GT(result.degree_of_anonymity, 0.0);
  EXPECT_LT(result.degree_of_anonymity, 1.0);
  double posterior_sum = 0.0;
  for (const double p : result.posterior) posterior_sum += p;
  EXPECT_NEAR(posterior_sum, 1.0, 1e-12);
}

TEST(Adversary, WeightingVariantsBothNormalise) {
  auto profiles = three_profiles();
  profiles[1].visits = profiles[0].visits;
  const Adversary adversary(std::move(profiles));
  const auto observed = histogram_from({{1, 11.0, }, {2, 7.0}, {3, 2.0}});
  for (const auto weighting :
       {PosteriorWeighting::kChiSquare, PosteriorWeighting::kInverseChiSquare}) {
    const auto result =
        adversary.identify(observed, Pattern::kVisits, MatchParams{}, weighting);
    double sum = 0.0;
    for (const double p : result.posterior) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Adversary, EmptyProfileSetRejected) {
  EXPECT_THROW(Adversary({}), util::ContractViolation);
}

TEST(Metrics, PoiRecoveryCountsWithinRadius) {
  const geo::LatLon work = geo::destination(kAnchor, 90.0, 2000.0);
  const std::vector<poi::Poi> reference{make_poi(0, kAnchor, {0, 10000}),
                                        make_poi(1, work, {20000})};
  // Collected found home (slightly displaced) but not work.
  const std::vector<poi::Poi> collected{
      make_poi(0, geo::destination(kAnchor, 10.0, 20.0), {0})};
  const auto recovery = poi_recovery(reference, collected, 50.0);
  EXPECT_EQ(recovery.reference_count, 2u);
  EXPECT_EQ(recovery.recovered_count, 1u);
  EXPECT_DOUBLE_EQ(recovery.fraction(), 0.5);
  EXPECT_FALSE(recovery.complete());
}

TEST(Metrics, EmptyReferenceIsVacuouslyComplete) {
  const auto recovery = poi_recovery({}, {}, 50.0);
  EXPECT_DOUBLE_EQ(recovery.fraction(), 1.0);
  EXPECT_TRUE(recovery.complete());
}

TEST(Metrics, SensitiveRecoveryFiltersOnReferenceVisits) {
  const geo::LatLon rare_place = geo::destination(kAnchor, 0.0, 900.0);
  const std::vector<poi::Poi> reference{
      make_poi(0, kAnchor, {0, 1'0000, 20000, 30000, 40000}),  // 5 visits: not sensitive.
      make_poi(1, rare_place, {50000})};                       // 1 visit: sensitive.
  const std::vector<poi::Poi> collected{make_poi(0, kAnchor, {0}),
                                        make_poi(1, rare_place, {50000})};
  const auto recovery = sensitive_poi_recovery(reference, collected, 50.0, 3);
  EXPECT_EQ(recovery.reference_count, 1u);
  EXPECT_EQ(recovery.recovered_count, 1u);
  EXPECT_THROW(sensitive_poi_recovery(reference, collected, 50.0, 0),
               util::ContractViolation);
  EXPECT_THROW(poi_recovery(reference, collected, 0.0), util::ContractViolation);
}

TEST(Detection, DefaultFractionsAscending) {
  const auto fractions = DetectionConfig::make_default_fractions();
  ASSERT_EQ(fractions.size(), 50u);
  EXPECT_DOUBLE_EQ(fractions.front(), 0.02);
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
  for (std::size_t i = 1; i < fractions.size(); ++i)
    EXPECT_LT(fractions[i - 1], fractions[i]);
}

}  // namespace
}  // namespace locpriv::privacy
