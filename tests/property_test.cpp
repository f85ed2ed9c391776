// Cross-module property tests: invariants that must hold for *any* seed,
// exercised over a seed sweep. These catch the class of bug unit tests
// miss — a refactor that keeps the happy-path examples working but breaks
// an algebraic property of the pipeline.
#include <gtest/gtest.h>

#include <set>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "geo/geodesy.hpp"
#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "privacy/detection.hpp"
#include "trace/sampling.hpp"

namespace locpriv {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // One simulated user per seed; small but realistic.
  static mobility::SimulatedUser make_user(std::uint64_t seed) {
    stats::Rng rng(seed);
    mobility::CityConfig city_config;
    const mobility::CityModel city(city_config, rng);
    const int home = city.pois_of_category(mobility::PoiCategory::kHome).front();
    const mobility::UserProfile profile = mobility::build_user_profile(
        city, "prop", home, mobility::ProfileConfig{}, rng);
    mobility::SynthesisConfig synthesis;
    synthesis.days = 5;
    return mobility::simulate_user(city, profile, synthesis, rng);
  }
};

TEST_P(SeedSweep, StayPointsAreChronologicalDisjointAndLongEnough) {
  const auto user = make_user(GetParam());
  const auto& points = user.trace.points();
  const poi::ExtractionParams params;
  const auto stays = poi::extract_stay_points(points, params);
  ASSERT_FALSE(stays.empty());
  for (std::size_t i = 0; i < stays.size(); ++i) {
    EXPECT_GE(stays[i].duration_s(), params.min_visit_s);
    EXPECT_GT(stays[i].fix_count, 0u);
    EXPECT_LE(stays[i].enter_s, stays[i].exit_s);
    if (i > 0) {
      EXPECT_GE(stays[i].enter_s, stays[i - 1].exit_s);
    }
    // The stay lies within the trace's time span.
    EXPECT_GE(stays[i].enter_s, points.front().timestamp_s);
    EXPECT_LE(stays[i].exit_s, points.back().timestamp_s);
  }
}

TEST_P(SeedSweep, StayCentroidsLieInsideTraceBounds) {
  const auto user = make_user(GetParam());
  const auto& points = user.trace.points();
  geo::GeoBounds bounds;
  for (const auto& point : points) bounds.extend(point.position);
  for (const auto& stay : poi::extract_stay_points(points, poi::ExtractionParams{}))
    EXPECT_TRUE(bounds.contains(stay.centroid));
}

TEST_P(SeedSweep, ClusteringConservesVisits) {
  const auto user = make_user(GetParam());
  const auto stays =
      poi::extract_stay_points(user.trace.points(), poi::ExtractionParams{});
  const auto pois = poi::cluster_stay_points(stays, 50.0);
  std::size_t total_visits = 0;
  for (const auto& poi : pois) {
    total_visits += poi.visit_count();
    // Every visit's centroid is within the merge radius of its PoI at the
    // moment of assignment; after centroid drift it stays within 2x.
    for (const auto& visit : poi.visits)
      EXPECT_LE(geo::equirectangular_m(poi.centroid, visit.centroid), 100.0);
  }
  EXPECT_EQ(total_visits, stays.size());
  // Ids are dense and ordered.
  for (std::size_t i = 0; i < pois.size(); ++i)
    EXPECT_EQ(pois[i].id, static_cast<int>(i));
}

TEST_P(SeedSweep, ExtractionRecoversGroundTruthPlacesAtFullRate) {
  const auto user = make_user(GetParam());
  const auto stays =
      poi::extract_stay_points(user.trace.points(), poi::ExtractionParams{});
  const auto pois = poi::cluster_stay_points(stays, 50.0);
  // Every ground-truth visit longer than twice the visiting-time threshold
  // must be represented by some extracted PoI nearby.
  std::size_t long_visits = 0;
  std::size_t recovered = 0;
  for (const auto& visit : user.ground_truth.visits) {
    if (visit.dwell_s() < 2 * 600) continue;
    ++long_visits;
    // Locate the true place position via the visit's enclosing stay.
    for (const auto& poi : pois) {
      bool matches_time = false;
      for (const auto& extracted : poi.visits) {
        if (extracted.enter_s <= visit.exit_s && visit.enter_s <= extracted.exit_s) {
          matches_time = true;
          break;
        }
      }
      if (matches_time) {
        ++recovered;
        break;
      }
    }
  }
  ASSERT_GT(long_visits, 0u);
  EXPECT_GE(recovered * 10, long_visits * 9);  // >= 90 %.
}

TEST_P(SeedSweep, DecimationIsIdempotentAndNested) {
  const auto user = make_user(GetParam());
  const auto& points = user.trace.points();
  const auto once = trace::decimate(points, 60);
  const auto twice = trace::decimate(once, 60);
  EXPECT_EQ(once.size(), twice.size());  // Idempotent at the same interval.
  // Decimating at a multiple from the decimated stream never yields more
  // fixes than decimating the original at that multiple... and both are
  // subsequences of the original.
  const auto nested = trace::decimate(once, 600);
  for (const auto& point : nested) {
    bool found = false;
    for (const auto& original : points)
      if (original.timestamp_s == point.timestamp_s &&
          original.position == point.position) {
        found = true;
        break;
      }
    EXPECT_TRUE(found);
  }
}

TEST_P(SeedSweep, SelfMatchHoldsAtFullCollection) {
  // A user's full-rate observed histogram must always match their own
  // profile (fundamental soundness of His_bin).
  const auto user = make_user(GetParam());
  core::AnalyzerConfig config = core::experiment_analyzer_config();
  core::PrivacyAnalyzer analyzer(config, {user.trace});
  const auto report = analyzer.evaluate_exposure(0, 1);
  EXPECT_TRUE(report.hisbin_visits);
  EXPECT_TRUE(report.hisbin_movements);
  EXPECT_DOUBLE_EQ(report.poi_total.fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Posterior properties of the adversary over random corpora.
class AdversaryProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversaryProperties, PosteriorIsDistributionAndDegreeBounded) {
  mobility::DatasetConfig config;
  config.seed = GetParam();
  config.user_count = 10;
  config.synthesis.days = 4;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), config);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements}) {
      const auto observed = privacy::observed_histogram(
          analyzer.reference(u).points, pattern, analyzer.config().extraction,
          analyzer.grid(), 60);
      if (observed.empty()) continue;
      const auto result =
          analyzer.adversary().identify(observed, pattern, analyzer.config().match);
      double total = 0.0;
      for (const double p : result.posterior) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      if (!result.matched.empty()) {
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
      EXPECT_GE(result.degree_of_anonymity, 0.0);
      EXPECT_LE(result.degree_of_anonymity, 1.0);
      // Full-rate self observation must place the true user in the match
      // set (tested at 60 s here to also cover partial data: if matched is
      // non-empty and the true user is in it, fine; an empty set is fine).
      if (result.matched.size() == 1) {
        EXPECT_DOUBLE_EQ(result.degree_of_anonymity, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryProperties, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace locpriv
