#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "geo/geodesy.hpp"
#include "market/study.hpp"
#include "privacy/detection.hpp"
#include "trace/geolife.hpp"
#include "util/expect.hpp"

namespace locpriv::core {
namespace {

// A small analyzer shared by the tests in this file (construction runs the
// full reference-extraction pipeline).
const PrivacyAnalyzer& small_analyzer() {
  static const PrivacyAnalyzer analyzer = [] {
    mobility::DatasetConfig dataset;
    dataset.user_count = 30;
    dataset.synthesis.days = 8;
    return PrivacyAnalyzer::from_synthetic(experiment_analyzer_config(), dataset);
  }();
  return analyzer;
}

TEST(PrivacyAnalyzer, BuildsReferencesForEveryUser) {
  const PrivacyAnalyzer& analyzer = small_analyzer();
  ASSERT_EQ(analyzer.user_count(), 30u);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const UserReference& reference = analyzer.reference(u);
    EXPECT_FALSE(reference.points.empty());
    EXPECT_GE(reference.pois.size(), 3u) << "user " << u;
    EXPECT_FALSE(reference.visits.empty());
    EXPECT_FALSE(reference.movements.empty());
    // A movement histogram always has at least as many keys as transitions
    // between distinct regions exist; visits keys equal distinct regions.
    EXPECT_GE(reference.movements.key_count(), reference.visits.key_count() - 1);
  }
  EXPECT_THROW(analyzer.reference(analyzer.user_count()), util::ContractViolation);
}

// Every entry point that collects at an interval refuses one below 1 s
// instead of scoring the full-rate collection under that label.
TEST(PrivacyAnalyzer, IntervalEntryPointsRejectIntervalsBelowOneSecond) {
  const PrivacyAnalyzer& analyzer = small_analyzer();
  const UserReference& reference = analyzer.reference(0);
  privacy::DetectionConfig config(analyzer.grid());
  config.extraction = analyzer.config().extraction;
  for (const std::int64_t interval_s : {0, -30}) {
    SCOPED_TRACE(interval_s);
    EXPECT_THROW(analyzer.evaluate_exposure(0, interval_s), util::ContractViolation);
    EXPECT_THROW(analyzer.collected_pois(0, interval_s), util::ContractViolation);
    EXPECT_THROW(analyzer.earliest_detection(0, privacy::Pattern::kVisits, interval_s),
                 util::ContractViolation);
    EXPECT_THROW(
        analyzer.earliest_identification(0, privacy::Pattern::kMovements, interval_s),
        util::ContractViolation);
    EXPECT_THROW(privacy::observed_histogram(reference.points, privacy::Pattern::kVisits,
                                             config.extraction, analyzer.grid(), interval_s),
                 util::ContractViolation);
    config.interval_s = interval_s;
    EXPECT_THROW(privacy::earliest_detection(reference.points, reference.visits,
                                             privacy::Pattern::kVisits, config),
                 util::ContractViolation);
    EXPECT_THROW(privacy::earliest_identification(reference.points, analyzer.adversary(), 0,
                                                  privacy::Pattern::kMovements, config),
                 util::ContractViolation);
  }
}

TEST(PrivacyAnalyzer, RejectsEmptyInput) {
  EXPECT_THROW(PrivacyAnalyzer(experiment_analyzer_config(), {}),
               util::ContractViolation);
}

TEST(PrivacyAnalyzer, FullRateExposureRecoversEverything) {
  const ExposureReport report = small_analyzer().evaluate_exposure(0, 1);
  EXPECT_DOUBLE_EQ(report.poi_total.fraction(), 1.0);
  EXPECT_DOUBLE_EQ(report.poi_sensitive.fraction(), 1.0);
  EXPECT_TRUE(report.hisbin_visits);
  EXPECT_TRUE(report.hisbin_movements);
  EXPECT_TRUE(report.breach_detected());
  EXPECT_DOUBLE_EQ(report.anonymity_movements, 0.0);  // Uniquely identified.
}

TEST(PrivacyAnalyzer, VerySlowPollingLeaksLittle) {
  const ExposureReport report = small_analyzer().evaluate_exposure(0, 7200);
  EXPECT_LT(report.poi_total.fraction(), 0.5);
  EXPECT_LT(report.collected_fixes, 200u);
}

class ExposureMonotoneTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ExposureMonotoneTest, SlowerPollingNeverCollectsMoreFixes) {
  const std::int64_t interval = GetParam();
  const ExposureReport fast = small_analyzer().evaluate_exposure(1, interval);
  const ExposureReport slow = small_analyzer().evaluate_exposure(1, interval * 4);
  EXPECT_LE(slow.collected_fixes, fast.collected_fixes);
  EXPECT_LE(slow.poi_total.recovered_count, fast.poi_total.recovered_count + 1);
}

INSTANTIATE_TEST_SUITE_P(Ladder, ExposureMonotoneTest,
                         ::testing::Values(1, 10, 60, 600));

TEST(PrivacyAnalyzer, IdentificationFasterWithMovementPattern) {
  // The paper's Figure 4(d) claim: the movement pattern identifies strictly
  // faster for (many) more users than the visit pattern does.
  const PrivacyAnalyzer& analyzer = small_analyzer();
  int p2_strictly_faster = 0;
  int p1_strictly_faster = 0;
  int p2_detected = 0;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const auto p1 = analyzer.earliest_identification(u, privacy::Pattern::kVisits, 1);
    const auto p2 =
        analyzer.earliest_identification(u, privacy::Pattern::kMovements, 1);
    if (p2.detected) ++p2_detected;
    if (!p1.detected || !p2.detected) continue;
    if (p2.fraction < p1.fraction) ++p2_strictly_faster;
    if (p1.fraction < p2.fraction) ++p1_strictly_faster;
  }
  EXPECT_GE(p2_detected * 10, static_cast<int>(analyzer.user_count()) * 9);
  EXPECT_GT(p2_strictly_faster, p1_strictly_faster);
}

TEST(PrivacyAnalyzer, SelfDetectionEventuallyFires) {
  const auto outcome =
      small_analyzer().earliest_detection(2, privacy::Pattern::kVisits, 1);
  EXPECT_TRUE(outcome.detected);
  EXPECT_LE(outcome.fraction, 1.0);
  EXPECT_GE(outcome.fraction, 0.02);
}

TEST(PrivacyAnalyzer, SparserPollingRecoversFewerTruePois) {
  // Raw extracted counts can fragment at low rates (phantom clusters), so
  // the meaningful monotone quantity is how many *reference* PoIs the
  // collected set recovers.
  const auto full = small_analyzer().evaluate_exposure(3, 1);
  const auto sparse = small_analyzer().evaluate_exposure(3, 3600);
  EXPECT_GT(small_analyzer().collected_pois(3, 1).size(), 0u);
  EXPECT_LE(sparse.poi_total.recovered_count, full.poi_total.recovered_count);
  EXPECT_LT(sparse.poi_total.fraction(), 1.0);
}

TEST(PrivacyAnalyzer, WorksOnGeolifeFormatRoundTrip) {
  // End-to-end: synthesise, write in Geolife layout, read back, analyse.
  mobility::DatasetConfig dataset;
  dataset.user_count = 3;
  dataset.synthesis.days = 4;
  const auto synthetic = mobility::generate_dataset(dataset);

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "locpriv_core_geolife";
  std::filesystem::remove_all(root);
  trace::write_geolife_dataset(root, synthetic.users);
  auto loaded = trace::read_geolife_dataset(root);
  std::filesystem::remove_all(root);

  ASSERT_EQ(loaded.size(), 3u);
  const PrivacyAnalyzer analyzer(experiment_analyzer_config(), std::move(loaded));
  EXPECT_EQ(analyzer.user_count(), 3u);
  const ExposureReport report = analyzer.evaluate_exposure(0, 1);
  EXPECT_TRUE(report.breach_detected());
}

TEST(Experiment, LadderAndConfigs) {
  const auto ladder = access_interval_ladder();
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front(), 1);
  EXPECT_EQ(ladder.back(), 7200);
  for (std::size_t i = 1; i < ladder.size(); ++i) EXPECT_GT(ladder[i], ladder[i - 1]);

  const auto config = experiment_analyzer_config();
  EXPECT_DOUBLE_EQ(config.extraction.radius_m, 50.0);
  EXPECT_EQ(config.extraction.min_visit_s, 600);
  EXPECT_DOUBLE_EQ(config.match.alpha, 0.05);

  const auto dataset = experiment_dataset_config();
  EXPECT_EQ(dataset.seed, kDatasetSeed);
  EXPECT_GT(dataset.user_count, 0);
}

// Full-pipeline integration test at reduced scale: market study feeds an
// interval, the mobility corpus feeds traces, and the privacy pipeline
// quantifies what that app family learns.
TEST(Integration, MarketIntervalToPrivacyExposure) {
  using namespace locpriv::market;
  CatalogConfig catalog_config;
  const Catalog catalog = generate_catalog(catalog_config);
  const MarketReport market = run_market_study(catalog, 7);
  ASSERT_FALSE(market.background_intervals.empty());

  // Median background app interval.
  auto intervals = market.background_intervals;
  std::sort(intervals.begin(), intervals.end());
  const std::int64_t median = intervals[intervals.size() / 2];
  EXPECT_LE(median, 60);  // Most background apps poll fast (Figure 1).

  const ExposureReport fast = small_analyzer().evaluate_exposure(0, median);
  const ExposureReport slow = small_analyzer().evaluate_exposure(0, 7200);
  EXPECT_GE(fast.poi_total.fraction(), slow.poi_total.fraction());
  EXPECT_TRUE(fast.breach_detected());
}

}  // namespace
}  // namespace locpriv::core
