#include <gtest/gtest.h>

#include "privacy/prediction.hpp"
#include "privacy/reconstruction.hpp"
#include "geo/geodesy.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

PatternHistogram movements_from(
    std::initializer_list<std::pair<std::pair<RegionId, RegionId>, double>> items) {
  PatternHistogram histogram;
  for (const auto& [pair, count] : items)
    histogram.add(pack_transition(pair.first, pair.second), count);
  return histogram;
}

TEST(NextPlacePredictor, PredictsMostFrequentDestination) {
  const auto movements =
      movements_from({{{1, 2}, 10.0}, {{1, 3}, 3.0}, {{2, 1}, 8.0}});
  const NextPlacePredictor predictor(movements);
  RegionId next = 0;
  ASSERT_TRUE(predictor.predict(1, next));
  EXPECT_EQ(next, 2);
  ASSERT_TRUE(predictor.predict(2, next));
  EXPECT_EQ(next, 1);
  EXPECT_FALSE(predictor.predict(99, next));
}

TEST(NextPlacePredictor, TiesBreakDeterministically) {
  const auto movements = movements_from({{{1, 7}, 5.0}, {{1, 4}, 5.0}});
  const NextPlacePredictor predictor(movements);
  RegionId next = 0;
  ASSERT_TRUE(predictor.predict(1, next));
  EXPECT_EQ(next, 4);  // Lowest region id wins ties.
}

TEST(NextPlacePredictor, EmptyHistogramNeverPredicts) {
  const NextPlacePredictor predictor{PatternHistogram{}};
  RegionId next = 0;
  EXPECT_FALSE(predictor.predict(1, next));
}

TEST(ScorePredictions, CountsCorrectSkippedEvaluated) {
  const auto movements = movements_from({{{1, 2}, 10.0}, {{2, 3}, 10.0}});
  const NextPlacePredictor predictor(movements);
  // Sequence 1 -> 2 (correct), 2 -> 1 (wrong: model says 3), 9 -> 1 (skip).
  const PredictionScore score = score_predictions(predictor, {1, 2, 1});
  EXPECT_EQ(score.evaluated, 2u);
  EXPECT_EQ(score.correct, 1u);
  const PredictionScore skip = score_predictions(predictor, {9, 1});
  EXPECT_EQ(skip.skipped, 1u);
  EXPECT_DOUBLE_EQ(skip.accuracy(), 0.0);
}

std::vector<trace::TracePoint> two_stop_truth() {
  // At the anchor for t in [0, 1000), then 2 km east for [1000, 2000].
  std::vector<trace::TracePoint> points;
  const geo::LatLon second = geo::destination(kAnchor, 90.0, 2000.0);
  for (std::int64_t t = 0; t <= 2000; t += 10)
    points.push_back({t < 1000 ? kAnchor : second, t});
  return points;
}

TEST(PositionEstimator, LastFixCarriesForward) {
  const auto truth = two_stop_truth();
  const PositionEstimator estimator(trace::decimate(truth, 500));
  // Collected at t = 0, 500, 1000, 1500, 2000.
  EXPECT_LT(geo::haversine_m(estimator.estimate(400), kAnchor), 1.0);
  EXPECT_LT(geo::haversine_m(estimator.estimate(999), kAnchor), 1.0);
  const geo::LatLon second = geo::destination(kAnchor, 90.0, 2000.0);
  EXPECT_LT(geo::haversine_m(estimator.estimate(1200), second), 1.0);
  // Queries before the first fix return the first fix.
  EXPECT_LT(geo::haversine_m(estimator.estimate(-100), kAnchor), 1.0);
}

TEST(PositionEstimator, Preconditions) {
  EXPECT_THROW(PositionEstimator({}), util::ContractViolation);
  std::vector<trace::TracePoint> unordered{{kAnchor, 10}, {kAnchor, 5}};
  EXPECT_THROW(PositionEstimator(std::move(unordered)), util::ContractViolation);
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

TEST(ReconstructionError, PerfectCollectionHasZeroError) {
  const auto truth = two_stop_truth();
  const PositionEstimator estimator(truth);
  const auto error = reconstruction_error(truth, estimator, 10);
  EXPECT_DOUBLE_EQ(error.mean_m, 0.0);
  EXPECT_GT(error.samples, 100u);
}

TEST(ReconstructionError, SparserCollectionHasLargerError) {
  const auto truth = two_stop_truth();
  const auto dense_error =
      reconstruction_error(truth, PositionEstimator(trace::decimate(truth, 100)), 10);
  const auto sparse_error =
      reconstruction_error(truth, PositionEstimator(trace::decimate(truth, 1500)), 10);
  EXPECT_LE(dense_error.mean_m, sparse_error.mean_m);
  // The sparse estimator misses the move for ~500 s: large p90.
  EXPECT_GT(sparse_error.p90_m, 1000.0);
  EXPECT_THROW(reconstruction_error({}, PositionEstimator(truth), 10),
               util::ContractViolation);
  EXPECT_THROW(reconstruction_error(truth, PositionEstimator(truth), 0),
               util::ContractViolation);
}

}  // namespace
}  // namespace locpriv::privacy
