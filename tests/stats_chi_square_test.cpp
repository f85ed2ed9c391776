#include <gtest/gtest.h>

#include <map>

#include "stats/chi_square.hpp"
#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::stats {
namespace {

TEST(ChiSquareCdf, KnownCriticalValues) {
  // Classic table entries: P(X <= x) = 0.95.
  EXPECT_NEAR(chi_square_cdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(chi_square_cdf(5.991, 2.0), 0.95, 1e-3);
  EXPECT_NEAR(chi_square_cdf(11.070, 5.0), 0.95, 1e-3);
  EXPECT_NEAR(chi_square_cdf(18.307, 10.0), 0.95, 1e-3);
  // And the 5th percentile used by the paper's lower-tail reading.
  EXPECT_NEAR(chi_square_cdf(3.940, 10.0), 0.05, 1e-3);
}

TEST(ChiSquareCdf, SurvivalComplements) {
  for (const double dof : {1.0, 4.0, 22.0}) {
    for (const double x : {0.5, 3.0, 15.0, 40.0}) {
      EXPECT_NEAR(chi_square_cdf(x, dof) + chi_square_survival(x, dof), 1.0, 1e-12);
    }
  }
}

TEST(ChiSquareCdf, MeanIsDofApproxMedian) {
  // CDF at the mean (= dof) is slightly above 0.5 for all dof.
  for (const double dof : {2.0, 8.0, 30.0}) {
    const double at_mean = chi_square_cdf(dof, dof);
    EXPECT_GT(at_mean, 0.5);
    EXPECT_LT(at_mean, 0.64);  // dof=2 peaks at 1 - e^{-1} ~ 0.632.
  }
}

class QuantileRoundTrip : public ::testing::TestWithParam<std::pair<double, double>> {};

/// The p-quantile of chi-square with `dof` degrees of freedom, to 17
/// significant digits (computed independently in 50-digit arithmetic), so
/// the CDF is checked against values it did not produce, tails included.
double reference_quantile(double p, double dof) {
  static const std::map<std::pair<double, double>, double> kQuantiles = {
      {{0.05, 1.0}, 0.0039321400000195232}, {{0.5, 3.0}, 2.3659738843753383},
      {{0.95, 7.0}, 14.067140449340166},     {{0.99, 22.0}, 40.289360437593861},
      {{0.001, 50.0}, 24.673905271877262},   {{0.9999, 4.0}, 23.512742444991078}};
  return kQuantiles.at({p, dof});
}

TEST_P(QuantileRoundTrip, CdfOfQuantileIsP) {
  const auto [p, dof] = GetParam();
  EXPECT_NEAR(chi_square_cdf(reference_quantile(p, dof), dof), p, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QuantileRoundTrip,
    ::testing::Values(std::pair{0.05, 1.0}, std::pair{0.5, 3.0}, std::pair{0.95, 7.0},
                      std::pair{0.99, 22.0}, std::pair{0.001, 50.0},
                      std::pair{0.9999, 4.0}));

TEST(PearsonGoodnessOfFit, PerfectFitGivesZeroStatistic) {
  const std::vector<double> counts{10.0, 20.0, 30.0};
  const auto result = pearson_goodness_of_fit(counts, counts);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
  EXPECT_EQ(result.bins, 3u);
  EXPECT_DOUBLE_EQ(result.dof, 2.0);
  EXPECT_NEAR(result.p_upper, 1.0, 1e-12);
  EXPECT_NEAR(result.p_lower, 0.0, 1e-12);
}

TEST(PearsonGoodnessOfFit, RescalesExpectedMass) {
  // Same proportions at different totals must fit perfectly.
  const std::vector<double> observed{1.0, 2.0, 3.0};
  const std::vector<double> expected{10.0, 20.0, 30.0};
  const auto result = pearson_goodness_of_fit(observed, expected);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
}

TEST(PearsonGoodnessOfFit, HandComputedStatistic) {
  // observed {8, 12}, expected {10, 10}: X^2 = 4/10 + 4/10 = 0.8, dof 1.
  const auto result =
      pearson_goodness_of_fit({8.0, 12.0}, {10.0, 10.0});
  EXPECT_NEAR(result.statistic, 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(result.dof, 1.0);
  EXPECT_NEAR(result.p_upper, 0.3711, 2e-4);  // 1 - CDF(0.8; 1).
}

TEST(PearsonGoodnessOfFit, SkipsZeroExpectedCategories) {
  // The zero-expected category is excluded; remaining two still rescale.
  const auto result =
      pearson_goodness_of_fit({5.0, 5.0, 4.0}, {10.0, 10.0, 0.0});
  EXPECT_EQ(result.bins, 2u);
  EXPECT_DOUBLE_EQ(result.dof, 1.0);
}

TEST(PearsonGoodnessOfFit, LargeDeviationRejects) {
  const auto result =
      pearson_goodness_of_fit({100.0, 0.0, 0.0}, {34.0, 33.0, 33.0});
  EXPECT_LT(result.p_upper, 1e-6);
  EXPECT_GT(result.p_lower, 1.0 - 1e-6);
}

TEST(PearsonGoodnessOfFit, Preconditions) {
  EXPECT_THROW(pearson_goodness_of_fit({}, {}), util::ContractViolation);
  EXPECT_THROW(pearson_goodness_of_fit({1.0}, {1.0, 2.0}), util::ContractViolation);
  EXPECT_THROW(pearson_goodness_of_fit({0.0, 0.0}, {1.0, 1.0}),
               util::ContractViolation);
  EXPECT_THROW(pearson_goodness_of_fit({-1.0, 2.0}, {1.0, 1.0}),
               util::ContractViolation);
  // Fewer than two usable bins after zero-expected skipping.
  EXPECT_THROW(pearson_goodness_of_fit({1.0, 1.0}, {1.0, 0.0}),
               util::ContractViolation);
}

TEST(PearsonGoodnessOfFit, NullDistributionCalibration) {
  // Property: sampling observed counts from the expected distribution, the
  // upper-tail p-value should be < 0.05 about 5% of the time.
  Rng rng(123);
  const std::vector<double> expected{30.0, 25.0, 20.0, 15.0, 10.0};
  std::vector<double> probabilities = expected;
  int rejections = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> observed(expected.size(), 0.0);
    for (int draw = 0; draw < 200; ++draw)
      observed[rng.weighted_index(probabilities)] += 1.0;
    const auto result = pearson_goodness_of_fit(observed, expected);
    if (result.p_upper < 0.05) ++rejections;
  }
  EXPECT_NEAR(rejections / static_cast<double>(trials), 0.05, 0.02);
}

TEST(ChiSquareResult, PValueSelectsTail) {
  ChiSquareResult result;
  result.p_lower = 0.2;
  result.p_upper = 0.8;
  EXPECT_DOUBLE_EQ(result.p_value(ChiSquareTail::kLower), 0.2);
  EXPECT_DOUBLE_EQ(result.p_value(ChiSquareTail::kUpper), 0.8);
}

}  // namespace
}  // namespace locpriv::stats
