#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/ecdf.hpp"
#include "util/expect.hpp"

namespace locpriv::stats {
namespace {

TEST(Descriptive, MeanVariance) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_NEAR(variance(values), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({3.0}), 0.0);
}

TEST(Descriptive, QuantileInterpolates) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), util::ContractViolation);
  EXPECT_THROW(quantile(values, 1.5), util::ContractViolation);
}

TEST(Descriptive, SummaryFields) {
  const auto s = summarize({1.0, 3.0, 5.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);
}

TEST(Ecdf, StepFunction) {
  Ecdf ecdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(ecdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf(99.0), 1.0);
}

TEST(Ecdf, InverseMatchesPaperStyleQueries) {
  // Intervals like Figure 1: ECDF(10) fraction of apps <= 10 s.
  Ecdf ecdf({1.0, 5.0, 10.0, 60.0, 600.0});
  EXPECT_DOUBLE_EQ(ecdf(10.0), 0.6);
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.6), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.inverse(1.0), 600.0);
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.0001), 1.0);
  EXPECT_THROW(Ecdf({}), util::ContractViolation);
  EXPECT_THROW(ecdf.inverse(0.0), util::ContractViolation);
}

TEST(Entropy, UniformIsLog2N) {
  EXPECT_NEAR(shannon_entropy({0.25, 0.25, 0.25, 0.25}), 2.0, 1e-12);
  EXPECT_NEAR(shannon_entropy({1.0, 1.0}), 1.0, 1e-12);  // Normalises.
}

TEST(Entropy, DegenerateIsZero) {
  EXPECT_NEAR(shannon_entropy({1.0, 0.0, 0.0}), 0.0, 1e-12);
}

TEST(Entropy, Preconditions) {
  EXPECT_THROW(shannon_entropy({0.0, 0.0}), util::ContractViolation);
  EXPECT_THROW(shannon_entropy({-0.1, 1.0}), util::ContractViolation);
  EXPECT_THROW(max_entropy(0), util::ContractViolation);
}

TEST(DegreeOfAnonymity, PaperFormulaCases) {
  // Uniform posterior over all N profiles: degree 1 (maximum anonymity).
  EXPECT_NEAR(degree_of_anonymity({0.25, 0.25, 0.25, 0.25}, 4), 1.0, 1e-12);
  // Posterior concentrated on one profile: degree 0 (identified).
  EXPECT_NEAR(degree_of_anonymity({1.0, 0.0, 0.0, 0.0}, 4), 0.0, 1e-12);
  // Singleton anonymity set: identified by definition.
  EXPECT_DOUBLE_EQ(degree_of_anonymity({1.0}, 1), 0.0);
  // Two equal candidates among 4 profiles: H = 1 bit, H_M = 2 bits.
  EXPECT_NEAR(degree_of_anonymity({0.5, 0.5, 0.0, 0.0}, 4), 0.5, 1e-12);
}

}  // namespace
}  // namespace locpriv::stats
