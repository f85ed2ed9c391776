#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitMixKnownSequenceIsStable) {
  // Pin the first outputs so accidental algorithm changes (which would
  // silently change every experiment) fail loudly.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_EQ(first, 0xe220a8397b1dcdafULL);
  EXPECT_EQ(second, 0x6e789e6aa1b965f4ULL);
}

TEST(Rng, Uniform01InRangeAndWellSpread) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, NextBelowIsUnbiasedAcrossSmallRange) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.next_below(5)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), util::ContractViolation);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(3, 2), util::ContractViolation);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(3.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, BernoulliEdgesAndRate) {
  Rng rng(13);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 40000.0, 0.75, 0.02);
}

TEST(Rng, WeightedIndexPreconditions) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), util::ContractViolation);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), util::ContractViolation);
  std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(negative), util::ContractViolation);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(31);
  (void)parent_copy.next_u64();  // Account for the fork's draw.
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == parent_copy.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace locpriv::stats
