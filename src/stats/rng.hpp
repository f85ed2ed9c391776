// Deterministic pseudo-random number generation.
//
// Everything stochastic in this repository (dataset synthesis, catalog
// generation, noise injection, sampling offsets) flows through Rng so that
// every experiment is bit-reproducible from a printed 64-bit seed. The
// generator is xoshiro256** seeded via SplitMix64, both public-domain
// algorithms; we implement them here rather than use std::mt19937 because
// the standard distributions are not bit-stable across library versions.
#pragma once

#include <cstdint>
#include <vector>

#include "util/expect.hpp"

namespace locpriv::stats {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator, but the distribution helpers below
/// should be preferred over <random> distributions for reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next 64 uniform random bits.
  std::uint64_t next_u64();
  result_type operator()() { return next_u64(); }

  /// Uniform integer in [0, bound) using Lemire rejection (unbiased).
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01();

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double uniform(double lo, double hi);

  /// True with probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via the Marsaglia polar method.
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Preconditions: weights non-empty, all weights >= 0, sum > 0.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// user/app its own stream so adding one entity never perturbs another.
  /// (Declaration shares a POSIX spelling. locpriv-lint: allow(raw-process))
  Rng fork();

 private:
  std::uint64_t state_[4];
  // Cached second output of the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace locpriv::stats
