#include "stats/rng.hpp"

#include <cmath>

namespace locpriv::stats {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, but keep the guard for clarity.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  LOCPRIV_EXPECT(bound > 0);
  // Lemire's multiply-then-reject method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LOCPRIV_EXPECT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range, i.e. any value is in range.
  if (span == 0) return static_cast<std::int64_t>(next_u64());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LOCPRIV_EXPECT(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  LOCPRIV_EXPECT(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::exponential(double mean) {
  LOCPRIV_EXPECT(mean > 0.0);
  return -mean * std::log1p(-uniform01());
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  LOCPRIV_EXPECT(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    LOCPRIV_EXPECT(w >= 0.0);
    total += w;
  }
  LOCPRIV_EXPECT(total > 0.0);
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  // Floating-point slack: fall back to the last non-zero weight.
  for (std::size_t i = weights.size(); i > 0; --i)
    if (weights[i - 1] > 0.0) return i - 1;
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace locpriv::stats
