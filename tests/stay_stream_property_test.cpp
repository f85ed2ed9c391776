// StayPointStream property test: the streaming extractor and the one-pass
// prefix sweeps built on it must agree exactly with from-scratch oracles.
// After every push the stream's peek_close() must equal a batch extraction
// of that prefix, field by field with doubles compared bit for bit, across
// corpus seeds x window sizes x radii x decimation intervals; peeking must
// change nothing; and earliest_identification / earliest_detection must
// return what the per-probe loop they replaced returns (cut the prefix, run
// the batch pipeline, test it) for every user, pattern and interval.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/analyzer.hpp"
#include "geo/geodesy.hpp"
#include "mobility/synthesis.hpp"
#include "poi/staypoint.hpp"
#include "privacy/detection.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 12, 13};
constexpr std::size_t kWindows[] = {4, 6, 8, 16};
constexpr double kRadii[] = {50.0, 100.0};
constexpr std::int64_t kIntervals[] = {1, 10, 60, 600};
// Traces up to this many fixes check every prefix; longer ones a sample.
constexpr std::size_t kEveryPrefixUpTo = 600;
constexpr std::size_t kSampledPrefixes = 200;

// Two days of one simulated user per seed (about 10k fixes at 1 s).
const std::vector<trace::TracePoint>& corpus_trace(std::uint64_t seed) {
  static std::map<std::uint64_t, std::vector<trace::TracePoint>> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    mobility::DatasetConfig config;
    config.seed = seed;
    config.user_count = 1;
    config.synthesis.days = 2;
    it = cache.emplace(seed, mobility::generate_dataset(config).users[0].flattened())
             .first;
  }
  return it->second;
}

std::vector<trace::TracePoint> collected(const std::vector<trace::TracePoint>& points,
                                         std::int64_t interval_s) {
  return interval_s <= 1 ? points : trace::decimate(points, interval_s);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_stays(const std::vector<poi::StayPoint>& got,
                                      const std::vector<poi::StayPoint>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " stays, expected " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const poi::StayPoint& a = got[i];
    const poi::StayPoint& b = want[i];
    if (!same_bits(a.centroid.lat_deg, b.centroid.lat_deg) ||
        !same_bits(a.centroid.lon_deg, b.centroid.lon_deg) || a.enter_s != b.enter_s ||
        a.exit_s != b.exit_s || a.fix_count != b.fix_count)
      return ::testing::AssertionFailure() << "stay " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

// The three-buffer extractor as first written, over a std::deque: the
// reference the ring-buffered stream must reproduce bit for bit.
std::vector<poi::StayPoint> reference_extract(const std::vector<trace::TracePoint>& points,
                                              const poi::ExtractionParams& params) {
  struct Sum {
    double lat = 0.0;
    double lon = 0.0;
    std::size_t count = 0;
    void add(const geo::LatLon& p) {
      lat += p.lat_deg;
      lon += p.lon_deg;
      ++count;
    }
    geo::LatLon mean() const {
      const auto n = static_cast<double>(count);
      return {lat / n, lon / n};
    }
  };
  const auto centroid_of = [](const std::deque<trace::TracePoint>& window,
                              std::size_t begin) {
    Sum sum;
    for (std::size_t i = begin; i < window.size(); ++i) sum.add(window[i].position);
    return sum.mean();
  };
  const std::size_t size = params.window_fixes;
  const std::size_t half = size / 2;
  std::vector<poi::StayPoint> stays;
  std::deque<trace::TracePoint> window;
  bool inside = false;
  Sum stay;
  std::int64_t enter_s = 0;
  std::int64_t last_s = 0;
  const auto attribute = [&](const trace::TracePoint& point) {
    stay.add(point.position);
    last_s = point.timestamp_s;
  };
  const auto close = [&](std::size_t overlap) {
    for (std::size_t i = 0; i < overlap; ++i) {
      attribute(window.front());
      window.pop_front();
    }
    if (last_s - enter_s >= params.min_visit_s && stay.count > 0)
      stays.push_back({stay.mean(), enter_s, last_s, stay.count});
    stay = Sum();
    inside = false;
  };
  for (const auto& point : points) {
    window.push_back(point);
    if (!inside) {
      if (window.size() > size) window.pop_front();
      if (window.size() < size) continue;
      if (geo::equirectangular_m(centroid_of(window, 0), centroid_of(window, half)) <
          params.radius_m) {
        inside = true;
        enter_s = window[half].timestamp_s;
        for (std::size_t i = half; i < window.size(); ++i) attribute(window[i]);
        window.clear();
      }
    } else {
      while (window.size() > size) {
        attribute(window.front());
        window.pop_front();
      }
      if (window.size() < size) continue;
      if (geo::equirectangular_m(stay.mean(), centroid_of(window, 0)) > params.radius_m)
        close(std::min(half, window.size()));
    }
  }
  if (inside) close(window.size());
  return stays;
}

// Prefix lengths to check: all of 1..n on short traces, else a seeded
// sample of kSampledPrefixes distinct lengths plus n itself.
std::vector<bool> prefixes_to_check(std::size_t n, stats::Rng& rng) {
  std::vector<bool> check(n + 1, n <= kEveryPrefixUpTo);
  check[0] = false;
  if (n == 0) return check;
  check[n] = true;
  for (std::size_t drawn = 0; n > kEveryPrefixUpTo && drawn < kSampledPrefixes;) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.next_below(n));
    if (!check[k]) {
      check[k] = true;
      ++drawn;
    }
  }
  return check;
}

TEST(StayPointStreamProperty, PeekCloseEqualsBatchExtractionOfEveryPrefix) {
  std::size_t comparisons = 0;
  for (const std::uint64_t seed : kSeeds) {
    stats::Rng rng(seed);
    for (const std::size_t window : kWindows)
      for (const double radius_m : kRadii)
        for (const std::int64_t interval_s : kIntervals) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " window=" << window
                       << " radius=" << radius_m << " interval=" << interval_s);
          const poi::ExtractionParams params{radius_m, 600, window};
          const auto points = collected(corpus_trace(seed), interval_s);
          const auto check = prefixes_to_check(points.size(), rng);
          poi::StayPointStream stream(params);
          for (std::size_t k = 1; k <= points.size(); ++k) {
            stream.push(points[k - 1]);
            if (!check[k]) continue;
            const std::vector<trace::TracePoint> prefix(
                points.begin(), points.begin() + static_cast<std::ptrdiff_t>(k));
            ASSERT_TRUE(same_stays(stream.peek_close(),
                                   poi::extract_stay_points(prefix, params)))
                << "after push " << k << " of " << points.size();
            ++comparisons;
          }
          const auto stays = poi::extract_stay_points(points, params);
          ASSERT_TRUE(same_stays(stays, reference_extract(points, params)));
          if (interval_s == 1) {
            EXPECT_FALSE(stays.empty());
          }
        }
  }
  // 3 seeds x 16 cells x >= 200 prefixes, more where traces are short.
  EXPECT_GE(comparisons, 3u * 16u * kSampledPrefixes);
}

TEST(StayPointStreamProperty, PeekingTwiceThenPushingMoreChangesNothing) {
  for (const std::uint64_t seed : kSeeds) {
    stats::Rng rng(seed + 100);
    for (const std::size_t window : kWindows)
      for (const std::int64_t interval_s : kIntervals) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " window=" << window
                                          << " interval=" << interval_s);
        const poi::ExtractionParams params{50.0, 600, window};
        const auto points = collected(corpus_trace(seed), interval_s);
        const auto check = prefixes_to_check(points.size(), rng);
        poi::StayPointStream peeked(params);
        poi::StayPointStream untouched(params);
        for (std::size_t k = 1; k <= points.size(); ++k) {
          peeked.push(points[k - 1]);
          untouched.push(points[k - 1]);
          if (!check[k]) continue;
          const auto first = peeked.peek_close();
          ASSERT_TRUE(same_stays(peeked.peek_close(), first)) << "after push " << k;
        }
        ASSERT_TRUE(same_stays(peeked.peek_close(), untouched.peek_close()));
      }
  }
}

// The per-probe loop the one-pass sweep replaced, rebuilt from public
// functions: cut each prefix, run the batch pipeline on it, test it.
privacy::DetectionOutcome oracle_sweep(
    const std::vector<trace::TracePoint>& points, privacy::Pattern pattern,
    const privacy::DetectionConfig& config,
    const std::function<bool(const privacy::PatternHistogram&)>& fires) {
  for (const double fraction : config.fractions) {
    const auto prefix = trace::take_prefix_fraction(points, fraction);
    if (prefix.empty()) continue;
    const privacy::PatternHistogram observed = privacy::observed_histogram(
        prefix, pattern, config.extraction, config.grid, config.interval_s);
    if (fires(observed)) return {true, fraction};
  }
  return {};
}

privacy::DetectionOutcome oracle_identification(
    const std::vector<trace::TracePoint>& points, const privacy::Adversary& adversary,
    std::size_t true_user, privacy::Pattern pattern,
    const privacy::DetectionConfig& config) {
  return oracle_sweep(points, pattern, config, [&](const privacy::PatternHistogram& h) {
    if (h.empty()) return false;
    const auto result = adversary.identify(h, pattern, config.match);
    return result.matched.size() == 1 && result.matched.front() == true_user;
  });
}

privacy::DetectionOutcome oracle_detection(const std::vector<trace::TracePoint>& points,
                                           const privacy::PatternHistogram& profile,
                                           privacy::Pattern pattern,
                                           const privacy::DetectionConfig& config) {
  return oracle_sweep(points, pattern, config, [&](const privacy::PatternHistogram& h) {
    const auto match = privacy::match_histograms(h, profile, config.match);
    return match.attempted && match.matches;
  });
}

const core::PrivacyAnalyzer& sweep_analyzer() {
  static const core::PrivacyAnalyzer analyzer = [] {
    mobility::DatasetConfig config;
    config.user_count = 12;
    config.synthesis.days = 3;
    return core::PrivacyAnalyzer::from_synthetic(core::AnalyzerConfig{}, config);
  }();
  return analyzer;
}

privacy::DetectionConfig detection_config(std::int64_t interval_s,
                                          std::vector<double> fractions) {
  const auto& analyzer = sweep_analyzer();
  privacy::DetectionConfig config(analyzer.grid());
  config.extraction = analyzer.config().extraction;
  config.match = analyzer.config().match;
  config.interval_s = interval_s;
  config.fractions = std::move(fractions);
  return config;
}

// The default 2 %..100 % grid, a seeded sorted list with duplicates, and a
// list holding both ends (0.0 is an empty prefix and must be skipped).
std::vector<std::vector<double>> fraction_lists() {
  stats::Rng rng(20170605);
  std::vector<double> seeded;
  for (int i = 0; i < 24; ++i) {
    const double f = static_cast<double>(rng.uniform_int(1, 40)) / 40.0;
    seeded.push_back(f);
    if (i % 4 == 0) seeded.push_back(f);
  }
  std::sort(seeded.begin(), seeded.end());
  return {privacy::DetectionConfig::make_default_fractions(), seeded,
          {0.0, 0.0, 0.01, 0.07, 0.33, 0.5, 1.0, 1.0}};
}

TEST(StayPointStreamProperty, SweepsMatchThePerProbeOracle) {
  const auto& analyzer = sweep_analyzer();
  std::size_t detected = 0;
  std::size_t sweeps = 0;
  for (const auto& fractions : fraction_lists())
    for (const std::int64_t interval_s : kIntervals) {
      const privacy::DetectionConfig config = detection_config(interval_s, fractions);
      for (std::size_t user = 0; user < analyzer.user_count(); ++user)
        for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements}) {
          SCOPED_TRACE(::testing::Message()
                       << "user=" << user << " pattern=" << static_cast<int>(pattern)
                       << " interval=" << interval_s << " probes=" << fractions.size());
          const auto& reference = analyzer.reference(user);
          const auto identified = privacy::earliest_identification(
              reference.points, analyzer.adversary(), user, pattern, config);
          const auto want_identified = oracle_identification(
              reference.points, analyzer.adversary(), user, pattern, config);
          ASSERT_EQ(identified.detected, want_identified.detected);
          ASSERT_TRUE(same_bits(identified.fraction, want_identified.fraction));

          const auto& profile =
              pattern == privacy::Pattern::kVisits ? reference.visits : reference.movements;
          const auto matched =
              privacy::earliest_detection(reference.points, profile, pattern, config);
          const auto want_matched =
              oracle_detection(reference.points, profile, pattern, config);
          ASSERT_EQ(matched.detected, want_matched.detected);
          ASSERT_TRUE(same_bits(matched.fraction, want_matched.fraction));
          detected += identified.detected + matched.detected;
          sweeps += 2;
        }
    }
  // Both outcomes occur, so the oracle is compared on hits and misses.
  EXPECT_GT(detected, 0u);
  EXPECT_LT(detected, sweeps);
}

// A probe at every prefix length of a one-day trace: a sweep that cut its
// prefix one fix early or late would fire one probe away from the oracle.
TEST(StayPointStreamProperty, SweepsMatchTheOracleWithAProbeAtEveryFix) {
  const auto& analyzer = sweep_analyzer();
  std::size_t detected = 0;
  for (std::size_t user = 0; user < 4; ++user) {
    const auto& all = analyzer.reference(user).points;
    const std::vector<trace::TracePoint> day(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(all.size() / 3));
    std::vector<double> fractions;
    for (std::size_t k = 1; k <= day.size(); ++k)
      fractions.push_back(static_cast<double>(k) / static_cast<double>(day.size()));
    for (const std::int64_t interval_s : kIntervals)
      for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements}) {
        SCOPED_TRACE(::testing::Message() << "user=" << user << " pattern="
                                          << static_cast<int>(pattern)
                                          << " interval=" << interval_s);
        const privacy::DetectionConfig config = detection_config(interval_s, fractions);
        const auto got = privacy::earliest_identification(day, analyzer.adversary(), user,
                                                          pattern, config);
        const auto want =
            oracle_identification(day, analyzer.adversary(), user, pattern, config);
        ASSERT_EQ(got.detected, want.detected);
        ASSERT_TRUE(same_bits(got.fraction, want.fraction));
        detected += got.detected;
      }
  }
  EXPECT_GT(detected, 0u);
}

TEST(StayPointStreamProperty, EdgeCasesMatchTheOracle) {
  const auto& analyzer = sweep_analyzer();
  const auto& reference = analyzer.reference(0);
  const poi::ExtractionParams params;

  // An empty stream has no stays; a stream shorter than the window none yet.
  EXPECT_TRUE(poi::StayPointStream(params).peek_close().empty());
  poi::StayPointStream short_stream(params);
  for (std::size_t k = 0; k + 1 < params.window_fixes; ++k) {
    short_stream.push(reference.points[k]);
    EXPECT_TRUE(short_stream.peek_close().empty());
  }

  const std::vector<trace::TracePoint> empty;
  const std::vector<trace::TracePoint> shorter(
      reference.points.begin(),
      reference.points.begin() + static_cast<std::ptrdiff_t>(params.window_fixes - 1));
  for (const std::int64_t interval_s : kIntervals)
    for (const auto* points : {&empty, &shorter})
      for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements}) {
        const privacy::DetectionConfig config =
            detection_config(interval_s, privacy::DetectionConfig::make_default_fractions());
        const auto got = privacy::earliest_identification(*points, analyzer.adversary(), 0,
                                                          pattern, config);
        const auto want =
            oracle_identification(*points, analyzer.adversary(), 0, pattern, config);
        EXPECT_FALSE(got.detected);
        EXPECT_EQ(got.detected, want.detected);
        EXPECT_TRUE(same_bits(got.fraction, want.fraction));
        const auto matched =
            privacy::earliest_detection(*points, reference.visits, pattern, config);
        EXPECT_FALSE(matched.detected);
        EXPECT_TRUE(same_bits(matched.fraction, 1.0));
      }

  // Contract checks: a fraction outside [0, 1], an unsorted list, a user
  // the adversary does not hold, and invalid extraction parameters.
  for (const std::vector<double>& fractions :
       {std::vector<double>{1.5}, std::vector<double>{0.5, 0.2}}) {
    const privacy::DetectionConfig config = detection_config(1, fractions);
    EXPECT_THROW(privacy::earliest_identification(reference.points, analyzer.adversary(),
                                                  0, privacy::Pattern::kMovements, config),
                 util::ContractViolation);
    EXPECT_THROW(privacy::earliest_detection(reference.points, reference.movements,
                                             privacy::Pattern::kMovements, config),
                 util::ContractViolation);
  }
  EXPECT_THROW(privacy::earliest_identification(
                   reference.points, analyzer.adversary(), analyzer.user_count(),
                   privacy::Pattern::kMovements, detection_config(1, {0.5})),
               util::ContractViolation);
  EXPECT_THROW(poi::StayPointStream({50.0, 600, 5}), util::ContractViolation);
  EXPECT_THROW(poi::StayPointStream({0.0, 600, 4}), util::ContractViolation);
  EXPECT_THROW(poi::StayPointStream({50.0, 0, 4}), util::ContractViolation);
}

}  // namespace
}  // namespace locpriv
