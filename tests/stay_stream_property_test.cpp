// StayPointStream property test: the streaming extractor, the one-pass
// prefix sweeps and the checkpointed shard streams built on it must agree
// exactly with from-scratch oracles. After every push the stream's
// peek_close() must equal a batch extraction of that prefix, field by field
// with doubles compared bit for bit, across corpus seeds x window sizes x
// radii x decimation intervals; peeking must change nothing; a stream fed in
// random batches and passed through encode_snapshot/parse_snapshot at random
// batch boundaries must keep matching the batch extraction of everything
// pushed so far, and evaluate_stays on it must equal evaluate_collected on
// those fixes; and earliest_identification / earliest_detection must return
// what the per-probe loop they replaced returns (cut the prefix, run the
// batch pipeline, test it) for every user, pattern and interval. Entry and
// exit decisions bisected onto the distance threshold, and non-finite or
// far-jumping fixes, must match the reference extractor too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "geo/geodesy.hpp"
#include "mobility/synthesis.hpp"
#include "poi/staypoint.hpp"
#include "privacy/detection.hpp"
#include "service/snapshot.hpp"
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
    it = cache.emplace(seed,
                       std::move(mobility::generate_dataset(config).users[0]).take_points())
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

// Random batch lengths for `n` fixes, about 30 batches, ending at n.
std::vector<std::size_t> batch_ends(std::size_t n, stats::Rng& rng) {
  std::vector<std::size_t> ends;
  const std::size_t most = std::max<std::size_t>(2, n / 15);
  for (std::size_t end = 0; end < n;) {
    end = std::min(n, end + static_cast<std::size_t>(rng.uniform_int(
                                1, static_cast<std::int64_t>(most))));
    ends.push_back(end);
  }
  return ends;
}

// The stream after a trip through the shard snapshot codec.
service::UserStays round_trip(const poi::ExtractionParams& params,
                              service::UserStays user) {
  service::ShardSnapshot snapshot;
  snapshot.params = params;
  snapshot.users.emplace("u", std::move(user));
  service::ShardSnapshot decoded =
      service::parse_snapshot(service::encode_snapshot(snapshot));
  return std::move(decoded.users.at("u"));
}

TEST(StayPointStreamProperty, RestoredSnapshotsContinueBitIdentically) {
  std::size_t comparisons = 0;
  std::size_t restores = 0;
  std::size_t restores_inside = 0;
  for (const std::uint64_t seed : kSeeds) {
    stats::Rng rng(seed + 200);
    for (const std::size_t window : kWindows)
      for (const double radius_m : kRadii)
        for (const std::int64_t interval_s : {1, 60, 600}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " window=" << window
                       << " radius=" << radius_m << " interval=" << interval_s);
          const poi::ExtractionParams params{radius_m, 600, window};
          const auto points = collected(corpus_trace(seed), interval_s);
          service::UserStays user(params);
          std::size_t begin = 0;
          for (const std::size_t end : batch_ends(points.size(), rng)) {
            for (std::size_t k = begin; k < end; ++k) user.stream.push(points[k]);
            user.fixes += end - begin;
            begin = end;
            if (rng.next_below(3) == 0) {
              restores_inside += user.stream.state().inside;
              user = round_trip(params, std::move(user));
              ++restores;
            }
            const std::vector<trace::TracePoint> prefix(
                points.begin(), points.begin() + static_cast<std::ptrdiff_t>(end));
            ASSERT_TRUE(same_stays(user.stream.peek_close(),
                                   poi::extract_stay_points(prefix, params)))
                << "after " << end << " of " << points.size() << " fixes";
            ASSERT_EQ(user.fixes, end);
            ++comparisons;
          }
        }
  }
  // 3 seeds x 24 cells x ~30 batches, a third of them restored, some of
  // those inside an open stay.
  EXPECT_GE(comparisons, 3u * 24u * 15u);
  EXPECT_GE(restores, comparisons / 5);
  EXPECT_GE(restores_inside, restores / 10);
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

bool same_report(const core::ExposureReport& a, const core::ExposureReport& b) {
  return a.interval_s == b.interval_s && a.collected_fixes == b.collected_fixes &&
         a.extracted_pois == b.extracted_pois &&
         a.poi_total.reference_count == b.poi_total.reference_count &&
         a.poi_total.recovered_count == b.poi_total.recovered_count &&
         a.poi_sensitive.reference_count == b.poi_sensitive.reference_count &&
         a.poi_sensitive.recovered_count == b.poi_sensitive.recovered_count &&
         a.hisbin_visits == b.hisbin_visits && a.hisbin_movements == b.hisbin_movements &&
         same_bits(a.anonymity_visits, b.anonymity_visits) &&
         same_bits(a.anonymity_movements, b.anonymity_movements) &&
         a.matches_movements == b.matches_movements &&
         a.identified_movements == b.identified_movements;
}

TEST(StayPointStreamProperty, EvaluateStaysEqualsEvaluateCollected) {
  const auto& analyzer = sweep_analyzer();
  const poi::ExtractionParams& params = analyzer.config().extraction;
  stats::Rng rng(20170606);
  std::size_t breaches = 0;
  std::size_t comparisons = 0;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    for (const std::int64_t interval_s : {1, 60, 600}) {
      SCOPED_TRACE(::testing::Message() << "user=" << u << " interval=" << interval_s);
      ASSERT_TRUE(same_report(analyzer.evaluate_stays(u, interval_s, 0, {}),
                              analyzer.evaluate_collected(u, interval_s, {})));
      const auto points = collected(analyzer.reference(u).points, interval_s);
      service::UserStays user(params);
      std::size_t begin = 0;
      for (const std::size_t end : batch_ends(points.size(), rng)) {
        for (std::size_t k = begin; k < end; ++k) user.stream.push(points[k]);
        user.fixes += end - begin;
        begin = end;
        if (rng.next_below(3) == 0) user = round_trip(params, std::move(user));
        const std::vector<trace::TracePoint> prefix(
            points.begin(), points.begin() + static_cast<std::ptrdiff_t>(end));
        const core::ExposureReport want = analyzer.evaluate_collected(u, interval_s, prefix);
        ASSERT_TRUE(same_report(
            analyzer.evaluate_stays(u, interval_s, user.fixes, user.stream.peek_close()),
            want))
            << "after " << end << " of " << points.size() << " fixes";
        breaches += want.breach_detected();
        ++comparisons;
      }
    }
  // Both outcomes occur, so the reports are compared on breaches and misses.
  EXPECT_GT(breaches, 0u);
  EXPECT_LT(breaches, comparisons);
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

// `v` moved by `ulps` representable doubles.
double nudged(double v, int ulps) {
  for (; ulps > 0; --ulps) v = std::nextafter(v, HUGE_VAL);
  for (; ulps < 0; ++ulps) v = std::nextafter(v, -HUGE_VAL);
  return v;
}

// Adjacent doubles on both sides of a flip of `decision`, bisected between
// `near` and `far`; nullopt when the two ends decide alike.
template <typename Decision>
std::optional<std::pair<double, double>> crossing(double near, double far,
                                                  Decision&& decision) {
  const bool at_near = decision(near);
  if (decision(far) == at_near) return std::nullopt;
  for (;;) {
    const double mid = near + (far - near) / 2;
    if (mid == near || mid == far) return std::pair{near, far};
    (decision(mid) == at_near ? near : far) = mid;
  }
}

enum class Axis { kLat, kLon, kDiagonal };

// One threshold probe: a window's two halves (entry) or a stay and the
// window after it (exit) sit mirrored about (lat0, lon0) along `axis`, and
// every fix carries a seeded jitter of up to `jitter_ulps` ulps per
// coordinate.
struct ThresholdCase {
  double lat0;
  double lon0;
  double radius_m;
  std::size_t window;
  Axis axis;
  bool entry;
  int jitter_ulps;
};

// Bisects the moved coordinate until the reference's decision flips between
// two adjacent doubles and compares the stream with the reference on both
// traces; nullopt when the ends decide alike. An entry probe follows a
// fast-moving primer and an exit probe a stay, so the stream's cached
// cosine comes from a nearby but different mean.
std::optional<::testing::AssertionResult> check_threshold(const ThresholdCase& c,
                                                          stats::Rng& rng) {
  constexpr double kMetersPerDegree = 111195.0;
  const poi::ExtractionParams params{c.radius_m, 1, c.window};
  const double lat_deg = c.radius_m / kMetersPerDegree;
  const double lon_deg =
      lat_deg / std::max(1e-4, std::abs(std::cos(geo::deg_to_rad(c.lat0))));
  const bool lat_moves = c.axis != Axis::kLon;
  const double base = lat_moves ? c.lat0 : c.lon0;
  const double reach = lat_moves ? lat_deg : lon_deg;
  // The diagonal also offsets the other coordinate, mirrored.
  const double side = c.axis == Axis::kDiagonal ? 0.3 * lon_deg : 0.0;
  const std::size_t primer = c.entry ? c.window : 0;
  const std::size_t stay = c.entry ? 0 : c.window + 1 + rng.next_below(3 * c.window);
  std::vector<int> jitter(2 * (primer + stay + c.window));
  for (int& ulps : jitter)
    ulps = static_cast<int>(rng.uniform_int(-c.jitter_ulps, c.jitter_ulps));
  const auto trace_at = [&](double y) {
    std::vector<trace::TracePoint> points;
    const auto add = [&](double lat, double lon) {
      const std::size_t i = points.size();
      points.push_back({{nudged(lat, jitter[2 * i]), nudged(lon, jitter[2 * i + 1])},
                        static_cast<std::int64_t>(i)});
    };
    // Far enough that no window holding a primer fix nears the threshold.
    for (std::size_t i = 0; i < primer; ++i)
      add(c.lat0, c.lon0 + 100.0 * static_cast<double>(c.window * (primer - i)) * lon_deg);
    // The fixes before the moved ones sit at the mirror image of y.
    const std::size_t still = c.entry ? c.window / 2 : stay;
    const std::size_t moved = c.entry ? c.window / 2 : c.window;
    const double mirror = 2 * base - y;
    for (std::size_t i = 0; i < still + moved; ++i) {
      const double at = i < still ? mirror : y;
      if (lat_moves)
        add(at, i < still ? c.lon0 - side : c.lon0 + side);
      else
        add(c.lat0, at);
    }
    return points;
  };
  const auto decision = [&](double y) {
    const auto stays = reference_extract(trace_at(y), params);
    // Entered; or not exited, so the open stay holds every fix after the
    // first entry window's leading half.
    return c.entry ? !stays.empty()
                   : !stays.empty() &&
                         stays.back().fix_count == stay + c.window - c.window / 2;
  };
  const auto ends = crossing(base, base + 3 * reach, decision);
  if (!ends) return std::nullopt;
  for (const double y : {ends->first, ends->second}) {
    const auto points = trace_at(y);
    auto same = same_stays(poi::extract_stay_points(points, params),
                           reference_extract(points, params));
    if (!same) return same << " at y=" << y;
  }
  return ::testing::AssertionSuccess();
}

// Entry and exit decisions pushed onto the distance threshold over
// latitudes, longitudes near 0 and +-180, radii and windows; then repeated
// draws where a single term of the filter's margin must carry the error:
// latitude 0 along the meridian (the relative margin) and near the poles
// along the parallel (the cosine slack). Then fixes with NaN and +-inf
// coordinates, and a trace that jumps 1,000 km, so the cached cosine is far
// off.
TEST(StayPointStreamProperty, DecisionsAtTheThresholdMatchTheOracle) {
  stats::Rng rng(20170607);
  std::size_t crossings = 0;
  const auto check = [&](const ThresholdCase& c) {
    SCOPED_TRACE(::testing::Message()
                 << "lat=" << c.lat0 << " lon=" << c.lon0 << " radius=" << c.radius_m
                 << " window=" << c.window << " axis=" << static_cast<int>(c.axis)
                 << (c.entry ? " entry" : " exit"));
    const auto result = check_threshold(c, rng);
    if (!result) return;
    EXPECT_TRUE(*result);
    ++crossings;
  };
  for (const double lat0 : {0.0, 45.0, -45.0, 89.9, -89.9, 95.0})
    for (const double lon0 : {0.0, 179.9995, -179.9995})
      for (const double radius_m : {1e-3, 50.0, 100.0, 1e5})
        for (const std::size_t window : kWindows)
          for (const Axis axis : {Axis::kLat, Axis::kLon, Axis::kDiagonal})
            for (const bool entry : {true, false})
              check({lat0, lon0, radius_m, window, axis, entry, 3});
  EXPECT_EQ(crossings, 6u * 3u * 4u * 4u * 3u * 2u);
  // Each round also draws a radius: where the exact formula's rounding and
  // the filter's threshold part by more than the absolute term, only the
  // relative margin is left.
  for (int round = 0; round < 24; ++round) {
    const double drawn_m = std::pow(10.0, rng.uniform(-3.0, 5.0));
    for (const auto& [lat0, axis] : {std::pair{0.0, Axis::kLat}, {89.9, Axis::kLon},
                                     {-89.9, Axis::kLon}, {89.99, Axis::kLon}})
      for (const double radius_m : {50.0, 1e5, drawn_m})
        for (const std::size_t window : kWindows)
          for (const bool entry : {true, false})
            check({lat0, 0.0, radius_m, window, axis, entry, 1});
  }
  EXPECT_EQ(crossings, 6u * 3u * 4u * 4u * 3u * 2u + 24u * 4u * 3u * 4u * 2u);

  // Non-finite fixes, and a 1,000 km jump a day into the trace.
  const auto& day = corpus_trace(11);
  std::vector<trace::TracePoint> broken = trace::decimate(day, 10);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < broken.size(); i += 997) {
    geo::LatLon& p = broken[i].position;
    switch (i % 4) {
      case 0: p.lat_deg = nan; break;
      case 1: p.lon_deg = inf; break;
      case 2: p.lat_deg = -inf; break;
      default: p.lon_deg = nan; break;
    }
  }
  std::vector<trace::TracePoint> jump(day.begin(), day.begin() + day.size() / 2);
  const std::int64_t shift = jump.back().timestamp_s + 1 - day.front().timestamp_s;
  for (std::size_t i = 0; i < day.size() / 2; ++i) {
    trace::TracePoint p = day[i];
    p.position.lat_deg += 9.0;
    p.timestamp_s += shift;
    jump.push_back(p);
  }
  for (const auto* points : {&broken, &jump})
    for (const std::size_t window : kWindows)
      for (const double radius_m : {1e-3, 50.0, 1e5}) {
        const poi::ExtractionParams params{radius_m, 600, window};
        ASSERT_TRUE(same_stays(poi::extract_stay_points(*points, params),
                               reference_extract(*points, params)))
            << "window=" << window << " radius=" << radius_m;
      }
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
