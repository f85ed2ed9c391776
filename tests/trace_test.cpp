#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geo/geodesy.hpp"
#include "stats/rng.hpp"
#include "trace/geolife.hpp"
#include "trace/sampling.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trajectory.hpp"
#include "util/expect.hpp"

namespace locpriv::trace {
namespace {

TracePoint point_at(std::int64_t t, double lat = 39.9, double lon = 116.4) {
  return {{lat, lon}, t};
}

// A trace built from whole sessions, in order.
UserTrace make_trace(const std::string& user_id,
                     const std::vector<std::vector<TracePoint>>& sessions) {
  UserTrace user;
  user.user_id = user_id;
  for (const auto& session : sessions) {
    user.begin_session();
    for (const auto& point : session) user.append(point);
  }
  return user;
}

TEST(UserTrace, AppendChecksOrderWithinAndAcrossSessions) {
  UserTrace user;
  user.append(point_at(10));
  user.append(point_at(10));  // Equal timestamps allowed.
  user.append(point_at(11));
  EXPECT_THROW(user.append(point_at(5)), util::ContractViolation);

  // The check spans a session boundary, and a refused fix opens no session.
  user.begin_session();
  EXPECT_THROW(user.append(point_at(9)), util::ContractViolation);
  EXPECT_EQ(user.session_count(), 1u);
  user.append(point_at(11));  // Equal across the boundary is allowed too.
  EXPECT_EQ(user.points().size(), 4u);
  ASSERT_EQ(user.session_count(), 2u);
  EXPECT_EQ(user.session(0).size(), 3u);
  EXPECT_EQ(user.session(1).size(), 1u);
  EXPECT_THROW(user.session(2), util::ContractViolation);
}

TEST(UserTrace, EmptySessionIsNeverRecorded) {
  UserTrace user;
  user.begin_session();
  user.begin_session();
  EXPECT_EQ(user.session_count(), 0u);
  user.append(point_at(0));
  user.begin_session();
  user.begin_session();
  user.append(point_at(5));
  user.append(point_at(6));
  user.begin_session();  // Trailing: records nothing.
  ASSERT_EQ(user.session_count(), 2u);
  EXPECT_EQ(user.session(0).size(), 1u);
  EXPECT_EQ(user.session(1).size(), 2u);

  // Without begin_session, the first fix still opens a session.
  UserTrace implicit;
  implicit.append(point_at(1));
  EXPECT_EQ(implicit.session_count(), 1u);

  // Taking the fixes leaves a defined state: no fixes and no sessions.
  const auto points = std::move(user).take_points();
  EXPECT_EQ(points.size(), 3u);
  EXPECT_TRUE(user.points().empty());  // NOLINT(bugprone-use-after-move): defined.
  EXPECT_EQ(user.session_count(), 0u);
}

// UserTrace against a vector of sessions driven by the same seeded appends
// and session starts; the model records every session, empty or not, and
// the trace must hold exactly the non-empty ones.
TEST(UserTrace, MatchesANestedVectorModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    stats::Rng rng(seed);
    UserTrace user;
    std::vector<std::vector<TracePoint>> model(1);
    std::int64_t t = rng.uniform_int(-1000, 1000);
    const auto operations = rng.uniform_int(0, 300);
    for (std::int64_t op = 0; op < operations; ++op) {
      if (rng.bernoulli(0.1)) {
        user.begin_session();
        model.emplace_back();
        continue;
      }
      t += rng.uniform_int(0, 4);
      const TracePoint point = point_at(t, rng.uniform(39.0, 40.0), rng.uniform(116.0, 117.0));
      user.append(point);
      model.back().push_back(point);
    }
    std::erase_if(model, [](const auto& session) { return session.empty(); });

    std::vector<TracePoint> all;
    for (const auto& session : model) all.insert(all.end(), session.begin(), session.end());
    EXPECT_EQ(user.points(), all) << "seed " << seed;
    ASSERT_EQ(user.session_count(), model.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
      const auto session = user.session(i);
      EXPECT_EQ(std::vector<TracePoint>(session.begin(), session.end()), model[i])
          << "seed " << seed << " session " << i;
    }
  }
}

TEST(Geolife, TimestampConversionsRoundTrip) {
  // 2008-10-24 02:09:59 UTC from the Geolife user guide example.
  const std::int64_t unix_s = plt_days_to_unix_s(39745.0902662037);
  EXPECT_NEAR(static_cast<double>(unix_s), 1224814199.0, 1.0);
  EXPECT_NEAR(unix_s_to_plt_days(unix_s), 39745.0902662037, 1e-7);
}

TEST(Geolife, ParsesCanonicalPlt) {
  const std::string text =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n2\n"
      "39.906631,116.385564,0,492,39745.0902662037,2008-10-24,02:09:59\n"
      "39.906554,116.385625,0,492,39745.0903240741,2008-10-24,02:10:04\n";
  const auto fixes = parse_plt(text);
  ASSERT_EQ(fixes.size(), 2u);
  EXPECT_NEAR(fixes[0].position.lat_deg, 39.906631, 1e-9);
  EXPECT_NEAR(fixes[0].position.lon_deg, 116.385564, 1e-9);
  EXPECT_EQ(fixes[1].timestamp_s - fixes[0].timestamp_s, 5);
}

TEST(Geolife, RejectsMalformedRecords) {
  const std::string header =
      "h1\nh2\nh3\nh4\nh5\nh6\n";
  EXPECT_THROW(parse_plt(header + "not,enough\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "abc,116.4,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "95.0,116.4,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "39.9,200.0,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "39.9,116.4,0,0,xyz\n"), std::runtime_error);
}

TEST(Geolife, WriteParseRoundTrip) {
  const std::vector<TracePoint> original{{{39.906631, 116.385564}, 1224814199},
                                         {{39.984702, 116.318417}, 1224814210}};
  const auto parsed = parse_plt(write_plt(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(parsed[i].position.lat_deg, original[i].position.lat_deg, 1e-6);
    EXPECT_NEAR(parsed[i].position.lon_deg, original[i].position.lon_deg, 1e-6);
    EXPECT_EQ(parsed[i].timestamp_s, original[i].timestamp_s);
  }
}

TEST(Geolife, DatasetRoundTripThroughFilesystem) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "locpriv_geolife_test";
  std::filesystem::remove_all(root);

  const std::vector<UserTrace> users{
      make_trace("000", {{{{39.90, 116.40}, 1224814000}, {{39.91, 116.41}, 1224814060}},
                         {{{39.92, 116.42}, 1224900000}, {{39.93, 116.43}, 1224900060},
                          {{39.94, 116.44}, 1224900061}}}),
      make_trace("001", {{{{40.00, 116.30}, 1224814000}}})};

  write_geolife_dataset(root, users);
  const auto loaded = read_geolife_dataset(root);
  ASSERT_EQ(loaded.size(), users.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    EXPECT_EQ(loaded[u].user_id, users[u].user_id);
    EXPECT_EQ(loaded[u].points().size(), users[u].points().size());
    ASSERT_EQ(loaded[u].session_count(), users[u].session_count());
    for (std::size_t s = 0; s < users[u].session_count(); ++s) {
      const auto written = users[u].session(s);
      const auto read = loaded[u].session(s);
      ASSERT_EQ(read.size(), written.size()) << "user " << u << " session " << s;
      for (std::size_t i = 0; i < read.size(); ++i) {
        // .plt keeps six decimals of a degree and whole seconds.
        EXPECT_NEAR(read[i].position.lat_deg, written[i].position.lat_deg, 1e-6);
        EXPECT_NEAR(read[i].position.lon_deg, written[i].position.lon_deg, 1e-6);
        EXPECT_EQ(read[i].timestamp_s, written[i].timestamp_s);
      }
    }
  }

  std::filesystem::remove_all(root);
}

TEST(Geolife, ReadMissingRootThrows) {
  EXPECT_THROW(read_geolife_dataset("/nonexistent/geolife/root"),
               std::runtime_error);
}

TEST(Decimate, KeepsFirstThenRespectsInterval) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t <= 100; ++t) points.push_back(point_at(t));
  const auto sampled = decimate(points, 10);
  ASSERT_EQ(sampled.size(), 11u);
  for (std::size_t i = 1; i < sampled.size(); ++i)
    EXPECT_GE(sampled[i].timestamp_s - sampled[i - 1].timestamp_s, 10);
  EXPECT_EQ(sampled.front().timestamp_s, 0);
}

TEST(Decimate, IntervalOneKeepsOneHertzTrace) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 50; ++t) points.push_back(point_at(t));
  EXPECT_EQ(decimate(points, 1).size(), 50u);
}

TEST(Decimate, SparseInputPassesThrough) {
  // If the trace is already sparser than the interval, every fix is kept.
  std::vector<TracePoint> points{point_at(0), point_at(500), point_at(1200)};
  EXPECT_EQ(decimate(points, 100).size(), 3u);
}

TEST(Decimate, EmptyAndPreconditions) {
  EXPECT_TRUE(decimate({}, 10).empty());
  std::vector<TracePoint> points{point_at(0)};
  EXPECT_THROW(decimate(points, 0), util::ContractViolation);
}

// decimate against the greedy rule applied one fix at a time, on seeded
// traces that are sorted, unsorted, repeat timestamps, or start polling after
// their last fix.
TEST(Decimate, EqualsThePerFixRule) {
  const auto per_fix = [](const std::vector<TracePoint>& points, std::int64_t interval_s,
                          std::int64_t start_s) {
    std::vector<TracePoint> kept;
    Decimator decimator(interval_s, start_s);
    for (const auto& point : points)
      if (decimator.keep(point)) kept.push_back(point);
    return kept;
  };
  stats::Rng rng(2017);
  for (int trial = 0; trial < 200; ++trial) {
    const auto kind = trial % 4;
    std::vector<TracePoint> points;
    std::int64_t t = rng.uniform_int(-1000, 1000);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    for (std::size_t i = 0; i < n; ++i) {
      t += kind == 1 ? rng.uniform_int(-30, 30) : rng.uniform_int(kind == 2 ? 0 : 1, 9);
      points.push_back(point_at(t));
    }
    for (const std::int64_t interval_s : {1, 2, 7, 60, 3600}) {
      const std::int64_t start_s = kind == 3 ? t + rng.uniform_int(1, 100)
                                             : t - rng.uniform_int(0, 3000);
      EXPECT_EQ(decimate(points, interval_s, start_s), per_fix(points, interval_s, start_s))
          << "trial " << trial << " interval " << interval_s;
      if (!points.empty()) {
        EXPECT_EQ(decimate(points, interval_s),
                  per_fix(points, interval_s, points.front().timestamp_s));
      }
    }
  }
}

// The due time saturates instead of wrapping: at interval INT64_MAX one fix
// is collected, and timestamps near INT64_MAX or a start at INT64_MIN keep
// what the unbounded rule keeps.
TEST(Decimate, SaturatesAtTheLargestTimestamp) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  std::vector<TracePoint> day;
  for (std::int64_t t = 1'200'000'000; t < 1'200'086'400; t += 5) day.push_back(point_at(t));
  EXPECT_EQ(decimate(day, kMax).size(), 1u);
  EXPECT_EQ(collect(day, kMax).size(), 1u);
  Decimator collecting = collector(kMax, day.front().timestamp_s);
  std::size_t kept = 0;
  for (const auto& point : day) kept += collecting.keep(point);
  EXPECT_EQ(kept, 1u);
  EXPECT_EQ(decimate(day, 7200, kMin), decimate(day, 7200));
  EXPECT_EQ(decimate(day, kMax, kMin).size(), 1u);

  const std::vector<TracePoint> late{point_at(kMax - 5), point_at(kMax - 3),
                                     point_at(kMax), point_at(kMax)};
  const auto times = [](const std::vector<TracePoint>& points) {
    std::vector<std::int64_t> out;
    for (const auto& point : points) out.push_back(point.timestamp_s);
    return out;
  };
  // kMax - 5 + 3 is due before kMax; kMax + 3 is past every timestamp.
  EXPECT_EQ(times(decimate(late, 3)), (std::vector<std::int64_t>{kMax - 5, kMax}));
  // kMax - 5 + 5 is exactly kMax, which is still due.
  EXPECT_EQ(times(decimate(late, 5)), (std::vector<std::int64_t>{kMax - 5, kMax}));
  EXPECT_EQ(times(decimate(late, kMax)), (std::vector<std::int64_t>{kMax - 5}));
  EXPECT_EQ(times(decimate(late, kMax, kMin)), (std::vector<std::int64_t>{kMax - 5}));
  EXPECT_EQ(times(collect(late, kMax)), (std::vector<std::int64_t>{kMax - 5}));
  EXPECT_THROW(Decimator(-1, 0), util::ContractViolation);
}

class DecimateIntervalTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DecimateIntervalTest, CountShrinksMonotonically) {
  // Property: a longer interval never yields more fixes.
  std::vector<TracePoint> points;
  stats::Rng rng(99);
  std::int64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.uniform_int(1, 5);
    points.push_back(point_at(t));
  }
  const std::int64_t interval = GetParam();
  const auto coarse = decimate(points, interval);
  const auto fine = decimate(points, std::max<std::int64_t>(1, interval / 2));
  EXPECT_LE(coarse.size(), fine.size());
  // And the decimated trace is a subsequence: strictly increasing times.
  for (std::size_t i = 1; i < coarse.size(); ++i)
    EXPECT_GT(coarse[i].timestamp_s, coarse[i - 1].timestamp_s);
}

INSTANTIATE_TEST_SUITE_P(Ladder, DecimateIntervalTest,
                         ::testing::Values(2, 10, 60, 600, 3600, 7200));

TEST(TakePrefixFraction, BoundaryBehaviour) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 10; ++t) points.push_back(point_at(t));
  EXPECT_TRUE(take_prefix_fraction(points, 0.0).empty());
  EXPECT_EQ(take_prefix_fraction(points, 1.0).size(), 10u);
  EXPECT_EQ(take_prefix_fraction(points, 0.35).size(), 4u);  // Rounded.
  EXPECT_THROW(take_prefix_fraction(points, 1.5), util::ContractViolation);
}

TEST(FromRandomOffset, SuffixOfOriginal) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 100; ++t) points.push_back(point_at(t));
  stats::Rng rng(4);
  const auto suffix = from_random_offset(points, rng);
  ASSERT_FALSE(suffix.empty());
  EXPECT_EQ(suffix.back().timestamp_s, 99);
  EXPECT_EQ(suffix.front().timestamp_s,
            static_cast<std::int64_t>(100 - suffix.size()));
}

TEST(DatasetStats, ComputesAggregates) {
  std::vector<TracePoint> walk;
  for (std::int64_t t = 0; t < 100; t += 2)
    walk.push_back({{39.9 + 1e-5 * static_cast<double>(t), 116.4}, t});
  // A second session a day later and about 14 km away: neither the gap
  // nor the jump between the sessions counts toward length, duration or
  // the sampling intervals.
  const std::vector<TracePoint> hop{point_at(86400, 40.0, 116.5), point_at(86402, 40.0, 116.51)};
  const auto stats = compute_dataset_stats({make_trace("x", {walk, hop})});
  EXPECT_EQ(stats.user_count, 1u);
  EXPECT_EQ(stats.trajectory_count, 2u);
  EXPECT_EQ(stats.point_count, 52u);
  EXPECT_DOUBLE_EQ(stats.high_frequency_fraction, 1.0);  // All 2 s gaps.
  EXPECT_DOUBLE_EQ(stats.median_interval_s, 2.0);

  double walk_m = 0.0;
  for (std::size_t i = 1; i < walk.size(); ++i)
    walk_m += geo::haversine_m(walk[i - 1].position, walk[i].position);
  const double hop_m = geo::haversine_m(hop[0].position, hop[1].position);
  EXPECT_DOUBLE_EQ(stats.total_length_km, walk_m / 1000.0 + hop_m / 1000.0);
  EXPECT_DOUBLE_EQ(stats.total_duration_hours, 98.0 / 3600.0 + 2.0 / 3600.0);
}

}  // namespace
}  // namespace locpriv::trace
