#include <gtest/gtest.h>

#include <map>
#include <set>

#include "geo/geodesy.hpp"
#include "mobility/city.hpp"
#include "mobility/profile.hpp"
#include "mobility/synthesis.hpp"
#include "trace/trace_stats.hpp"
#include "util/expect.hpp"

namespace locpriv::mobility {
namespace {

CityModel make_city(std::uint64_t seed = 1) {
  stats::Rng rng(seed);
  CityConfig config;
  return CityModel(config, rng);
}

TEST(City, GeneratesRequestedPoiPool) {
  const CityModel city = make_city();
  EXPECT_EQ(city.pois().size(), 400u);
  // Every category is represented (first kPoiCategoryCount ids guarantee it).
  for (int c = 0; c < kPoiCategoryCount; ++c)
    EXPECT_FALSE(city.pois_of_category(static_cast<PoiCategory>(c)).empty());
}

TEST(City, PoisLieWithinGridExtent) {
  const CityModel city = make_city();
  const double max_east = city.config().blocks_x * city.config().block_m;
  const double max_north = city.config().blocks_y * city.config().block_m;
  for (const PoiSite& site : city.pois()) {
    const geo::EastNorth plane = city.projection().to_plane(site.position);
    // Jitter is Gaussian (sigma 60 m); allow a generous margin.
    EXPECT_GT(plane.east_m, -400.0);
    EXPECT_LT(plane.east_m, max_east + 400.0);
    EXPECT_GT(plane.north_m, -400.0);
    EXPECT_LT(plane.north_m, max_north + 400.0);
  }
}

TEST(City, NearestIntersectionSnapsAndClamps) {
  const CityModel city = make_city();
  const geo::LatLon inside = city.projection().to_geo({730.0, 260.0});
  const geo::EastNorth snapped = city.projection().to_plane(city.nearest_intersection(inside));
  EXPECT_NEAR(snapped.east_m, 500.0, 1e-6);
  EXPECT_NEAR(snapped.north_m, 500.0, 1e-6);
  // Far outside the grid clamps to the boundary.
  const geo::LatLon outside = city.projection().to_geo({-9000.0, 1e6});
  const geo::EastNorth clamped = city.projection().to_plane(city.nearest_intersection(outside));
  EXPECT_NEAR(clamped.east_m, 0.0, 1e-6);
  EXPECT_NEAR(clamped.north_m, city.config().blocks_y * city.config().block_m, 1e-3);
}

TEST(City, RoutesConnectEndpointsAlongGrid) {
  const CityModel city = make_city();
  stats::Rng rng(5);
  const geo::LatLon from = city.poi(0).position;
  const geo::LatLon to = city.poi(50).position;
  const auto route = city.plan_route(from, to, rng);
  ASSERT_GE(route.size(), 2u);
  EXPECT_EQ(route.front(), from);
  EXPECT_EQ(route.back(), to);
  // Route length at least the straight-line distance, at most ~3x for a
  // Manhattan detour on this grid.
  const double direct = geo::haversine_m(from, to);
  const double length = geo::polyline_length_m(route);
  EXPECT_GE(length, direct - 1.0);
  EXPECT_LE(length, 3.0 * direct + 4.0 * city.config().block_m);
}

TEST(City, RouteToSelfIsTrivial) {
  const CityModel city = make_city();
  stats::Rng rng(5);
  const auto route = city.plan_route(city.poi(3).position, city.poi(3).position, rng);
  EXPECT_EQ(route.size(), 1u);
}

TEST(Profile, ContainsHomeWorkAndAmenities) {
  const CityModel city = make_city();
  stats::Rng rng(9);
  const int home = city.pois_of_category(PoiCategory::kHome).front();
  const UserProfile profile =
      build_user_profile(city, "042", home, ProfileConfig{}, rng);
  EXPECT_EQ(profile.user_id, "042");
  EXPECT_EQ(profile.home_poi(), home);
  EXPECT_EQ(city.poi(profile.work_poi()).category, PoiCategory::kWork);
  EXPECT_GE(profile.place_count(), 3u);
  // No duplicate places.
  std::set<int> unique(profile.poi_ids.begin(), profile.poi_ids.end());
  EXPECT_EQ(unique.size(), profile.poi_ids.size());
}

TEST(Profile, TransitionMatricesAreRowStochastic) {
  const CityModel city = make_city();
  stats::Rng rng(9);
  const int home = city.pois_of_category(PoiCategory::kHome).front();
  const UserProfile profile =
      build_user_profile(city, "u", home, ProfileConfig{}, rng);
  for (const auto* matrix : {&profile.weekday_transition, &profile.weekend_transition}) {
    ASSERT_EQ(matrix->size(), profile.place_count());
    for (std::size_t i = 0; i < matrix->size(); ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < (*matrix)[i].size(); ++j) {
        EXPECT_GE((*matrix)[i][j], 0.0);
        row_sum += (*matrix)[i][j];
      }
      EXPECT_NEAR(row_sum, 1.0, 1e-9);
      EXPECT_DOUBLE_EQ((*matrix)[i][i], 0.0);  // No self transitions.
    }
  }
}

TEST(Profile, RequiresHomeCategorySite) {
  const CityModel city = make_city();
  stats::Rng rng(9);
  const int work = city.pois_of_category(PoiCategory::kWork).front();
  EXPECT_THROW(build_user_profile(city, "u", work, ProfileConfig{}, rng),
               util::ContractViolation);
}

TEST(Profile, DistinctUsersGetDistinctHabits) {
  const CityModel city = make_city();
  stats::Rng rng(9);
  const auto homes = city.pois_of_category(PoiCategory::kHome);
  const UserProfile a = build_user_profile(city, "a", homes[0], ProfileConfig{}, rng);
  const UserProfile b = build_user_profile(city, "b", homes[1], ProfileConfig{}, rng);
  EXPECT_NE(a.poi_ids, b.poi_ids);
}

TEST(DwellModel, HomeAndWorkDwellLongest) {
  EXPECT_GT(dwell_model(PoiCategory::kHome).mu_log_s,
            dwell_model(PoiCategory::kShop).mu_log_s);
  EXPECT_GT(dwell_model(PoiCategory::kWork).mu_log_s,
            dwell_model(PoiCategory::kTransit).mu_log_s);
}

SimulatedUser simulate_one(int days = 6, std::uint64_t seed = 11) {
  const CityModel city = make_city();
  stats::Rng rng(seed);
  const int home = city.pois_of_category(PoiCategory::kHome).front();
  const UserProfile profile =
      build_user_profile(city, "000", home, ProfileConfig{}, rng);
  SynthesisConfig config;
  config.days = days;
  return simulate_user(city, profile, config, rng);
}

TEST(Synthesis, OneTrajectoryPerDayChronological) {
  const SimulatedUser user = simulate_one(6);
  EXPECT_EQ(user.trace.session_count(), 6u);
  for (std::size_t d = 1; d < user.trace.session_count(); ++d)
    EXPECT_LT(user.trace.session(d - 1).back().timestamp_s,
              user.trace.session(d).front().timestamp_s);
}

TEST(Synthesis, VisitsAreChronologicalAndAtProfilePlaces) {
  const SimulatedUser user = simulate_one();
  ASSERT_FALSE(user.ground_truth.visits.empty());
  const std::set<int> places(user.ground_truth.poi_ids.begin(),
                             user.ground_truth.poi_ids.end());
  std::int64_t previous_exit = 0;
  for (const VisitEvent& visit : user.ground_truth.visits) {
    EXPECT_TRUE(places.contains(visit.poi_id));
    EXPECT_GE(visit.enter_s, previous_exit);
    EXPECT_GT(visit.exit_s, visit.enter_s);
    previous_exit = visit.exit_s;
  }
}

TEST(Synthesis, EveryDayStartsAndEndsAtHome) {
  const SimulatedUser user = simulate_one();
  const int home = user.ground_truth.poi_ids.front();
  // First visit of the log is the morning home stay.
  EXPECT_EQ(user.ground_truth.visits.front().poi_id, home);
}

TEST(Synthesis, SamplingIsGeolifeLike) {
  const SimulatedUser user = simulate_one(8);
  const auto stats = trace::compute_dataset_stats({user.trace});
  // The paper's corpus: ~91 % of consecutive intervals in 1..5 s.
  EXPECT_GT(stats.high_frequency_fraction, 0.80);
  EXPECT_LE(stats.median_interval_s, 5.0);
  EXPECT_GT(stats.point_count, 1000u);
}

TEST(Synthesis, FixesStayNearTheCity) {
  const SimulatedUser user = simulate_one(3);
  const CityModel city = make_city();
  for (const auto& point : user.trace.points()) {
    const geo::EastNorth plane = city.projection().to_plane(point.position);
    EXPECT_GT(plane.east_m, -2000.0);
    EXPECT_LT(plane.east_m, 15000.0);
    EXPECT_GT(plane.north_m, -2000.0);
    EXPECT_LT(plane.north_m, 15000.0);
  }
}

TEST(Synthesis, DeterministicGivenSeed) {
  const SimulatedUser a = simulate_one(3, 77);
  const SimulatedUser b = simulate_one(3, 77);
  EXPECT_EQ(a.trace.points(), b.trace.points());
  ASSERT_EQ(a.trace.session_count(), b.trace.session_count());
  for (std::size_t d = 0; d < a.trace.session_count(); ++d)
    EXPECT_EQ(a.trace.session(d).size(), b.trace.session(d).size());
}

TEST(Dataset, GeneratesRequestedUsers) {
  DatasetConfig config;
  config.user_count = 8;
  config.synthesis.days = 3;
  const SyntheticDataset dataset = generate_dataset(config);
  EXPECT_EQ(dataset.users.size(), 8u);
  EXPECT_EQ(dataset.profiles.size(), 8u);
  EXPECT_EQ(dataset.ground_truths.size(), 8u);
  for (std::size_t u = 0; u < dataset.users.size(); ++u) {
    EXPECT_EQ(dataset.users[u].user_id, dataset.profiles[u].user_id);
    EXPECT_GT(dataset.users[u].session_count(), 0u);
  }
}

TEST(Dataset, UsersHaveDistinctHomes) {
  DatasetConfig config;
  config.user_count = 10;
  config.synthesis.days = 2;
  const SyntheticDataset dataset = generate_dataset(config);
  std::set<int> homes;
  for (const auto& profile : dataset.profiles) homes.insert(profile.home_poi());
  EXPECT_EQ(homes.size(), 10u);
}

TEST(Dataset, SharedHomesAssignUsersPerBuilding) {
  DatasetConfig config;
  config.user_count = 12;
  config.users_per_home = 4;
  config.synthesis.days = 2;
  const SyntheticDataset dataset = generate_dataset(config);
  std::map<int, int> residents;
  for (const auto& profile : dataset.profiles) ++residents[profile.home_poi()];
  ASSERT_EQ(residents.size(), 3u);  // 12 users / 4 per home.
  for (const auto& [home, count] : residents) {
    (void)home;
    EXPECT_EQ(count, 4);
  }
}

TEST(Dataset, SharedHomesRejectInvalidConfig) {
  DatasetConfig config;
  config.user_count = 10;
  config.users_per_home = 0;
  EXPECT_THROW(generate_dataset(config), util::ContractViolation);
}

TEST(Dataset, FailsWhenTooFewHomeSites) {
  DatasetConfig config;
  config.user_count = 50;
  config.city.poi_count = 40;  // Cannot hold 50 distinct homes.
  EXPECT_THROW(generate_dataset(config), util::ContractViolation);
}

TEST(Dataset, DeterministicAcrossRuns) {
  DatasetConfig config;
  config.user_count = 4;
  config.synthesis.days = 2;
  const SyntheticDataset a = generate_dataset(config);
  const SyntheticDataset b = generate_dataset(config);
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t u = 0; u < a.users.size(); ++u)
    EXPECT_EQ(a.users[u].points().size(), b.users[u].points().size());
}

class DatasetScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetScaleTest, PointBudgetScalesWithDays) {
  // Property: more simulated days yield proportionally more fixes (within a
  // factor of ~2 slack for daily variation).
  DatasetConfig config;
  config.user_count = 3;
  config.synthesis.days = GetParam();
  const SyntheticDataset dataset = generate_dataset(config);
  std::size_t total = 0;
  for (const auto& user : dataset.users) total += user.points().size();
  const double per_day =
      static_cast<double>(total) / (3.0 * static_cast<double>(GetParam()));
  EXPECT_GT(per_day, 300.0);
  EXPECT_LT(per_day, 8000.0);
}

INSTANTIATE_TEST_SUITE_P(Days, DatasetScaleTest, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace locpriv::mobility
