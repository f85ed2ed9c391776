#include <gtest/gtest.h>

#include "android/device.hpp"
#include "geo/geodesy.hpp"
#include "lppm/policy.hpp"
#include "privacy/uniqueness.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

// ----------------------------------------------------------- guardian ---

TEST(GuardianPolicy, DefaultRulesRealForegroundCoarseBackground) {
  const lppm::GuardianPolicy policy(kAnchor, 1000.0);
  const geo::LatLon somewhere = geo::destination(kAnchor, 45.0, 3333.0);
  EXPECT_EQ(policy.decide("any.app", /*backgrounded=*/false, somewhere),
            lppm::ReleaseDecision::kReal);
  EXPECT_EQ(policy.decide("any.app", /*backgrounded=*/true, somewhere),
            lppm::ReleaseDecision::kCoarse);
}

TEST(GuardianPolicy, ApplyCoarsensAndFixes) {
  lppm::GuardianPolicy policy(kAnchor, 1000.0);
  const geo::LatLon truth = geo::destination(kAnchor, 45.0, 3333.0);

  geo::LatLon coarse = truth;
  ASSERT_TRUE(policy.apply("app", true, coarse));
  EXPECT_GT(geo::haversine_m(coarse, truth), 1.0);       // Moved to a cell center...
  EXPECT_LT(geo::haversine_m(coarse, truth), 710.0);     // ...within half a diagonal.

  lppm::GuardianRules fixed_rules;
  fixed_rules.background = lppm::ReleaseDecision::kFixed;
  policy.set_app_rules("app", fixed_rules);
  geo::LatLon fixed = truth;
  ASSERT_TRUE(policy.apply("app", true, fixed));
  EXPECT_LT(geo::haversine_m(fixed, kAnchor), 0.5);
}

TEST(GuardianPolicy, ProtectedPlaceBlocksEveryone) {
  lppm::GuardianPolicy policy(kAnchor, 1000.0);
  lppm::GuardianRules trusted;
  trusted.foreground = lppm::ReleaseDecision::kReal;
  trusted.background = lppm::ReleaseDecision::kReal;
  policy.set_app_rules("trusted.app", trusted);
  policy.protect_place(kAnchor, 150.0);

  geo::LatLon at_home = geo::destination(kAnchor, 10.0, 50.0);
  EXPECT_EQ(policy.decide("trusted.app", false, at_home),
            lppm::ReleaseDecision::kBlock);
  EXPECT_FALSE(policy.apply("trusted.app", false, at_home));
  geo::LatLon away = geo::destination(kAnchor, 10.0, 5000.0);
  EXPECT_TRUE(policy.apply("trusted.app", true, away));
}

TEST(GuardianPolicy, Preconditions) {
  EXPECT_THROW(lppm::GuardianPolicy(kAnchor, 0.0), util::ContractViolation);
  lppm::GuardianPolicy policy(kAnchor);
  EXPECT_THROW(policy.protect_place(kAnchor, 0.0), util::ContractViolation);
  EXPECT_THROW(policy.set_app_rules("", lppm::GuardianRules{}),
               util::ContractViolation);
}

// ----------------------------------------------- release hook on device --

android::AndroidManifest spy_manifest() {
  android::AndroidManifest manifest;
  manifest.package_name = "com.spy";
  manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  return manifest;
}

android::AppBehavior spy_behavior(std::int64_t interval) {
  android::AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {android::LocationProvider::kGps};
  behavior.request_interval_s = interval;
  return behavior;
}

TEST(ReleaseHook, GuardianCoarsensBackgroundDeliveriesOnDevice) {
  android::DeviceSimulator device(1, geo::destination(kAnchor, 45.0, 3333.0));
  lppm::GuardianPolicy policy(kAnchor, 1000.0);
  device.location_manager().set_release_hook(
      [&](const std::string& package, android::Location& fix) {
        const bool backgrounded =
            device.app(package).state == android::AppState::kBackground;
        return policy.apply(package, backgrounded, fix.position);
      });

  device.install(spy_manifest(), spy_behavior(5));
  device.launch("com.spy");
  device.advance(6);  // Foreground: true fixes.
  const auto& log = device.location_manager().delivery_log();
  ASSERT_FALSE(log.empty());
  EXPECT_LT(geo::haversine_m(log.back().location.position, device.position()), 1.0);

  device.move_to_background("com.spy");
  device.advance(10);  // Background: coarsened fixes.
  EXPECT_GT(geo::haversine_m(log.back().location.position, device.position()), 1.0);
}

TEST(ReleaseHook, BlockSuppressesDeliveryButConsumesRequest) {
  android::DeviceSimulator device(1, kAnchor);
  device.location_manager().set_release_hook(
      [](const std::string&, android::Location&) { return false; });
  device.install(spy_manifest(), spy_behavior(5));
  device.launch("com.spy");
  device.advance(30);
  EXPECT_TRUE(device.location_manager().delivery_log().empty());
  // Re-enabling releases resumes delivery at the request's cadence.
  device.location_manager().set_release_hook(nullptr);
  device.advance(10);
  EXPECT_FALSE(device.location_manager().delivery_log().empty());
}

// ----------------------------------------------------------- unicity ----

TEST(Unicity, QuantizeBucketsSpaceAndTime) {
  const privacy::RegionGrid grid(kAnchor, 250.0);
  std::vector<trace::TracePoint> points{
      {kAnchor, 0},
      {geo::destination(kAnchor, 10.0, 5.0), 1800},  // Same cell, same hour.
      {kAnchor, 3700},                               // Next hour bucket.
      {geo::destination(kAnchor, 90.0, 2000.0), 0},  // Different cell.
  };
  const auto quantized = privacy::quantize_trace(points, grid, 1);
  EXPECT_EQ(quantized.size(), 3u);
  EXPECT_THROW(privacy::quantize_trace(points, grid, 0), util::ContractViolation);
}

TEST(Unicity, DisjointUsersAreUniqueAtOnePoint) {
  // Three users in disjoint cells: one point identifies anyone.
  std::vector<std::set<privacy::StPoint>> corpus;
  for (int u = 0; u < 3; ++u) {
    std::set<privacy::StPoint> points;
    for (int t = 0; t < 6; ++t) points.emplace(1000 + u, t);
    corpus.push_back(std::move(points));
  }
  stats::Rng rng(1);
  const auto result = privacy::unicity(corpus, 3, 5, rng);
  for (const double fraction : result.unique_fraction)
    EXPECT_DOUBLE_EQ(fraction, 1.0);
}

TEST(Unicity, IdenticalUsersAreNeverUnique) {
  std::set<privacy::StPoint> shared;
  for (int t = 0; t < 8; ++t) shared.emplace(7, t);
  const std::vector<std::set<privacy::StPoint>> corpus{shared, shared};
  stats::Rng rng(1);
  const auto result = privacy::unicity(corpus, 3, 5, rng);
  for (const double fraction : result.unique_fraction)
    EXPECT_DOUBLE_EQ(fraction, 0.0);
}

TEST(Unicity, MorePointsNeverLessUnique) {
  // Overlapping users: unicity must be monotone in p.
  std::vector<std::set<privacy::StPoint>> corpus;
  for (int u = 0; u < 6; ++u) {
    std::set<privacy::StPoint> points;
    for (int t = 0; t < 10; ++t) points.emplace(100 + (t + u) % 8, t);
    corpus.push_back(std::move(points));
  }
  stats::Rng rng(3);
  const auto result = privacy::unicity(corpus, 4, 30, rng);
  for (std::size_t p = 1; p < result.unique_fraction.size(); ++p)
    EXPECT_GE(result.unique_fraction[p] + 0.05, result.unique_fraction[p - 1]);
}

TEST(Unicity, Preconditions) {
  stats::Rng rng(1);
  EXPECT_THROW(privacy::unicity({}, 3, 5, rng), util::ContractViolation);
  const std::vector<std::set<privacy::StPoint>> corpus{{{1, 1}}};
  EXPECT_THROW(privacy::unicity(corpus, 0, 5, rng), util::ContractViolation);
  EXPECT_THROW(privacy::unicity(corpus, 1, 0, rng), util::ContractViolation);
}

}  // namespace
}  // namespace locpriv
