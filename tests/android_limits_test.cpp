// The Android 8 background-location-limits policy and the defense
// evaluation harness built on top of the analyzer.
#include <gtest/gtest.h>

#include "android/device.hpp"
#include "core/defense_eval.hpp"
#include "core/experiment.hpp"
#include "market/study.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

using android::AppBehavior;
using android::AndroidManifest;
using android::DeviceSimulator;
using android::LocationProvider;
using android::Permission;

const geo::LatLon kDesk{39.9042, 116.4074};

AndroidManifest fine_manifest(const std::string& package) {
  AndroidManifest manifest;
  manifest.package_name = package;
  manifest.uses_permissions = {Permission::kAccessFineLocation};
  return manifest;
}

AppBehavior fast_background_behavior() {
  AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {LocationProvider::kGps};
  behavior.request_interval_s = 5;
  return behavior;
}

TEST(BackgroundLimits, ThrottlesBackgroundedApp) {
  DeviceSimulator device(1, kDesk);
  device.enable_background_location_limits(1800);
  device.install(fine_manifest("com.fast"), fast_background_behavior());
  device.launch("com.fast");
  // Foreground: full rate.
  EXPECT_EQ(device.location_manager().requests_of("com.fast")[0].interval_s, 5);
  device.move_to_background("com.fast");
  // Background: clamped to the policy interval.
  EXPECT_EQ(device.location_manager().requests_of("com.fast")[0].interval_s, 1800);
  // Foregrounding restores the requested rate.
  device.launch("com.fast");
  EXPECT_EQ(device.location_manager().requests_of("com.fast")[0].interval_s, 5);
}

TEST(BackgroundLimits, SlowRequestersUnaffected) {
  DeviceSimulator device(1, kDesk);
  device.enable_background_location_limits(1800);
  AppBehavior behavior = fast_background_behavior();
  behavior.request_interval_s = 7200;  // Already slower than the policy.
  device.install(fine_manifest("com.slow"), behavior);
  device.launch("com.slow");
  device.move_to_background("com.slow");
  EXPECT_EQ(device.location_manager().requests_of("com.slow")[0].interval_s, 7200);
}

TEST(BackgroundLimits, EnablingAppliesToAlreadyBackgroundedApps) {
  DeviceSimulator device(1, kDesk);
  device.install(fine_manifest("com.fast"), fast_background_behavior());
  device.launch("com.fast");
  device.move_to_background("com.fast");
  EXPECT_EQ(device.location_manager().requests_of("com.fast")[0].interval_s, 5);
  device.enable_background_location_limits(1800);
  EXPECT_EQ(device.location_manager().requests_of("com.fast")[0].interval_s, 1800);
  EXPECT_THROW(device.enable_background_location_limits(0), util::ContractViolation);
}

TEST(BackgroundLimits, DeliveryRateActuallyDrops) {
  DeviceSimulator unlimited(1, kDesk);
  DeviceSimulator limited(1, kDesk);
  limited.enable_background_location_limits(60);
  for (DeviceSimulator* device : {&unlimited, &limited}) {
    device->install(fine_manifest("com.fast"), fast_background_behavior());
    device->launch("com.fast");
    device->move_to_background("com.fast");
    device->location_manager().clear_delivery_log();
    device->advance(300);
  }
  // 300 s at 5 s vs at 60 s.
  EXPECT_GE(unlimited.location_manager().delivery_log().size(), 50u);
  EXPECT_LE(limited.location_manager().delivery_log().size(), 6u);
}

TEST(BackgroundLimits, MarketStudyShowsCollapsedIntervals) {
  // A reduced catalog run is too entangled with the calibrated quotas, so
  // run the full study (fast) under the policy and check every background
  // interval is at least the throttle.
  const market::Catalog catalog = market::generate_catalog(market::CatalogConfig{});
  const market::MarketReport report =
      market::run_market_study(catalog, 7, /*background_limits_s=*/1800);
  EXPECT_EQ(report.background, 102);  // Who listens is unchanged...
  for (const std::int64_t interval : report.background_intervals)
    EXPECT_GE(interval, 1800);        // ...how often they hear is not.
}

TEST(DefenseEval, IdentityDefenseMatchesUndefendedExposure) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 8;
  dataset.synthesis.days = 5;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);
  const lppm::IdentityDefense identity;
  const core::DefenseOutcome outcome =
      core::evaluate_defense(analyzer, identity, 1, /*seed=*/3);
  EXPECT_DOUBLE_EQ(outcome.poi_total_fraction, 1.0);
  EXPECT_DOUBLE_EQ(outcome.release_ratio, 1.0);
  // Duplicate timestamps in a trace can pair a released fix with the other
  // same-second fix, so the error is near zero rather than exactly zero.
  EXPECT_NEAR(outcome.mean_position_error_m, 0.0, 0.1);
  EXPECT_GT(outcome.users_identified, 4);
}

TEST(DefenseEval, ThrottleTradesVolumeNotAccuracy) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 8;
  dataset.synthesis.days = 5;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);
  const lppm::ThrottleDefense throttle(600);
  const core::DefenseOutcome outcome =
      core::evaluate_defense(analyzer, throttle, 1, 3);
  EXPECT_LT(outcome.release_ratio, 0.05);          // Volume collapses...
  EXPECT_DOUBLE_EQ(outcome.mean_position_error_m, 0.0);  // ...accuracy intact.
  EXPECT_LT(outcome.poi_total_fraction, 1.0);
}

TEST(DefenseEval, SnappingTradesAccuracyNotVolume) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 8;
  dataset.synthesis.days = 5;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);
  const lppm::GridSnapDefense snap(1000.0, dataset.city.anchor);
  const core::DefenseOutcome outcome = core::evaluate_defense(analyzer, snap, 1, 3);
  EXPECT_DOUBLE_EQ(outcome.release_ratio, 1.0);
  EXPECT_GT(outcome.mean_position_error_m, 200.0);
  EXPECT_LT(outcome.poi_total_fraction, 0.5);
  EXPECT_LT(outcome.users_identified, 3);
}

}  // namespace
}  // namespace locpriv
