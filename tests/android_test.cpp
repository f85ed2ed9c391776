#include <gtest/gtest.h>

#include "android/device.hpp"
#include "android/dumpsys.hpp"
#include "android/location.hpp"
#include "android/location_manager.hpp"
#include "android/permissions.hpp"
#include "util/expect.hpp"

namespace locpriv::android {
namespace {

const geo::LatLon kDeskPosition{39.9042, 116.4074};

AndroidManifest manifest_with(std::vector<Permission> permissions,
                              const std::string& package = "com.example.app") {
  AndroidManifest manifest;
  manifest.package_name = package;
  manifest.uses_permissions = std::move(permissions);
  return manifest;
}

TEST(Permissions, SetSemantics) {
  PermissionSet set;
  EXPECT_FALSE(set.any_location());
  set.grant(Permission::kAccessCoarseLocation);
  set.grant(Permission::kAccessCoarseLocation);  // Idempotent.
  EXPECT_EQ(set.permissions().size(), 1u);
  EXPECT_TRUE(set.any_location());
  EXPECT_FALSE(set.fine_location());
  set.grant(Permission::kAccessFineLocation);
  EXPECT_TRUE(set.fine_location());
}

TEST(Permissions, ManifestGranularityClaims) {
  EXPECT_EQ(manifest_with({Permission::kAccessFineLocation}).declared_granularity(),
            "Fine");
  EXPECT_EQ(manifest_with({Permission::kAccessCoarseLocation}).declared_granularity(),
            "Coarse");
  EXPECT_EQ(manifest_with({Permission::kAccessFineLocation,
                           Permission::kAccessCoarseLocation})
                .declared_granularity(),
            "Fine & Coarse");
  EXPECT_EQ(manifest_with({}).declared_granularity(), "None");
  EXPECT_FALSE(manifest_with({}).declares_location());
  EXPECT_TRUE(manifest_with({Permission::kAccessFineLocation}).declares_location());
}

TEST(Location, ProviderNamesRoundTrip) {
  for (const auto provider :
       {LocationProvider::kGps, LocationProvider::kNetwork, LocationProvider::kPassive,
        LocationProvider::kFused}) {
    LocationProvider parsed;
    ASSERT_TRUE(parse_provider(provider_name(provider), parsed));
    EXPECT_EQ(parsed, provider);
  }
  LocationProvider parsed;
  EXPECT_FALSE(parse_provider("bluetooth", parsed));
}

TEST(Location, ProviderYieldsFineClassification) {
  EXPECT_TRUE(provider_yields_fine(LocationProvider::kGps, Granularity::kCoarse));
  EXPECT_TRUE(provider_yields_fine(LocationProvider::kFused, Granularity::kFine));
  EXPECT_FALSE(provider_yields_fine(LocationProvider::kFused, Granularity::kCoarse));
  EXPECT_FALSE(provider_yields_fine(LocationProvider::kNetwork, Granularity::kFine));
  EXPECT_FALSE(provider_yields_fine(LocationProvider::kPassive, Granularity::kFine));
}

TEST(Location, ComboLabelsMatchTableOne) {
  EXPECT_EQ(provider_combo_label({LocationProvider::kGps}), "gps");
  EXPECT_EQ(provider_combo_label({LocationProvider::kNetwork, LocationProvider::kGps}),
            "gps network");
  EXPECT_EQ(provider_combo_label({LocationProvider::kNetwork, LocationProvider::kFused}),
            "fused network");
  EXPECT_EQ(provider_combo_label({LocationProvider::kGps, LocationProvider::kNetwork,
                                  LocationProvider::kPassive}),
            "gps network passive");
}

TEST(LocationManager, GpsRequiresFinePermission) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet coarse_only({Permission::kAccessCoarseLocation});
  EXPECT_THROW(manager.request_updates("pkg", LocationProvider::kGps, 10,
                                       Granularity::kFine, coarse_only, 0),
               SecurityException);
  const PermissionSet none;
  EXPECT_THROW(manager.request_updates("pkg", LocationProvider::kNetwork, 10,
                                       Granularity::kCoarse, none, 0),
               SecurityException);
  EXPECT_THROW(manager.request_updates("pkg", LocationProvider::kFused, 10,
                                       Granularity::kFine, coarse_only, 0),
               SecurityException);
  // Coarse fused is fine with a coarse permission.
  EXPECT_NO_THROW(manager.request_updates("pkg", LocationProvider::kFused, 10,
                                          Granularity::kCoarse, coarse_only, 0));
}

TEST(LocationManager, ReRegisterReplaces) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet fine({Permission::kAccessFineLocation});
  manager.request_updates("pkg", LocationProvider::kGps, 10, Granularity::kFine, fine, 0);
  manager.request_updates("pkg", LocationProvider::kGps, 60, Granularity::kFine, fine, 5);
  ASSERT_EQ(manager.active_requests().size(), 1u);
  EXPECT_EQ(manager.active_requests()[0].interval_s, 60);
}

TEST(LocationManager, DeliversAtRequestedInterval) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet fine({Permission::kAccessFineLocation});
  manager.request_updates("pkg", LocationProvider::kGps, 10, Granularity::kFine, fine, 0);
  for (std::int64_t t = 1; t <= 35; ++t) manager.tick(t, kDeskPosition);
  // Deliveries at t=1 (first), 11, 21, 31.
  EXPECT_EQ(manager.delivery_log().size(), 4u);
  EXPECT_TRUE(manager.has_last_known());
  EXPECT_EQ(manager.last_known().provider, LocationProvider::kGps);
}

TEST(LocationManager, PassivePiggybacksOnActiveDeliveries) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet fine({Permission::kAccessFineLocation});
  const PermissionSet coarse({Permission::kAccessCoarseLocation});
  manager.request_updates("active", LocationProvider::kGps, 5, Granularity::kFine, fine,
                          0);
  manager.request_updates("lurker", LocationProvider::kPassive, 1, Granularity::kCoarse,
                          coarse, 0);
  for (std::int64_t t = 1; t <= 11; ++t) manager.tick(t, kDeskPosition);
  std::size_t active_count = 0;
  std::size_t passive_count = 0;
  for (const auto& delivery : manager.delivery_log()) {
    if (delivery.package == "active") ++active_count;
    if (delivery.package == "lurker") {
      ++passive_count;
      EXPECT_EQ(delivery.location.provider, LocationProvider::kPassive);
    }
  }
  EXPECT_EQ(active_count, 3u);   // t = 1, 6, 11.
  EXPECT_EQ(passive_count, 3u);  // Piggybacked on each.
}

TEST(LocationManager, PassiveAloneGetsNothing) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet coarse({Permission::kAccessCoarseLocation});
  manager.request_updates("lurker", LocationProvider::kPassive, 1, Granularity::kCoarse,
                          coarse, 0);
  for (std::int64_t t = 1; t <= 60; ++t) manager.tick(t, kDeskPosition);
  EXPECT_TRUE(manager.delivery_log().empty());
}

TEST(LocationManager, RemoveUpdatesStopsDeliveries) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet fine({Permission::kAccessFineLocation});
  manager.request_updates("pkg", LocationProvider::kGps, 5, Granularity::kFine, fine, 0);
  manager.tick(1, kDeskPosition);
  manager.remove_updates("pkg", LocationProvider::kGps);
  for (std::int64_t t = 2; t <= 30; ++t) manager.tick(t, kDeskPosition);
  EXPECT_EQ(manager.delivery_log().size(), 1u);
  EXPECT_TRUE(manager.active_requests().empty());
}

TEST(LocationManager, AccuracyReflectsProvider) {
  LocationManager manager((stats::Rng(1)));
  const PermissionSet both({Permission::kAccessFineLocation,
                            Permission::kAccessCoarseLocation});
  manager.request_updates("a", LocationProvider::kGps, 5, Granularity::kFine, both, 0);
  manager.request_updates("b", LocationProvider::kNetwork, 5, Granularity::kCoarse, both,
                          0);
  manager.request_updates("c", LocationProvider::kFused, 5, Granularity::kFine, both, 0);
  manager.tick(1, kDeskPosition);
  double gps_accuracy = 0.0;
  double network_accuracy = 0.0;
  double fused_accuracy = 0.0;
  for (const auto& delivery : manager.delivery_log()) {
    if (delivery.package == "a") gps_accuracy = delivery.location.accuracy_m;
    if (delivery.package == "b") network_accuracy = delivery.location.accuracy_m;
    if (delivery.package == "c") {
      EXPECT_EQ(delivery.location.provider, LocationProvider::kFused);
      fused_accuracy = delivery.location.accuracy_m;
    }
  }
  EXPECT_LT(gps_accuracy, 15.0);
  EXPECT_GT(network_accuracy, 300.0);
  // A fine fused request gets gps-grade fixes.
  EXPECT_GT(fused_accuracy, 0.0);
  EXPECT_LT(fused_accuracy, 15.0);
}

AppBehavior background_gps_behavior(std::int64_t interval = 10) {
  AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {LocationProvider::kGps};
  behavior.request_interval_s = interval;
  return behavior;
}

TEST(Device, LifecycleBasics) {
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}),
                 background_gps_behavior());
  EXPECT_TRUE(device.is_installed("com.example.app"));
  EXPECT_EQ(device.app("com.example.app").state, AppState::kNotRunning);
  device.launch("com.example.app");
  EXPECT_EQ(device.app("com.example.app").state, AppState::kForeground);
  EXPECT_TRUE(device.app("com.example.app").location_active);
  device.move_to_background("com.example.app");
  EXPECT_EQ(device.app("com.example.app").state, AppState::kBackground);
  EXPECT_TRUE(device.app("com.example.app").location_active);  // Keeps listening.
  device.close("com.example.app");
  EXPECT_EQ(device.app("com.example.app").state, AppState::kNotRunning);
  EXPECT_FALSE(device.app("com.example.app").location_active);
  device.uninstall("com.example.app");
  EXPECT_FALSE(device.is_installed("com.example.app"));
}

TEST(Device, DuplicateInstallRejected) {
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}),
                 background_gps_behavior());
  EXPECT_THROW(device.install(manifest_with({Permission::kAccessFineLocation}),
                              background_gps_behavior()),
               util::ContractViolation);
}

TEST(Device, ForegroundOnlyAppLosesListenersInBackground) {
  AppBehavior behavior = background_gps_behavior();
  behavior.continues_in_background = false;
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}), behavior);
  device.launch("com.example.app");
  EXPECT_FALSE(device.location_manager().active_requests().empty());
  device.move_to_background("com.example.app");
  EXPECT_TRUE(device.location_manager().active_requests().empty());
}

TEST(Device, NonAutoStartAppWaitsForTrigger) {
  AppBehavior behavior = background_gps_behavior();
  behavior.auto_start_on_launch = false;
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}), behavior);
  device.launch("com.example.app");
  EXPECT_TRUE(device.location_manager().active_requests().empty());
  device.trigger_location_use("com.example.app");
  EXPECT_FALSE(device.location_manager().active_requests().empty());
}

TEST(Device, OverPrivilegedAppNeverRegisters) {
  AppBehavior behavior;  // Declares but never uses location.
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}), behavior);
  device.launch("com.example.app");
  device.trigger_location_use("com.example.app");
  device.advance(10);
  EXPECT_TRUE(device.location_manager().active_requests().empty());
  EXPECT_TRUE(device.location_manager().delivery_log().empty());
}

TEST(Device, LaunchingSecondAppBackgroundsFirst) {
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}, "com.a"),
                 background_gps_behavior());
  device.install(manifest_with({Permission::kAccessFineLocation}, "com.b"),
                 background_gps_behavior());
  device.launch("com.a");
  device.launch("com.b");
  EXPECT_EQ(device.app("com.a").state, AppState::kBackground);
  EXPECT_EQ(device.app("com.b").state, AppState::kForeground);
}

TEST(Device, AdvanceDrivesDeliveries) {
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}),
                 background_gps_behavior(10));
  device.launch("com.example.app");
  device.advance(25);
  EXPECT_EQ(device.now_s(), 25);
  EXPECT_GE(device.location_manager().delivery_log().size(), 3u);
}

TEST(Dumpsys, ReportListsRequests) {
  DeviceSimulator device(7, kDeskPosition);
  device.install(manifest_with({Permission::kAccessFineLocation}),
                 background_gps_behavior(42));
  device.launch("com.example.app");
  device.advance(2);
  const std::string report =
      dumpsys_location_report(device.location_manager(), device.now_s());
  EXPECT_NE(report.find("Request[gps]"), std::string::npos);
  EXPECT_NE(report.find("pkg=com.example.app"), std::string::npos);
  EXPECT_NE(report.find("interval=42s"), std::string::npos);
  EXPECT_NE(report.find("Last Known Location"), std::string::npos);
}

TEST(Dumpsys, ParseRoundTrip) {
  DeviceSimulator device(7, kDeskPosition);
  AppBehavior behavior = background_gps_behavior(15);
  behavior.providers = {LocationProvider::kGps, LocationProvider::kNetwork};
  device.install(manifest_with({Permission::kAccessFineLocation,
                                Permission::kAccessCoarseLocation}),
                 behavior);
  device.launch("com.example.app");
  const std::string report =
      dumpsys_location_report(device.location_manager(), device.now_s());
  const auto requests = parse_dumpsys_location(report);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].package, "com.example.app");
  EXPECT_EQ(requests[0].interval_s, 15);
  EXPECT_EQ(requests[0].granularity, Granularity::kFine);
}

TEST(Dumpsys, EmptyManagerYieldsNoRequests) {
  LocationManager manager((stats::Rng(1)));
  const std::string report = dumpsys_location_report(manager, 0);
  EXPECT_TRUE(parse_dumpsys_location(report).empty());
  EXPECT_EQ(report.find("Active Requests"), std::string::npos);
}

TEST(Dumpsys, MalformedLinesRejected) {
  EXPECT_THROW(parse_dumpsys_location("Request[gps pkg=x interval=5s granularity=fine"),
               std::runtime_error);
  EXPECT_THROW(
      parse_dumpsys_location("Request[teleport] pkg=x interval=5s granularity=fine"),
      std::runtime_error);
  EXPECT_THROW(parse_dumpsys_location("Request[gps] pkg=x interval=5s granularity=warm"),
               std::runtime_error);
  EXPECT_THROW(parse_dumpsys_location("Request[gps] pkg=x interval=five granularity=fine"),
               std::runtime_error);
  // Unknown non-request lines are ignored.
  EXPECT_TRUE(parse_dumpsys_location("Telephony state: idle\n").empty());
}

}  // namespace
}  // namespace locpriv::android
