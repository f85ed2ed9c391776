// Trace replay through the framework, and its agreement with the
// analytical decimate() model used by the §IV experiments.
#include <gtest/gtest.h>

#include "android/replay.hpp"
#include "geo/geodesy.hpp"
#include "mobility/synthesis.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv::android {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

AndroidManifest spy_manifest() {
  AndroidManifest manifest;
  manifest.package_name = "com.spy";
  manifest.uses_permissions = {Permission::kAccessFineLocation};
  return manifest;
}

AppBehavior spy_behavior(std::int64_t interval_s) {
  AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {LocationProvider::kGps};
  behavior.request_interval_s = interval_s;
  return behavior;
}

std::vector<trace::TracePoint> straight_walk(std::int64_t t0, int fixes,
                                             std::int64_t step_s) {
  std::vector<trace::TracePoint> points;
  for (int i = 0; i < fixes; ++i)
    points.push_back(
        {geo::destination(kAnchor, 90.0, i * 5.0), t0 + i * step_s});
  return points;
}

TEST(Replay, DeliversAtRequestedIntervalWhileMoving) {
  DeviceSimulator device(1, kAnchor);
  const auto points = straight_walk(1000, 200, 2);  // 400 s of walking.
  device.jump_to(points.front().timestamp_s - 1);
  device.install(spy_manifest(), spy_behavior(20));
  device.launch("com.spy");
  device.move_to_background("com.spy");

  const std::size_t ticks = replay_trace(device, points, /*sync_clock=*/false);
  EXPECT_EQ(ticks, 399u);
  const auto fixes = collected_fixes(device.location_manager(), "com.spy");
  // ~400 s / 20 s = ~20 fixes, spaced >= 20 s.
  EXPECT_GE(fixes.size(), 19u);
  EXPECT_LE(fixes.size(), 21u);
  for (std::size_t i = 1; i < fixes.size(); ++i)
    EXPECT_GE(fixes[i].timestamp_s - fixes[i - 1].timestamp_s, 20);
}

TEST(Replay, CollectedPositionsTrackTheTrace) {
  DeviceSimulator device(1, kAnchor);
  const auto points = straight_walk(5000, 300, 3);
  device.jump_to(points.front().timestamp_s - 1);
  device.install(spy_manifest(), spy_behavior(10));
  device.launch("com.spy");
  const std::size_t ticks = replay_trace(device, points, /*sync_clock=*/false);
  (void)ticks;
  for (const auto& fix : collected_fixes(device.location_manager(), "com.spy")) {
    // Find the trace position at (or just before) the delivery time.
    const trace::TracePoint* last = &points.front();
    for (const auto& point : points) {
      if (point.timestamp_s > fix.timestamp_s) break;
      last = &point;
    }
    EXPECT_LT(geo::haversine_m(fix.position, last->position), 10.0);
  }
}

TEST(Replay, HoldsPositionAcrossRecordingGaps) {
  DeviceSimulator device(1, kAnchor);
  // Two short legs separated by a 2,000 s silence.
  auto points = straight_walk(1000, 20, 2);
  const geo::LatLon hold_position = points.back().position;
  const auto second_leg = straight_walk(5000, 20, 2);
  points.insert(points.end(), second_leg.begin(), second_leg.end());

  device.jump_to(points.front().timestamp_s - 1);
  device.install(spy_manifest(), spy_behavior(100));
  device.launch("com.spy");
  replay_trace(device, points, /*sync_clock=*/false);

  // Deliveries inside the gap report the held (last) position.
  bool saw_gap_fix = false;
  for (const auto& fix : collected_fixes(device.location_manager(), "com.spy")) {
    if (fix.timestamp_s > 1040 && fix.timestamp_s < 5000) {
      saw_gap_fix = true;
      EXPECT_LT(geo::haversine_m(fix.position, hold_position), 1.0);
    }
  }
  EXPECT_TRUE(saw_gap_fix);
}

TEST(Replay, SyncClockVariantLaunchAfterSync) {
  DeviceSimulator device(1, kAnchor);
  const auto points = straight_walk(123456, 50, 2);
  // sync_clock = true path: no apps yet, replay syncs, nothing delivered.
  EXPECT_GT(replay_trace(device, points), 0u);
  EXPECT_EQ(device.now_s(), points.back().timestamp_s);
  EXPECT_TRUE(device.location_manager().delivery_log().empty());
}

TEST(Replay, EmptyTraceIsNoop) {
  DeviceSimulator device(1, kAnchor);
  EXPECT_EQ(replay_trace(device, {}), 0u);
}

TEST(Replay, JumpToRequiresQuietFramework) {
  DeviceSimulator device(1, kAnchor);
  device.install(spy_manifest(), spy_behavior(10));
  device.launch("com.spy");
  EXPECT_THROW(device.jump_to(999), util::ContractViolation);
}

TEST(Replay, AgreesWithDecimateModelOnRealTrace) {
  // The central coherence property: framework sampling of a replayed trace
  // collects, within each recorded span, essentially what decimate()
  // predicts. (The framework also reports held positions during recording
  // gaps; those extra fixes sit at the last stay and only reinforce it.)
  stats::Rng rng(77);
  mobility::CityConfig city_config;
  const mobility::CityModel city(city_config, rng);
  const int home = city.pois_of_category(mobility::PoiCategory::kHome).front();
  const auto profile = mobility::build_user_profile(city, "replay", home,
                                                    mobility::ProfileConfig{}, rng);
  mobility::SynthesisConfig synthesis;
  synthesis.days = 2;
  const auto user = mobility::simulate_user(city, profile, synthesis, rng);
  const auto& points = user.trace.points();

  constexpr std::int64_t kInterval = 60;
  DeviceSimulator device(1, points.front().position);
  device.jump_to(points.front().timestamp_s - 1);
  device.install(spy_manifest(), spy_behavior(kInterval));
  device.launch("com.spy");
  replay_trace(device, points, /*sync_clock=*/false);
  const auto framework = collected_fixes(device.location_manager(), "com.spy");
  const auto analytical = trace::decimate(points, kInterval);

  // Keep only framework fixes that fall within 2 s of a recorded fix (the
  // rest are gap-hold fixes by construction).
  std::size_t in_span = 0;
  std::size_t matched = 0;
  std::size_t trace_index = 0;
  for (const auto& fix : framework) {
    while (trace_index + 1 < points.size() &&
           points[trace_index + 1].timestamp_s <= fix.timestamp_s)
      ++trace_index;
    if (fix.timestamp_s - points[trace_index].timestamp_s > 2) continue;
    ++in_span;
    if (geo::haversine_m(fix.position, points[trace_index].position) < 10.0)
      ++matched;
  }
  ASSERT_GT(in_span, 50u);
  EXPECT_EQ(matched, in_span);  // Every in-span fix tracks the trace.
  // The framework samples continuously (gap-hold included), so it never
  // collects fewer fixes than the analytical model, and its total is the
  // replay duration over the interval (first delivery at sync + 1).
  EXPECT_GE(framework.size(), analytical.size());
  const auto duration = points.back().timestamp_s - points.front().timestamp_s;
  EXPECT_NEAR(static_cast<double>(framework.size()),
              static_cast<double>(duration) / static_cast<double>(kInterval), 3.0);
}

}  // namespace
}  // namespace locpriv::android
