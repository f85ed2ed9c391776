// Cross-cutting edge cases that don't belong to a single module's file:
// degenerate corpus sizes, unusual-but-legal inputs, and interactions
// between features (guardian + fused, O-limits + replay).
#include <gtest/gtest.h>

#include "android/replay.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "geo/geodesy.hpp"
#include "lppm/policy.hpp"
#include "trace/geolife.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

TEST(EdgeCases, SingleUserAnalyzerIdentifiesTrivially) {
  // With one stored profile, any match means full identification (the
  // paper's degree-of-anonymity is 0 by definition for N = 1).
  mobility::DatasetConfig dataset;
  dataset.user_count = 1;
  dataset.synthesis.days = 4;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);
  const auto report = analyzer.evaluate_exposure(0, 1);
  EXPECT_TRUE(report.breach_detected());
  EXPECT_DOUBLE_EQ(report.anonymity_movements, 0.0);
}

TEST(EdgeCases, AnalyzerOnTinyTraceDoesNotCrash) {
  // A user with a trace too short for any stay: no PoIs, empty histograms,
  // exposure must degrade gracefully rather than throw.
  trace::UserTrace user;
  user.user_id = "tiny";
  for (std::int64_t t = 0; t < 30; t += 3)
    user.append({geo::destination(kAnchor, 90.0, static_cast<double>(t)), t});

  // A second, normal-ish user so profiles exist.
  mobility::DatasetConfig dataset;
  dataset.user_count = 1;
  dataset.synthesis.days = 3;
  auto synthetic = mobility::generate_dataset(dataset);
  std::vector<trace::UserTrace> users{user, std::move(synthetic.users[0])};

  const core::PrivacyAnalyzer analyzer(core::experiment_analyzer_config(),
                                       std::move(users));
  const auto report = analyzer.evaluate_exposure(0, 1);
  EXPECT_EQ(report.extracted_pois, 0u);
  EXPECT_FALSE(report.breach_detected());
  EXPECT_DOUBLE_EQ(report.poi_total.fraction(), 1.0);  // Nothing existed to leak.
}

TEST(EdgeCases, GeolifeParserToleratesBlankAndShortFiles) {
  EXPECT_TRUE(trace::parse_plt("").empty());
  EXPECT_TRUE(trace::parse_plt("h1\nh2\nh3\nh4\nh5\nh6\n").empty());
  // Blank lines between records are skipped.
  const std::string text =
      "h\nh\nh\nh\nh\nh\n39.9,116.4,0,0,39745.0\n\n39.91,116.41,0,0,39745.1\n";
  EXPECT_EQ(trace::parse_plt(text).size(), 2u);
}

TEST(EdgeCases, GeolifeParserSortsOutOfOrderRecords) {
  const std::string text =
      "h\nh\nh\nh\nh\nh\n"
      "39.9,116.4,0,0,39745.2\n"
      "39.9,116.4,0,0,39745.1\n";
  const auto trajectory = trace::parse_plt(text);
  ASSERT_EQ(trajectory.size(), 2u);
  EXPECT_LE(trajectory[0].timestamp_s, trajectory[1].timestamp_s);
}

TEST(EdgeCases, GuardianPlusFusedClientOnDevice) {
  // The release hook applies to fused deliveries exactly as to gps ones.
  android::DeviceSimulator device(1, geo::destination(kAnchor, 45.0, 2000.0));
  lppm::GuardianPolicy policy(kAnchor, 1000.0);
  lppm::GuardianRules block_bg;
  block_bg.background = lppm::ReleaseDecision::kBlock;
  policy.set_default_rules(block_bg);
  device.location_manager().set_release_hook(
      [&](const std::string& package, android::Location& fix) {
        const bool backgrounded =
            device.is_installed(package) &&
            device.app(package).state == android::AppState::kBackground;
        return policy.apply(package, backgrounded, fix.position);
      });

  android::AndroidManifest manifest;
  manifest.package_name = "com.fusedspy";
  manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  android::AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {android::LocationProvider::kFused};
  behavior.request_interval_s = 5;
  device.install(manifest, behavior);
  device.launch(manifest.package_name);
  device.advance(6);
  const std::size_t foreground_deliveries =
      device.location_manager().delivery_log().size();
  EXPECT_GT(foreground_deliveries, 0u);
  device.move_to_background(manifest.package_name);
  device.advance(30);
  EXPECT_EQ(device.location_manager().delivery_log().size(), foreground_deliveries);
}

TEST(EdgeCases, OLimitsPlusReplayCollectSparsely) {
  // Replay a 2-hour walk against a throttled device: deliveries land at
  // the policy cadence, not the app's.
  std::vector<trace::TracePoint> points;
  for (std::int64_t t = 0; t < 7200; t += 4)
    points.push_back(
        {geo::destination(kAnchor, 90.0, static_cast<double>(t) * 0.5), 10000 + t});

  android::DeviceSimulator device(1, kAnchor);
  device.enable_background_location_limits(900);
  device.jump_to(points.front().timestamp_s - 1);
  android::AndroidManifest manifest;
  manifest.package_name = "com.spy";
  manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  android::AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {android::LocationProvider::kGps};
  behavior.request_interval_s = 5;
  device.install(manifest, behavior);
  device.launch(manifest.package_name);
  device.move_to_background(manifest.package_name);
  android::replay_trace(device, points, /*sync_clock=*/false);

  const auto fixes =
      android::collected_fixes(device.location_manager(), manifest.package_name);
  // 7,200 s at 900 s cadence: 8-9 fixes instead of ~1,440.
  EXPECT_GE(fixes.size(), 7u);
  EXPECT_LE(fixes.size(), 10u);
}

TEST(EdgeCases, DatasetWithOneDayStillAnalyzable) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 3;
  dataset.synthesis.days = 1;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    EXPECT_GE(analyzer.reference(u).pois.size(), 1u);
}

}  // namespace
}  // namespace locpriv
