// End-to-end attack demo: the full chain the paper describes, with no
// analytical shortcuts —
//
//   mobility simulator -> the user's phone physically moves ->
//   a backgrounded app samples through the real framework path
//   (registration, scheduled delivery, dumpsys-visible) ->
//   the "LBS provider" hands the collected fixes to a third party ->
//   PoI extraction, His_bin, and identification against 20 profiles.
//
//   $ ./examples/end_to_end_attack [interval_s]
#include <cstdlib>
#include <iostream>

#include "android/dumpsys.hpp"
#include "android/replay.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace locpriv;
  const std::int64_t interval = argc > 1 ? std::atoll(argv[1]) : 30;

  // A 20-user world; user 7 is the victim.
  mobility::DatasetConfig dataset;
  dataset.user_count = 20;
  dataset.synthesis.days = 8;
  const core::AnalyzerConfig config = core::experiment_analyzer_config();
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(config, dataset);
  const std::size_t victim = 7;
  const auto& reference = analyzer.reference(victim);
  std::cout << "victim: user " << reference.user_id << " with "
            << reference.points.size() << " true GPS fixes over 8 days\n";

  // The victim's phone, with an innocuous-looking app that keeps a gps
  // listener alive in background.
  android::DeviceSimulator phone(/*seed=*/1234, reference.points.front().position);
  phone.jump_to(reference.points.front().timestamp_s - 1);
  android::AndroidManifest manifest;
  manifest.package_name = "com.flashlight.plus";
  manifest.uses_permissions = {android::Permission::kAccessFineLocation,
                               android::Permission::kAccessCoarseLocation};
  android::AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  behavior.providers = {android::LocationProvider::kGps};
  behavior.request_interval_s = interval;
  phone.install(manifest, behavior);
  phone.launch(manifest.package_name);
  phone.move_to_background(manifest.package_name);  // User opens something else.

  std::cout << "\nwhat dumpsys shows while the user thinks the app is idle:\n"
            << android::dumpsys_location_report(phone.location_manager(),
                                                phone.now_s());

  // Eight days of life, replayed through the framework.
  const std::size_t ticks = android::replay_trace(phone, reference.points,
                                                  /*sync_clock=*/false);
  const auto stolen = android::collected_fixes(phone.location_manager(),
                                               manifest.package_name);
  std::cout << "\nreplayed " << ticks << " device-seconds; the app exfiltrated "
            << stolen.size() << " fixes (every " << interval << " s)\n";

  // Third-party analysis of the exfiltrated stream.
  const core::ExposureReport report = analyzer.evaluate_collected(victim, interval, stolen);
  std::cout << "PoIs recovered from the stolen stream: "
            << report.poi_total.recovered_count << "/"
            << report.poi_total.reference_count << " ("
            << util::format_percent(report.poi_total.fraction(), 0) << ")\n";
  if (!report.matches_movements) {
    std::cout << "identification: too little data - no movement patterns formed\n";
  } else if (report.identified_movements) {
    std::cout << "identification: UNIQUE - the adversary knows this is user "
              << reference.user_id << " (Deg_anonymity "
              << util::format_fixed(report.anonymity_movements, 3) << ")\n";
  } else {
    std::cout << "identification: anonymity set of " << *report.matches_movements
              << " profiles (Deg_anonymity "
              << util::format_fixed(report.anonymity_movements, 3) << ")\n";
  }
  return 0;
}
