#include "android/device.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/logging.hpp"

namespace locpriv::android {

DeviceSimulator::DeviceSimulator(std::uint64_t seed, const geo::LatLon& position)
    : manager_(stats::Rng(seed)), position_(position) {}

void DeviceSimulator::install(AndroidManifest manifest, AppBehavior behavior) {
  LOCPRIV_EXPECT(!manifest.package_name.empty());
  LOCPRIV_EXPECT(!is_installed(manifest.package_name));
  InstalledApp app;
  app.granted = PermissionSet(manifest.uses_permissions);
  app.manifest = std::move(manifest);
  app.behavior = std::move(behavior);
  apps_.emplace(app.manifest.package_name, std::move(app));
}

bool DeviceSimulator::is_installed(const std::string& package) const {
  return apps_.contains(package);
}

void DeviceSimulator::uninstall(const std::string& package) {
  if (!is_installed(package)) return;
  close(package);
  apps_.erase(package);
}

InstalledApp& DeviceSimulator::app_mutable(const std::string& package) {
  const auto it = apps_.find(package);
  LOCPRIV_EXPECT(it != apps_.end());
  return it->second;
}

const InstalledApp& DeviceSimulator::app(const std::string& package) const {
  const auto it = apps_.find(package);
  LOCPRIV_EXPECT(it != apps_.end());
  return it->second;
}

void DeviceSimulator::enable_background_location_limits(std::int64_t min_interval_s) {
  LOCPRIV_EXPECT(min_interval_s >= 1);
  background_min_interval_s_ = min_interval_s;
  // Apply immediately to already-backgrounded apps.
  for (auto& [package, app] : apps_) {
    (void)package;
    if (app.location_active && app.state == AppState::kBackground)
      register_listeners(app, /*backgrounded=*/true);
  }
}

void DeviceSimulator::register_listeners(InstalledApp& app, bool backgrounded) {
  std::int64_t interval = app.behavior.request_interval_s;
  if (backgrounded && background_min_interval_s_ > 0)
    interval = std::max(interval, background_min_interval_s_);
  for (const LocationProvider provider : app.behavior.providers)
    manager_.request_updates(app.manifest.package_name, provider, interval,
                             app.behavior.requested_granularity, app.granted, now_s_);
}

void DeviceSimulator::start_location(InstalledApp& app) {
  if (app.location_active || !app.behavior.uses_location) return;
  register_listeners(app, app.state == AppState::kBackground);
  app.location_active = true;
}

void DeviceSimulator::stop_location(InstalledApp& app) {
  if (!app.location_active) return;
  manager_.remove_all(app.manifest.package_name);
  app.location_active = false;
}

void DeviceSimulator::launch(const std::string& package) {
  InstalledApp& app = app_mutable(package);
  if (!foreground_.empty() && foreground_ != package) {
    // Only one activity on top: the previous app is cached in background.
    move_to_background(foreground_);
  }
  app.state = AppState::kForeground;
  foreground_ = package;
  if (app.behavior.auto_start_on_launch) start_location(app);
  // Foregrounding restores the full requested rate under the O policy.
  if (app.location_active) register_listeners(app, /*backgrounded=*/false);
}

void DeviceSimulator::trigger_location_use(const std::string& package) {
  InstalledApp& app = app_mutable(package);
  LOCPRIV_EXPECT(app.state == AppState::kForeground);
  start_location(app);
}

void DeviceSimulator::move_to_background(const std::string& package) {
  InstalledApp& app = app_mutable(package);
  if (app.state != AppState::kForeground) return;
  app.state = AppState::kBackground;
  if (foreground_ == package) foreground_.clear();
  if (!app.behavior.continues_in_background) {
    stop_location(app);
  } else if (app.location_active) {
    // Background apps keep their listeners, throttled if the O policy is on.
    register_listeners(app, /*backgrounded=*/true);
  }
}

void DeviceSimulator::close(const std::string& package) {
  InstalledApp& app = app_mutable(package);
  stop_location(app);
  app.state = AppState::kNotRunning;
  if (foreground_ == package) foreground_.clear();
}

void DeviceSimulator::advance(std::int64_t seconds) {
  LOCPRIV_EXPECT(seconds >= 0);
  for (std::int64_t i = 0; i < seconds; ++i) {
    ++now_s_;
    manager_.tick(now_s_, position_);
  }
}

void DeviceSimulator::jump_to(std::int64_t now_s) {
  LOCPRIV_EXPECT(manager_.active_requests().empty());
  now_s_ = now_s;
}

}  // namespace locpriv::android
