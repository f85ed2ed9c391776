// The simulated handset: installed apps, foreground/background lifecycle,
// and a virtual clock driving the location framework — the stand-in for the
// paper's Nexus 4 testbed. The dynamic measurement stage manipulates apps
// exactly the way the paper describes ("launch the app, try to trigger
// location access, move the app to background, and finally close it") and
// observes the result through dumpsys and the delivery log.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "android/location_manager.hpp"
#include "android/permissions.hpp"

namespace locpriv::android {

/// App process state. Android 4.4 keeps backgrounded apps cached and
/// running; only Close (swipe away / force stop) ends them.
enum class AppState { kNotRunning, kForeground, kBackground };

/// What an app actually does with location — the ground truth the market
/// catalog generates and the measurement pipeline tries to recover. Distinct
/// from the manifest: over-privileged apps declare permissions but never set
/// uses_location.
struct AppBehavior {
  bool uses_location = false;          ///< Ever requests location when run.
  bool auto_start_on_launch = false;   ///< Registers at launch, no user action.
  bool continues_in_background = false;///< Keeps its listeners when backgrounded.
  std::vector<LocationProvider> providers;  ///< Providers it registers.
  std::int64_t request_interval_s = 60;     ///< Update interval it asks for.
  Granularity requested_granularity = Granularity::kFine;
};

/// One installed app.
struct InstalledApp {
  AndroidManifest manifest;
  AppBehavior behavior;
  PermissionSet granted;   ///< Install-time grant of the declared permissions.
  AppState state = AppState::kNotRunning;
  bool location_active = false;  ///< Listeners currently registered.
};

/// The device.
class DeviceSimulator {
 public:
  /// `seed` drives fix noise; `position` is the device's physical location
  /// (stationary, like a phone on the measurement desk).
  DeviceSimulator(std::uint64_t seed, const geo::LatLon& position);

  /// Enables the Android 8 "background location limits" policy: while an
  /// app is backgrounded, its location requests are served at most once per
  /// `min_interval_s` (Android O computes location "only a few times each
  /// hour" for background apps), whatever interval the app asked for.
  /// Foregrounding restores the requested rate. The paper predates this
  /// policy; bench_android_limits shows how it changes the §III/§IV
  /// attack surface. Precondition: min_interval_s >= 1.
  void enable_background_location_limits(std::int64_t min_interval_s = 1800);

  /// Installs an app, granting its declared permissions (Android 4.4
  /// install-time model). Throws ContractViolation if already installed.
  void install(AndroidManifest manifest, AppBehavior behavior);

  bool is_installed(const std::string& package) const;
  void uninstall(const std::string& package);

  /// Brings the app to the foreground (launching it if needed); the
  /// previously foregrounded app, if any, is moved to background — only one
  /// activity is on top of the screen. Auto-starting apps register their
  /// listeners here. Throws SecurityException if the app's behaviour
  /// requests a provider its permissions do not allow.
  void launch(const std::string& package);

  /// Simulates the user exercising the app's location feature in
  /// foreground. Precondition: the app is in the foreground.
  void trigger_location_use(const std::string& package);

  /// Home button: the foreground app is cached in background. Apps that do
  /// not continue in background lose their listeners here.
  void move_to_background(const std::string& package);

  /// Swipe-away / force stop: all listeners removed, process ends.
  void close(const std::string& package);

  /// Advances the virtual clock by `seconds`, ticking the framework once
  /// per second. seconds >= 0.
  void advance(std::int64_t seconds);

  /// Moves the device (the user carries the phone); subsequent deliveries
  /// report the new position.
  void set_position(const geo::LatLon& position) { position_ = position; }
  const geo::LatLon& position() const { return position_; }

  /// Sets the clock without ticking (a time sync at boot, before any app
  /// activity). Precondition: no location request is active.
  void jump_to(std::int64_t now_s);

  std::int64_t now_s() const { return now_s_; }
  LocationManager& location_manager() { return manager_; }
  const LocationManager& location_manager() const { return manager_; }

  /// Read access to an installed app. Throws ContractViolation if absent.
  const InstalledApp& app(const std::string& package) const;

 private:
  InstalledApp& app_mutable(const std::string& package);
  void start_location(InstalledApp& app);
  void stop_location(InstalledApp& app);
  /// (Re-)registers the app's listeners at the rate its current lifecycle
  /// state allows under the active policy.
  void register_listeners(InstalledApp& app, bool backgrounded);

  std::map<std::string, InstalledApp> apps_;
  std::string foreground_;  ///< Package currently on top, empty if none.
  LocationManager manager_;
  geo::LatLon position_;
  std::int64_t now_s_ = 0;
  std::int64_t background_min_interval_s_ = 0;  ///< 0 = policy off.
};

}  // namespace locpriv::android
