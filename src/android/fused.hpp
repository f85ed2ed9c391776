// The fused location provider interface (Google Play services'
// FusedLocationProviderApi, which Table I's "fused" column refers to).
// Client code asks for a *priority* rather than a provider; the client maps
// the priority onto the framework according to the permissions the app
// holds, mirroring the documented Play services behaviour:
//
//   PRIORITY_HIGH_ACCURACY   gps-grade fixes, requires fine location
//   PRIORITY_BALANCED        ~"block" accuracy; fine request if permitted,
//                            else coarse
//   PRIORITY_LOW_POWER       coarse city-block fixes
//   PRIORITY_NO_POWER        passive only - piggyback on other apps
#pragma once

#include <cstdint>
#include <string>

#include "android/location_manager.hpp"

namespace locpriv::android {

/// Play-services request priorities.
enum class FusedPriority {
  kHighAccuracy,
  kBalancedPowerAccuracy,
  kLowPower,
  kNoPower,
};

/// What a priority maps to for a given permission set.
struct FusedRequestPlan {
  LocationProvider provider = LocationProvider::kFused;
  Granularity granularity = Granularity::kCoarse;
};

/// Resolves the provider/granularity a fused request uses. Throws
/// SecurityException when the priority is unsatisfiable with the held
/// permissions (kHighAccuracy without fine location; anything without any
/// location permission).
FusedRequestPlan plan_fused_request(FusedPriority priority, const PermissionSet& held);

/// Client-side wrapper: the API surface an app links against.
class FusedLocationClient {
 public:
  /// Binds to the framework for one app. The manager and permission set
  /// must outlive the client.
  FusedLocationClient(LocationManager& manager, std::string package,
                      const PermissionSet& held);

  /// Requests updates at `interval_s` with the given priority. Replaces any
  /// previous fused request of this app. interval_s >= 1.
  void request_updates(FusedPriority priority, std::int64_t interval_s,
                       std::int64_t now_s);

  /// Stops updates.
  void remove_updates();

  /// Last fix the framework cached (getLastLocation). Returns false when
  /// no fix has ever been produced on the device.
  bool last_location(Location& out) const;

  const std::string& package() const { return package_; }

 private:
  LocationManager* manager_;
  std::string package_;
  const PermissionSet* held_;
  bool active_ = false;
  LocationProvider active_provider_ = LocationProvider::kFused;
};

}  // namespace locpriv::android
