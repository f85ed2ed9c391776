#include "android/fused.hpp"

#include "util/expect.hpp"

namespace locpriv::android {

FusedRequestPlan plan_fused_request(FusedPriority priority, const PermissionSet& held) {
  if (!held.any_location())
    throw SecurityException("fused requests require a location permission");
  FusedRequestPlan plan;
  switch (priority) {
    case FusedPriority::kHighAccuracy:
      if (!held.fine_location())
        throw SecurityException("PRIORITY_HIGH_ACCURACY requires ACCESS_FINE_LOCATION");
      plan.provider = LocationProvider::kFused;
      plan.granularity = Granularity::kFine;
      return plan;
    case FusedPriority::kBalancedPowerAccuracy:
      plan.provider = LocationProvider::kFused;
      // Balanced serves the best granularity the permissions allow.
      plan.granularity = held.fine_location() ? Granularity::kFine : Granularity::kCoarse;
      return plan;
    case FusedPriority::kLowPower:
      plan.provider = LocationProvider::kFused;
      plan.granularity = Granularity::kCoarse;
      return plan;
    case FusedPriority::kNoPower:
      plan.provider = LocationProvider::kPassive;
      plan.granularity = Granularity::kCoarse;
      return plan;
  }
  return plan;
}

FusedLocationClient::FusedLocationClient(LocationManager& manager, std::string package,
                                         const PermissionSet& held)
    : manager_(&manager), package_(std::move(package)), held_(&held) {
  LOCPRIV_EXPECT(!package_.empty());
}

void FusedLocationClient::request_updates(FusedPriority priority,
                                          std::int64_t interval_s, std::int64_t now_s) {
  LOCPRIV_EXPECT(interval_s >= 1);
  const FusedRequestPlan plan = plan_fused_request(priority, *held_);
  if (active_) remove_updates();
  manager_->request_updates(package_, plan.provider, interval_s, plan.granularity,
                            *held_, now_s);
  active_ = true;
  active_provider_ = plan.provider;
}

void FusedLocationClient::remove_updates() {
  if (!active_) return;
  manager_->remove_updates(package_, active_provider_);
  active_ = false;
}

bool FusedLocationClient::last_location(Location& out) const {
  if (!manager_->has_last_known()) return false;
  out = manager_->last_known();
  return true;
}

}  // namespace locpriv::android
