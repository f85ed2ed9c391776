#include "android/permissions.hpp"

#include <algorithm>

namespace locpriv::android {

PermissionSet::PermissionSet(std::vector<Permission> permissions)
    : permissions_(std::move(permissions)) {}

void PermissionSet::grant(Permission permission) {
  if (!holds(permission)) permissions_.push_back(permission);
}

bool PermissionSet::holds(Permission permission) const {
  return std::find(permissions_.begin(), permissions_.end(), permission) !=
         permissions_.end();
}

bool PermissionSet::any_location() const {
  return holds(Permission::kAccessFineLocation) ||
         holds(Permission::kAccessCoarseLocation);
}

bool AndroidManifest::declares_location() const {
  for (const Permission p : uses_permissions)
    if (p == Permission::kAccessFineLocation || p == Permission::kAccessCoarseLocation)
      return true;
  return false;
}

std::string AndroidManifest::declared_granularity() const {
  bool fine = false;
  bool coarse = false;
  for (const Permission p : uses_permissions) {
    if (p == Permission::kAccessFineLocation) fine = true;
    if (p == Permission::kAccessCoarseLocation) coarse = true;
  }
  if (fine && coarse) return "Fine & Coarse";
  if (fine) return "Fine";
  if (coarse) return "Coarse";
  return "None";
}

}  // namespace locpriv::android
