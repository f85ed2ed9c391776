// Android permission model, restricted to what the paper's measurement
// needs: the two location permissions and a manifest that declares them.
// Mirrors Android 4.4 install-time semantics (permissions granted at install,
// no runtime prompts).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace locpriv::android {

/// Location-related permissions.
enum class Permission {
  kAccessFineLocation,
  kAccessCoarseLocation,
};

/// The set of permissions an app holds.
class PermissionSet {
 public:
  PermissionSet() = default;
  explicit PermissionSet(std::vector<Permission> permissions);

  void grant(Permission permission);
  bool holds(Permission permission) const;

  /// True if the set contains either location permission.
  bool any_location() const;

  /// True if the app may receive fine-grained locations.
  bool fine_location() const { return holds(Permission::kAccessFineLocation); }

  const std::vector<Permission>& permissions() const { return permissions_; }

 private:
  std::vector<Permission> permissions_;
};

/// The slice of an AndroidManifest.xml the measurement pipeline reads.
struct AndroidManifest {
  std::string package_name;
  std::vector<Permission> uses_permissions;
  bool declares_service = false;    ///< Has a <service> (can persist in background).
  bool declares_receiver = false;   ///< Has a boot/location <receiver>.

  /// True if any location permission is declared — the paper's first filter
  /// (1,137 of 2,800 apps pass it).
  bool declares_location() const;

  /// Declared granularity summary used by Table I's row labels:
  /// "Fine", "Coarse", or "Fine & Coarse".
  std::string declared_granularity() const;
};

/// Thrown by the location framework when an app lacks the permission its
/// request requires (models java.lang.SecurityException).
class SecurityException : public std::runtime_error {
 public:
  explicit SecurityException(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace locpriv::android
