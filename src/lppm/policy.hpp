// LP-Guardian-style on-device release policy (after Fawaz & Shin, CCS'14,
// and Fawaz, Feng & Shin, USENIX Security'15 — the paper's [11, 12]).
//
// Unlike the stream defenses in defense.hpp (which post-process what an app
// already collected), the policy sits *inside* the platform: every fix
// about to be delivered is classified by (app, lifecycle state, place) and
// released as-is, coarsened, replaced by a fixed anchor, or blocked. Wire
// it into the simulated framework via LocationManager::set_release_hook
// (see GuardianPolicy::make_hook).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "geo/projection.hpp"

namespace locpriv::lppm {

/// What the policy does with one fix.
enum class ReleaseDecision {
  kReal,    ///< Deliver the true fix.
  kCoarse,  ///< Snap to the coarse grid before delivering.
  kFixed,   ///< Deliver the fixed anchor position (city-level placeholder).
  kBlock,   ///< Suppress the delivery.
};

/// Per-app rules: one decision while the app is foregrounded, one while it
/// is backgrounded. LP-Guardian's default posture: truthful in foreground
/// (the user asked), coarse in background.
struct GuardianRules {
  ReleaseDecision foreground = ReleaseDecision::kReal;
  ReleaseDecision background = ReleaseDecision::kCoarse;
};

/// The policy engine.
class GuardianPolicy {
 public:
  /// `anchor` centres the coarse grid and serves as the kFixed position;
  /// `coarse_cell_m` is the coarsening granularity. coarse_cell_m > 0.
  GuardianPolicy(const geo::LatLon& anchor, double coarse_cell_m = 1000.0);

  /// Replaces the default rules applied to apps without an explicit entry.
  void set_default_rules(const GuardianRules& rules);

  /// Per-app override ("my navigation app may see everything").
  void set_app_rules(const std::string& package, const GuardianRules& rules);

  /// Registers a sensitive place: any fix within `radius_m` of it is
  /// blocked for every app regardless of other rules. radius_m > 0.
  void protect_place(const geo::LatLon& place, double radius_m);

  /// The decision for one fix.
  ReleaseDecision decide(const std::string& package, bool backgrounded,
                         const geo::LatLon& true_position) const;

  /// Applies the decision in place; returns false when blocked.
  bool apply(const std::string& package, bool backgrounded,
             geo::LatLon& position) const;

  /// Adapts the policy to a LocationManager release hook. `backgrounded`
  /// must report the app's current lifecycle state (the device glue; see
  /// DeviceSimulator::app). The policy must outlive the hook.
  std::function<bool(const std::string&, geo::LatLon&)> make_position_hook(
      std::function<bool(const std::string&)> backgrounded) const;

 private:
  geo::LatLon anchor_;
  double coarse_cell_m_;
  geo::LocalProjection projection_;
  GuardianRules default_rules_;
  std::map<std::string, GuardianRules> app_rules_;
  std::vector<std::pair<geo::LatLon, double>> protected_places_;
};

}  // namespace locpriv::lppm
