#include "lppm/policy.hpp"

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::lppm {

GuardianPolicy::GuardianPolicy(const geo::LatLon& anchor, double coarse_cell_m)
    : anchor_(anchor), coarse_cell_m_(coarse_cell_m), projection_(anchor) {
  LOCPRIV_EXPECT(coarse_cell_m > 0.0);
}

void GuardianPolicy::set_default_rules(const GuardianRules& rules) {
  default_rules_ = rules;
}

void GuardianPolicy::set_app_rules(const std::string& package,
                                   const GuardianRules& rules) {
  LOCPRIV_EXPECT(!package.empty());
  app_rules_[package] = rules;
}

void GuardianPolicy::protect_place(const geo::LatLon& place, double radius_m) {
  LOCPRIV_EXPECT(radius_m > 0.0);
  protected_places_.emplace_back(place, radius_m);
}

ReleaseDecision GuardianPolicy::decide(const std::string& package, bool backgrounded,
                                       const geo::LatLon& true_position) const {
  for (const auto& [place, radius] : protected_places_)
    if (geo::equirectangular_m(place, true_position) <= radius)
      return ReleaseDecision::kBlock;
  const auto it = app_rules_.find(package);
  const GuardianRules& rules = it == app_rules_.end() ? default_rules_ : it->second;
  return backgrounded ? rules.background : rules.foreground;
}

bool GuardianPolicy::apply(const std::string& package, bool backgrounded,
                           geo::LatLon& position) const {
  switch (decide(package, backgrounded, position)) {
    case ReleaseDecision::kReal:
      return true;
    case ReleaseDecision::kCoarse:
      position = geo::snap_to_grid(position, coarse_cell_m_, projection_);
      return true;
    case ReleaseDecision::kFixed:
      position = anchor_;
      return true;
    case ReleaseDecision::kBlock:
      return false;
  }
  return true;
}

std::function<bool(const std::string&, geo::LatLon&)> GuardianPolicy::make_position_hook(
    std::function<bool(const std::string&)> backgrounded) const {
  LOCPRIV_EXPECT(static_cast<bool>(backgrounded));
  return [this, backgrounded = std::move(backgrounded)](const std::string& package,
                                                        geo::LatLon& position) {
    return apply(package, backgrounded(package), position);
  };
}

}  // namespace locpriv::lppm
