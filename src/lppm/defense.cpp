#include "lppm/defense.hpp"

#include <cmath>

#include "geo/geodesy.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace locpriv::lppm {

std::vector<trace::TracePoint> IdentityDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  (void)rng;
  return requested;
}

GridSnapDefense::GridSnapDefense(double cell_m, const geo::LatLon& anchor)
    : cell_m_(cell_m), projection_(anchor) {
  LOCPRIV_EXPECT(cell_m > 0.0);
}

std::string GridSnapDefense::name() const {
  return "snap-" + util::format_fixed(cell_m_, 0) + "m";
}

std::vector<trace::TracePoint> GridSnapDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  (void)rng;
  std::vector<trace::TracePoint> released = requested;
  for (auto& point : released)
    point.position = geo::snap_to_grid(point.position, cell_m_, projection_);
  return released;
}

GaussianPerturbationDefense::GaussianPerturbationDefense(double sigma_m)
    : sigma_m_(sigma_m) {
  LOCPRIV_EXPECT(sigma_m > 0.0);
}

std::string GaussianPerturbationDefense::name() const {
  return "perturb-" + util::format_fixed(sigma_m_, 0) + "m";
}

std::vector<trace::TracePoint> GaussianPerturbationDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  std::vector<trace::TracePoint> released = requested;
  for (auto& point : released) {
    const double east = rng.normal(0.0, sigma_m_);
    const double north = rng.normal(0.0, sigma_m_);
    const double distance = std::sqrt(east * east + north * north);
    if (distance > 0.0)
      point.position = geo::destination(
          point.position, geo::rad_to_deg(std::atan2(east, north)), distance);
  }
  return released;
}

SpatialCloakingDefense::SpatialCloakingDefense(double base_cell_m, std::size_t k,
                                               std::vector<geo::LatLon> anchors,
                                               const geo::LatLon& origin)
    : base_cell_m_(base_cell_m), k_(k), projection_(origin) {
  LOCPRIV_EXPECT(base_cell_m > 0.0);
  LOCPRIV_EXPECT(k >= 1);
  LOCPRIV_EXPECT(!anchors.empty());
  anchors_.reserve(anchors.size());
  for (const auto& anchor : anchors) anchors_.push_back(projection_.to_plane(anchor));
}

std::string SpatialCloakingDefense::name() const {
  return "cloak-k" + std::to_string(k_);
}

double SpatialCloakingDefense::cell_for(const geo::LatLon& position) const {
  const geo::EastNorth p = projection_.to_plane(position);
  double cell = base_cell_m_;
  for (int doubling = 0; doubling < kMaxDoublings; ++doubling, cell *= 2.0) {
    // Count anchors inside the cell that would contain `position`.
    const double cell_east = std::floor(p.east_m / cell) * cell;
    const double cell_north = std::floor(p.north_m / cell) * cell;
    std::size_t inside = 0;
    for (const auto& anchor : anchors_) {
      if (anchor.east_m >= cell_east && anchor.east_m < cell_east + cell &&
          anchor.north_m >= cell_north && anchor.north_m < cell_north + cell)
        ++inside;
      if (inside >= k_) return cell;
    }
  }
  return cell;  // Ladder exhausted: the largest cell.
}

std::vector<trace::TracePoint> SpatialCloakingDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  (void)rng;
  std::vector<trace::TracePoint> released = requested;
  for (auto& point : released) {
    const double cell = cell_for(point.position);
    point.position = geo::snap_to_grid(point.position, cell, projection_);
  }
  return released;
}

ThrottleDefense::ThrottleDefense(std::int64_t min_interval_s)
    : min_interval_s_(min_interval_s) {
  LOCPRIV_EXPECT(min_interval_s > 0);
}

std::string ThrottleDefense::name() const {
  return "throttle-" + std::to_string(min_interval_s_) + "s";
}

std::vector<trace::TracePoint> ThrottleDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  (void)rng;
  return trace::decimate(requested, min_interval_s_);
}

PlaceSuppressionDefense::PlaceSuppressionDefense(std::vector<geo::LatLon> protected_places,
                                                 double radius_m)
    : places_(std::move(protected_places)), radius_m_(radius_m) {
  LOCPRIV_EXPECT(radius_m > 0.0);
}

std::string PlaceSuppressionDefense::name() const {
  return "suppress-" + std::to_string(places_.size()) + "places";
}

std::vector<trace::TracePoint> PlaceSuppressionDefense::release(
    const std::vector<trace::TracePoint>& requested, stats::Rng& rng) const {
  (void)rng;
  std::vector<trace::TracePoint> released;
  released.reserve(requested.size());
  for (const auto& point : requested) {
    bool suppressed = false;
    for (const auto& place : places_) {
      if (geo::equirectangular_m(point.position, place) <= radius_m_) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) released.push_back(point);
  }
  return released;
}

std::vector<std::unique_ptr<Defense>> standard_suite(const geo::LatLon& anchor,
                                                     std::vector<geo::LatLon> homes) {
  LOCPRIV_EXPECT(!homes.empty());
  std::vector<std::unique_ptr<Defense>> suite;
  suite.push_back(std::make_unique<IdentityDefense>());
  suite.push_back(std::make_unique<GridSnapDefense>(100.0, anchor));
  suite.push_back(std::make_unique<GridSnapDefense>(250.0, anchor));
  suite.push_back(std::make_unique<GridSnapDefense>(1000.0, anchor));
  suite.push_back(std::make_unique<GaussianPerturbationDefense>(100.0));
  suite.push_back(std::make_unique<SpatialCloakingDefense>(250.0, 5, homes, anchor));
  suite.push_back(std::make_unique<ThrottleDefense>(600));
  suite.push_back(std::make_unique<PlaceSuppressionDefense>(homes, 150.0));
  return suite;
}

}  // namespace locpriv::lppm
