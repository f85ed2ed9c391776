#include "mobility/city.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace locpriv::mobility {

namespace {

// Relative frequency of each category in the city pool. Homes dominate
// (every user needs a distinct one), then workplaces, then amenities.
constexpr double kCategoryWeights[kPoiCategoryCount] = {
    0.38,  // home
    0.16,  // work
    0.10,  // restaurant
    0.10,  // shop
    0.05,  // gym
    0.06,  // park
    0.04,  // school
    0.03,  // hospital
    0.05,  // entertainment
    0.03,  // transit
};

}  // namespace

CityModel::CityModel(const CityConfig& config, stats::Rng& rng)
    : config_(config), projection_(config.anchor) {
  LOCPRIV_EXPECT(config.blocks_x >= 2 && config.blocks_y >= 2);
  LOCPRIV_EXPECT(config.block_m > 0.0);
  LOCPRIV_EXPECT(config.poi_count > kPoiCategoryCount);

  const std::vector<double> weights(std::begin(kCategoryWeights), std::end(kCategoryWeights));
  pois_.reserve(static_cast<std::size_t>(config.poi_count));
  for (int id = 0; id < config.poi_count; ++id) {
    PoiSite site;
    site.id = id;
    // Guarantee at least one site per category, then sample by weight.
    site.category = id < kPoiCategoryCount
                        ? static_cast<PoiCategory>(id)
                        : static_cast<PoiCategory>(rng.weighted_index(weights));
    const auto ix = static_cast<double>(rng.uniform_int(0, config.blocks_x));
    const auto iy = static_cast<double>(rng.uniform_int(0, config.blocks_y));
    const double east = ix * config.block_m + rng.normal(0.0, config.poi_jitter_m);
    const double north = iy * config.block_m + rng.normal(0.0, config.poi_jitter_m);
    site.position = projection_.to_geo({east, north});
    pois_.push_back(site);
  }
}

const PoiSite& CityModel::poi(int id) const {
  LOCPRIV_EXPECT(id >= 0 && static_cast<std::size_t>(id) < pois_.size());
  return pois_[static_cast<std::size_t>(id)];
}

std::vector<int> CityModel::pois_of_category(PoiCategory category) const {
  std::vector<int> ids;
  for (const auto& site : pois_)
    if (site.category == category) ids.push_back(site.id);
  return ids;
}

geo::LatLon CityModel::nearest_intersection(const geo::LatLon& p) const {
  const geo::EastNorth plane = projection_.to_plane(p);
  const double max_east = static_cast<double>(config_.blocks_x) * config_.block_m;
  const double max_north = static_cast<double>(config_.blocks_y) * config_.block_m;
  const double east =
      std::clamp(std::round(plane.east_m / config_.block_m) * config_.block_m, 0.0, max_east);
  const double north =
      std::clamp(std::round(plane.north_m / config_.block_m) * config_.block_m, 0.0, max_north);
  return projection_.to_geo({east, north});
}

std::vector<geo::LatLon> CityModel::plan_route(const geo::LatLon& from,
                                               const geo::LatLon& to,
                                               stats::Rng& rng) const {
  std::vector<geo::LatLon> route;
  route.push_back(from);
  if (from == to) return route;

  const geo::EastNorth start = projection_.to_plane(nearest_intersection(from));
  const geo::EastNorth goal = projection_.to_plane(nearest_intersection(to));

  // Staircase path: consume the east and north displacement block by block,
  // choosing the axis at random (biased toward the longer remaining leg) so
  // different trips between the same places take slightly different streets.
  double east = start.east_m;
  double north = start.north_m;
  route.push_back(projection_.to_geo({east, north}));
  const double step = config_.block_m;
  int guard = 4 * (config_.blocks_x + config_.blocks_y);
  while ((std::abs(goal.east_m - east) > step / 2.0 ||
          std::abs(goal.north_m - north) > step / 2.0) &&
         guard-- > 0) {
    const double east_remaining = std::abs(goal.east_m - east);
    const double north_remaining = std::abs(goal.north_m - north);
    const bool move_east =
        north_remaining <= step / 2.0 ||
        (east_remaining > step / 2.0 &&
         rng.uniform01() < east_remaining / (east_remaining + north_remaining));
    if (move_east) {
      east += (goal.east_m > east) ? step : -step;
    } else {
      north += (goal.north_m > north) ? step : -step;
    }
    route.push_back(projection_.to_geo({east, north}));
  }
  route.push_back(projection_.to_geo(goal));
  route.push_back(to);
  return route;
}

}  // namespace locpriv::mobility
