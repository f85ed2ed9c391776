// Ground-truth places of a synthetic city and the visit events users make
// to them. These are the *true* PoIs the privacy pipeline tries to recover
// from GPS traces; tests compare recovered PoIs against them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::mobility {

/// Functional category of a place; drives dwell-time models and how often
/// profiles include a place of that kind.
enum class PoiCategory {
  kHome,
  kWork,
  kRestaurant,
  kShop,
  kGym,
  kPark,
  kSchool,
  kHospital,
  kEntertainment,
  kTransit,
};

inline constexpr int kPoiCategoryCount = 10;

/// One place in the city.
struct PoiSite {
  int id = 0;
  PoiCategory category = PoiCategory::kHome;
  geo::LatLon position;
};

/// One ground-truth visit: the user was at `poi_id` from `enter_s` to
/// `exit_s` (Unix seconds).
struct VisitEvent {
  int poi_id = 0;
  std::int64_t enter_s = 0;
  std::int64_t exit_s = 0;

  std::int64_t dwell_s() const { return exit_s - enter_s; }
};

/// Full ground truth for one synthetic user.
struct UserGroundTruth {
  std::string user_id;
  std::vector<int> poi_ids;        ///< Places in this user's routine.
  std::vector<VisitEvent> visits;  ///< Chronological visit log.
};

}  // namespace locpriv::mobility
