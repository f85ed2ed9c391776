#include "poi/clustering.hpp"

#include <limits>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::poi {

std::vector<Poi> cluster_stay_points(const std::vector<StayPoint>& stays,
                                     double merge_radius_m) {
  LOCPRIV_EXPECT(merge_radius_m > 0.0);
  std::vector<Poi> pois;
  // Running sums for the visit-weighted centroid of each PoI.
  std::vector<double> lat_sums;
  std::vector<double> lon_sums;

  for (const auto& stay : stays) {
    int best = -1;
    double best_distance = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < pois.size(); ++i) {
      // locpriv-lint: allow(linear-spatial-scan) one user's PoIs, at most 37 at full scale
      const double d = geo::equirectangular_m(pois[i].centroid, stay.centroid);
      if (d <= merge_radius_m && d < best_distance) {
        best = static_cast<int>(i);
        best_distance = d;
      }
    }
    if (best < 0) {
      Poi poi;
      poi.id = static_cast<int>(pois.size());
      poi.centroid = stay.centroid;
      poi.visits.push_back(stay);
      pois.push_back(std::move(poi));
      lat_sums.push_back(stay.centroid.lat_deg);
      lon_sums.push_back(stay.centroid.lon_deg);
    } else {
      const auto b = static_cast<std::size_t>(best);
      pois[b].visits.push_back(stay);
      lat_sums[b] += stay.centroid.lat_deg;
      lon_sums[b] += stay.centroid.lon_deg;
      const auto n = static_cast<double>(pois[b].visits.size());
      pois[b].centroid = {lat_sums[b] / n, lon_sums[b] / n};
    }
  }
  return pois;
}

std::vector<Poi> sensitive_pois(const std::vector<Poi>& pois, std::size_t max_visits) {
  LOCPRIV_EXPECT(max_visits >= 1);
  std::vector<Poi> out;
  for (const auto& poi : pois)
    if (poi.visit_count() <= max_visits) out.push_back(poi);
  return out;
}

}  // namespace locpriv::poi
