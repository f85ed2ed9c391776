// Clustering of stay points into PoIs.
//
// A stay point is one visit; a PoI is a *place* visited possibly many times
// across days. Stays are clustered greedily in chronological order: a stay
// joins the nearest existing PoI within the merge radius, the lower id on a
// tie (the PoI centroid is the visit-weighted running mean), otherwise it
// founds a new PoI. The paper's PoI_total counts these clusters and
// PoI_sensitive the rarely visited ones.
#pragma once

#include <vector>

#include "poi/staypoint.hpp"

namespace locpriv::poi {

/// A place: a cluster of stays.
struct Poi {
  int id = 0;
  geo::LatLon centroid;
  std::vector<StayPoint> visits;  ///< Chronological.

  std::size_t visit_count() const { return visits.size(); }
};

/// Clusters `stays` (chronological) into PoIs. merge_radius_m > 0.
std::vector<Poi> cluster_stay_points(const std::vector<StayPoint>& stays,
                                     double merge_radius_m);

/// PoIs visited at most `max_visits` times — the paper's sensitive PoIs
/// ("users have visited for no more than 3 times", §IV.C).
std::vector<Poi> sensitive_pois(const std::vector<Poi>& pois, std::size_t max_visits);

}  // namespace locpriv::poi
