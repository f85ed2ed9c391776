#include "privacy/metrics.hpp"

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

namespace {

// locpriv-lint: allow(linear-spatial-scan) one user's PoIs, at most 37 at full scale
bool has_match_within(const poi::Poi& reference, const std::vector<poi::Poi>& collected,
                      double match_radius_m) {
  for (const auto& candidate : collected)
    if (geo::equirectangular_m(reference.centroid, candidate.centroid) <= match_radius_m)
      return true;
  return false;
}

}  // namespace

PoiRecovery poi_recovery(const std::vector<poi::Poi>& reference,
                         const std::vector<poi::Poi>& collected,
                         double match_radius_m) {
  LOCPRIV_EXPECT(match_radius_m > 0.0);
  PoiRecovery recovery;
  recovery.reference_count = reference.size();
  for (const auto& poi : reference)
    if (has_match_within(poi, collected, match_radius_m)) ++recovery.recovered_count;
  return recovery;
}

PoiRecovery sensitive_poi_recovery(const std::vector<poi::Poi>& reference,
                                   const std::vector<poi::Poi>& collected,
                                   double match_radius_m, std::size_t max_visits) {
  LOCPRIV_EXPECT(match_radius_m > 0.0);
  LOCPRIV_EXPECT(max_visits >= 1);
  PoiRecovery recovery;
  for (const auto& poi : reference) {
    if (poi.visit_count() > max_visits) continue;
    ++recovery.reference_count;
    if (has_match_within(poi, collected, match_radius_m)) ++recovery.recovered_count;
  }
  return recovery;
}

}  // namespace locpriv::privacy
