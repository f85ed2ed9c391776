// PoI-exposure metrics: PoI_total and PoI_sensitive (paper Table II and
// Figure 3). Both compare the PoIs an app recovered from collected
// locations against the reference PoIs extracted from the full-rate trace.
#pragma once

#include <cstddef>
#include <vector>

#include "poi/clustering.hpp"

namespace locpriv::privacy {

/// How much of a reference PoI set a collected PoI set reveals.
struct PoiRecovery {
  std::size_t reference_count = 0;  ///< PoIs in the ground-truth/full trace.
  std::size_t recovered_count = 0;  ///< Reference PoIs with a collected PoI nearby.

  /// Fraction recovered in [0, 1]; 1 when the reference set is empty
  /// (nothing existed to leak).
  double fraction() const {
    return reference_count == 0
               ? 1.0
               : static_cast<double>(recovered_count) / static_cast<double>(reference_count);
  }

  /// True if every reference PoI was recovered.
  bool complete() const { return recovered_count == reference_count; }
};

/// Matches collected PoIs against reference PoIs: a reference PoI counts as
/// recovered when some collected PoI centroid lies within `match_radius_m`.
/// Precondition: match_radius_m > 0.
PoiRecovery poi_recovery(const std::vector<poi::Poi>& reference,
                         const std::vector<poi::Poi>& collected,
                         double match_radius_m);

/// PoI_sensitive: recovery restricted to reference PoIs visited at most
/// `max_visits` times (the paper's sensitive PoIs; it reports curves for
/// <=1, <=2 and <=3). Sensitivity is judged on the *reference* visit counts
/// — the adversary's undercount cannot make a place non-sensitive.
PoiRecovery sensitive_poi_recovery(const std::vector<poi::Poi>& reference,
                                   const std::vector<poi::Poi>& collected,
                                   double match_radius_m, std::size_t max_visits);

}  // namespace locpriv::privacy
