// Location providers and fixes, modelled on the Android 4.4 framework the
// paper's Nexus 4 testbed ran.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::android {

/// The four providers the paper observes (Table I).
enum class LocationProvider {
  kGps,      ///< Fine fixes, high power.
  kNetwork,  ///< Coarse cell/Wi-Fi fixes.
  kPassive,  ///< Piggybacks on fixes other apps request.
  kFused,    ///< Google Play services interface over the others.
};

/// Provider name as dumpsys prints it ("gps", "network", "passive", "fused").
std::string_view provider_name(LocationProvider provider);

/// Parses a provider name; returns false for unknown names.
bool parse_provider(std::string_view name, LocationProvider& out);

/// Location granularity.
enum class Granularity { kFine, kCoarse };

std::string_view granularity_name(Granularity granularity);

/// One delivered fix.
struct Location {
  geo::LatLon position;
  double accuracy_m = 0.0;   ///< 1-sigma horizontal accuracy estimate.
  std::int64_t time_s = 0;   ///< Device time of the fix.
  LocationProvider provider = LocationProvider::kGps;
};

/// Typical horizontal accuracy of fixes from a provider, in meters.
double provider_accuracy_m(LocationProvider provider, Granularity requested);

/// Whether registering `provider` with `requested` granularity can yield
/// precise (fine) locations — the classification behind the paper's "68
/// apps access precise location": gps always; fused when fine is requested
/// and held; network/passive never by themselves.
bool provider_yields_fine(LocationProvider provider, Granularity requested);

/// A canonical label for a set of providers, matching Table I's columns
/// (e.g. "gps", "gps network", "fused network"). Providers are listed in
/// gps, network, passive, fused order. Precondition: non-empty set.
std::string provider_combo_label(const std::vector<LocationProvider>& providers);

}  // namespace locpriv::android
