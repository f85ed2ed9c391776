#include "geo/geodesy.hpp"

#include <cmath>
#include <numbers>

#include "util/expect.hpp"

namespace locpriv::geo {

double deg_to_rad(double degrees) { return degrees * std::numbers::pi / 180.0; }
double rad_to_deg(double radians) { return radians * 180.0 / std::numbers::pi; }

double haversine_m(const LatLon& a, const LatLon& b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h =
      sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

double equirectangular_m(const LatLon& a, const LatLon& b) {
  const double mean_lat = deg_to_rad((a.lat_deg + b.lat_deg) / 2.0);
  const double x = deg_to_rad(b.lon_deg - a.lon_deg) * std::cos(mean_lat);
  const double y = deg_to_rad(b.lat_deg - a.lat_deg);
  return kEarthRadiusMeters * std::sqrt(x * x + y * y);
}

double bearing_deg(const LatLon& a, const LatLon& b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) - std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  double bearing = rad_to_deg(std::atan2(y, x));
  if (bearing < 0.0) bearing += 360.0;
  return bearing;
}

LatLon destination(const LatLon& origin, double bearing_degrees, double distance_m) {
  const double angular = distance_m / kEarthRadiusMeters;
  const double bearing = deg_to_rad(bearing_degrees);
  const double lat1 = deg_to_rad(origin.lat_deg);
  const double lon1 = deg_to_rad(origin.lon_deg);
  const double lat2 = std::asin(std::sin(lat1) * std::cos(angular) +
                                std::cos(lat1) * std::sin(angular) * std::cos(bearing));
  const double lon2 =
      lon1 + std::atan2(std::sin(bearing) * std::sin(angular) * std::cos(lat1),
                        std::cos(angular) - std::sin(lat1) * std::sin(lat2));
  LatLon out{rad_to_deg(lat2), rad_to_deg(lon2)};
  if (out.lon_deg > 180.0) out.lon_deg -= 360.0;
  if (out.lon_deg < -180.0) out.lon_deg += 360.0;
  return out;
}

LatLon centroid(const std::vector<LatLon>& points) {
  LOCPRIV_EXPECT(!points.empty());
  double lat_sum = 0.0;
  double lon_sum = 0.0;
  for (const auto& p : points) {
    lat_sum += p.lat_deg;
    lon_sum += p.lon_deg;
  }
  const auto n = static_cast<double>(points.size());
  return {lat_sum / n, lon_sum / n};
}

double polyline_length_m(const std::vector<LatLon>& points) {
  double total = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i)
    total += haversine_m(points[i - 1], points[i]);
  return total;
}

}  // namespace locpriv::geo
