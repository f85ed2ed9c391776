// Distance and bearing computations on the sphere.
#pragma once

#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::geo {

/// Degrees -> radians.
double deg_to_rad(double degrees);
/// Radians -> degrees.
double rad_to_deg(double radians);

/// Great-circle distance in meters (haversine). Exact on the sphere; used
/// wherever traces may span many kilometers.
double haversine_m(const LatLon& a, const LatLon& b);

/// Equirectangular approximation of distance in meters. Within the ~100 m
/// scales of PoI extraction it differs from haversine by < 0.01 % and is
/// several times cheaper, so the stay-point inner loop uses it.
double equirectangular_m(const LatLon& a, const LatLon& b);

/// Initial great-circle bearing from `a` to `b` in degrees [0, 360).
double bearing_deg(const LatLon& a, const LatLon& b);

/// Destination reached from `origin` after traveling `distance_m` meters on
/// the given initial bearing (spherical direct problem).
LatLon destination(const LatLon& origin, double bearing_degrees, double distance_m);

/// Arithmetic centroid of points (valid for clusters far from the poles and
/// the antimeridian, which holds for all workloads here).
/// Precondition: points non-empty.
LatLon centroid(const std::vector<LatLon>& points);

/// Total haversine length of a polyline in meters (0 for < 2 points).
double polyline_length_m(const std::vector<LatLon>& points);

}  // namespace locpriv::geo
