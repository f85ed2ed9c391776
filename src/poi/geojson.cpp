#include "poi/geojson.hpp"

#include <cstdio>
#include <sstream>

namespace locpriv::poi {

namespace {

// GeoJSON wants [lon, lat] order.
void append_coordinate(std::ostringstream& os, const geo::LatLon& p) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "[%.6f,%.6f]", p.lon_deg, p.lat_deg);
  os << buffer;
}

}  // namespace

std::string trajectory_to_geojson_feature(std::span<const trace::TracePoint> session) {
  std::ostringstream os;
  os << R"({"type":"Feature","properties":{"fixes":)" << session.size();
  if (!session.empty())
    os << R"(,"start_s":)" << session.front().timestamp_s << R"(,"end_s":)"
       << session.back().timestamp_s;
  os << R"(},"geometry":{"type":"LineString","coordinates":[)";
  for (std::size_t i = 0; i < session.size(); ++i) {
    if (i != 0) os << ',';
    append_coordinate(os, session[i].position);
  }
  os << "]}}";
  return os.str();
}

std::string to_geojson(const trace::UserTrace& user, const std::vector<Poi>& pois) {
  std::ostringstream os;
  os << R"({"type":"FeatureCollection","features":[)";
  bool first = true;
  for (std::size_t i = 0; i < user.session_count(); ++i) {
    if (!first) os << ',';
    first = false;
    os << trajectory_to_geojson_feature(user.session(i));
  }
  for (const auto& poi : pois) {
    if (!first) os << ',';
    first = false;
    std::int64_t dwell = 0;
    for (const auto& visit : poi.visits) dwell += visit.duration_s();
    os << R"({"type":"Feature","properties":{"poi":)" << poi.id << R"(,"visits":)"
       << poi.visit_count() << R"(,"dwell_s":)" << dwell
       << R"(},"geometry":{"type":"Point","coordinates":)";
    std::ostringstream coord;
    append_coordinate(coord, poi.centroid);
    os << coord.str() << "}}";
  }
  os << "]}";
  return os.str();
}

}  // namespace locpriv::poi
