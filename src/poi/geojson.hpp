// GeoJSON export, for inspecting traces and extracted PoIs in any map
// viewer. Emits a FeatureCollection: recording sessions as LineStrings, PoIs
// as Points with visit metadata.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "poi/clustering.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::poi {

/// One recording session as a GeoJSON LineString feature.
std::string trajectory_to_geojson_feature(std::span<const trace::TracePoint> session);

/// A full user trace as a FeatureCollection of LineStrings (one per
/// session), optionally with the user's PoIs as Point features carrying
/// `visits` and `dwell_s` properties.
std::string to_geojson(const trace::UserTrace& user, const std::vector<Poi>& pois = {});

}  // namespace locpriv::poi
