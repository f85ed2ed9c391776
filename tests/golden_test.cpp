// Golden-format tests: exact expected text for the stable serialisation
// formats (PLT records, dumpsys reports, GeoJSON, CSV escaping). Downstream
// consumers parse these formats, so byte-level changes must be deliberate.
#include <gtest/gtest.h>

#include <vector>

#include "android/dumpsys.hpp"
#include "android/location_manager.hpp"
#include "poi/geojson.hpp"
#include "trace/geolife.hpp"

namespace locpriv {
namespace {

TEST(Golden, PltDocument) {
  const std::vector<trace::TracePoint> session{{{39.906631, 116.385564}, 1224814199}};
  const std::string expected =
      "Geolife trajectory\n"
      "WGS 84\n"
      "Altitude is in Feet\n"
      "Reserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n"
      "1\n"
      "39.906631,116.385564,0,0,39745.0902662037,2008-10-24,02:09:59\n";
  EXPECT_EQ(trace::write_plt(session), expected);
}

TEST(Golden, DumpsysReport) {
  android::LocationManager manager((stats::Rng(1)));
  const android::PermissionSet fine({android::Permission::kAccessFineLocation});
  manager.request_updates("com.example.app", android::LocationProvider::kGps, 30,
                          android::Granularity::kFine, fine, 100);
  const std::string expected =
      "Location Manager state (t=123s):\n"
      "  Active Requests:\n"
      "    Request[gps] pkg=com.example.app interval=30s granularity=fine\n";
  EXPECT_EQ(android::dumpsys_location_report(manager, 123), expected);
}

TEST(Golden, DumpsysReportWithLastKnown) {
  android::LocationManager manager((stats::Rng(1)));
  const android::PermissionSet fine({android::Permission::kAccessFineLocation});
  manager.request_updates("a", android::LocationProvider::kGps, 5,
                          android::Granularity::kFine, fine, 0);
  manager.tick(1, {39.9, 116.4});
  const std::string report = android::dumpsys_location_report(manager, 1);
  // The accuracy value is rng-dependent; check the stable structure.
  EXPECT_NE(report.find("  Last Known Location: provider=gps acc="),
            std::string::npos);
  EXPECT_EQ(report.find("acc=m"), std::string::npos);
}

TEST(Golden, GeoJsonPointFeature) {
  poi::Poi place;
  place.id = 0;
  place.centroid = {39.9042, 116.4074};
  place.visits.push_back({place.centroid, 10, 700, 5});
  trace::UserTrace empty_user;
  const std::string expected =
      R"({"type":"FeatureCollection","features":[)"
      R"({"type":"Feature","properties":{"poi":0,"visits":1,"dwell_s":690},)"
      R"("geometry":{"type":"Point","coordinates":[116.407400,39.904200]}}]})";
  EXPECT_EQ(poi::to_geojson(empty_user, {place}), expected);
}

TEST(Golden, PltRoundTripPreservesExactCoordinates) {
  // 6-decimal fixed formatting must survive a full round trip bit-for-bit
  // at the printed precision.
  const std::vector<trace::TracePoint> original{
      {{-33.856784, 151.215296}, 1224814199},  // Southern hemisphere.
      {{0.000001, -0.000001}, 1224814200}};    // Near the origin.
  const auto parsed = trace::parse_plt(trace::write_plt(original));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed[0].position.lat_deg, -33.856784);
  EXPECT_DOUBLE_EQ(parsed[0].position.lon_deg, 151.215296);
  EXPECT_DOUBLE_EQ(parsed[1].position.lat_deg, 0.000001);
  EXPECT_EQ(parsed[0].timestamp_s, 1224814199);
}

}  // namespace
}  // namespace locpriv
