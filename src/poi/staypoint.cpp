#include "poi/staypoint.hpp"

#include <bit>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::poi {

std::vector<ExtractionParams> table3_parameter_sets() {
  // Set ids 1..6: visiting time {10,20,30} min crossed with radius {50,100} m
  // in the paper's column order.
  return {
      {50.0, 10 * 60, 4}, {50.0, 20 * 60, 4}, {50.0, 30 * 60, 4},
      {100.0, 10 * 60, 4}, {100.0, 20 * 60, 4}, {100.0, 30 * 60, 4},
  };
}

namespace {

/// Mean position from coordinate sums (positions are far from the poles and
/// the antimeridian, so arithmetic means are valid, matching geo::centroid).
geo::LatLon mean_position(double lat_sum, double lon_sum, std::size_t count) {
  LOCPRIV_EXPECT(count > 0);
  const auto n = static_cast<double>(count);
  return {lat_sum / n, lon_sum / n};
}

}  // namespace

void StayPointStream::Attributed::add(const trace::TracePoint& point) {
  lat_sum += point.position.lat_deg;
  lon_sum += point.position.lon_deg;
  ++count;
  last_s = point.timestamp_s;
}

StayPointStream::StayPointStream(const ExtractionParams& params)
    : radius_m_(params.radius_m),
      min_visit_s_(params.min_visit_s),
      window_size_(params.window_fixes),
      half_(params.window_fixes / 2) {
  LOCPRIV_EXPECT(params.radius_m > 0.0);
  LOCPRIV_EXPECT(params.min_visit_s > 0);
  LOCPRIV_EXPECT(params.window_fixes >= 4 && params.window_fixes % 2 == 0);
  ring_.resize(std::bit_ceil(window_size_ + 1));
  mask_ = ring_.size() - 1;
}

void StayPointStream::pop_front() {
  head_ = (head_ + 1) & mask_;
  --size_;
}

// Recomputed from the window on every call: a rolling add/remove sum rounds
// differently, which can flip an entry or exit decision at the threshold.
geo::LatLon StayPointStream::centroid_of(std::size_t begin, std::size_t end) const {
  double lat_sum = 0.0;
  double lon_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    lat_sum += at(i).position.lat_deg;
    lon_sum += at(i).position.lon_deg;
  }
  return mean_position(lat_sum, lon_sum, end - begin);
}

std::optional<StayPoint> StayPointStream::closed_stay(std::size_t overlap) const {
  Attributed stay = stay_;
  for (std::size_t i = 0; i < overlap; ++i) stay.add(at(i));
  if (stay.last_s - enter_s_ < min_visit_s_) return std::nullopt;
  return StayPoint{mean_position(stay.lat_sum, stay.lon_sum, stay.count), enter_s_,
                   stay.last_s, stay.count};
}

void StayPointStream::push(const trace::TracePoint& point) {
  ring_[(head_ + size_) & mask_] = point;
  ++size_;
  if (!inside_) {
    if (size_ > window_size_) pop_front();
    if (size_ < window_size_) return;
    // buf_Entry = the full window; the nascent buf_PoI = its trailing
    // half (the two buffers overlap by half of buf_Entry).
    const geo::LatLon entry_centroid = centroid_of(0, size_);
    const geo::LatLon poi_centroid = centroid_of(half_, size_);
    if (geo::equirectangular_m(entry_centroid, poi_centroid) < radius_m_) {
      // Entered a stay: the trailing half becomes the stay's first fixes.
      inside_ = true;
      enter_s_ = at(half_).timestamp_s;
      for (std::size_t i = half_; i < size_; ++i) stay_.add(at(i));
      size_ = 0;
    }
    return;
  }
  // Points older than the exit window belong to the stay.
  while (size_ > window_size_) {
    stay_.add(at(0));
    pop_front();
  }
  if (size_ < window_size_) return;
  const geo::LatLon exit_centroid = centroid_of(0, size_);
  const geo::LatLon stay_centroid =
      mean_position(stay_.lat_sum, stay_.lon_sum, stay_.count);
  if (geo::equirectangular_m(stay_centroid, exit_centroid) > radius_m_) {
    // The leading half of the exit window overlaps the stay (paper: buf_PoI
    // and buf_Exit share an overlapped area) and joins it as it closes. The
    // rest of the window (the user's departure) seeds the next entry window
    // so back-to-back stays are both detected.
    if (auto stay = closed_stay(half_)) stays_.push_back(*stay);
    for (std::size_t i = 0; i < half_; ++i) pop_front();
    stay_ = Attributed();
    inside_ = false;
  }
}

std::vector<StayPoint> StayPointStream::peek_close() const {
  std::vector<StayPoint> stays = stays_;
  // End of stream: an open stay absorbs the whole residual window.
  if (inside_) {
    if (auto stay = closed_stay(size_)) stays.push_back(*stay);
  }
  return stays;
}

std::vector<StayPoint> extract_stay_points(const std::vector<trace::TracePoint>& points,
                                           const ExtractionParams& params) {
  StayPointStream stream(params);
  for (const auto& point : points) stream.push(point);
  return stream.peek_close();
}

std::vector<StayPoint> extract_stay_points_anchor(
    const std::vector<trace::TracePoint>& points, const ExtractionParams& params) {
  LOCPRIV_EXPECT(params.radius_m > 0.0);
  LOCPRIV_EXPECT(params.min_visit_s > 0);

  std::vector<StayPoint> stays;
  std::size_t i = 0;
  while (i < points.size()) {
    std::size_t j = i + 1;
    while (j < points.size() &&
           // locpriv-lint: allow(linear-spatial-scan) time-ordered walk from the anchor
           geo::equirectangular_m(points[i].position, points[j].position) <=
               params.radius_m)
      ++j;
    const std::int64_t span = points[j - 1].timestamp_s - points[i].timestamp_s;
    if (span >= params.min_visit_s) {
      double lat_sum = 0.0;
      double lon_sum = 0.0;
      for (std::size_t k = i; k < j; ++k) {
        lat_sum += points[k].position.lat_deg;
        lon_sum += points[k].position.lon_deg;
      }
      stays.push_back({mean_position(lat_sum, lon_sum, j - i), points[i].timestamp_s,
                       points[j - 1].timestamp_s, j - i});
      i = j;
    } else {
      ++i;
    }
  }
  return stays;
}

}  // namespace locpriv::poi
