#include "poi/staypoint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "core/harness/error.hpp"
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

bool ExtractionParams::valid() const {
  return radius_m > 0.0 && min_visit_s > 0 && window_fixes >= 4 &&
         window_fixes % 2 == 0 && window_fixes <= kMaxWindowFixes;
}

namespace {

/// Mean position from coordinate sums (positions are far from the poles and
/// the antimeridian, so arithmetic means are valid, matching geo::centroid).
geo::LatLon mean_position(double lat_sum, double lon_sum, std::size_t count) {
  LOCPRIV_EXPECT(count > 0);
  const auto n = static_cast<double>(count);
  return {lat_sum / n, lon_sum / n};
}

// The bound in front of the entry and exit tests.
//
// Both tests compare d = equirectangular_m(a, b) = R*sqrt((dlon*cos(phi_m))^2 +
// dlat^2) (differences in radians, phi_m the mean latitude) with radius_m,
// where a and b are centroids fl(sum / n). bound_side() brackets d with a few
// multiplies and answers kBelow or kAbove only when every value the exact
// code can compute lies on that side; otherwise the unchanged formula
// decides, so every decision is the exact code's.
//
// Scaled differences. With D a common multiple of both counts, D*(b - a)
// comes from the sums themselves: the entry window of w = 2h fixes (sum E,
// trailing half P) has D = w and D*(P/h - E/w) = 2P - E; the exit test (stay
// sum S of c fixes, window sum X) has D = c*w and D*(X/w - S/c) = c*X - w*S.
// The sums are the ones centroid_of and the open stay hold, bit for bit. The
// squares, in degrees^2, are compared with T*D^4, T = (radius_m / (R*pi/180))^2.
//
// Error budget, u = 2^-53:
//  * Absolute term A per coordinate, against M = D*(|a| + |b|) (|E| + 2|P|,
//    or c|X| + w|S|). Each exact centroid fl(sum / n) is off by u|centroid|
//    (2u for the stay past 2^53 fixes, where n rounds too), except that a
//    division by a power of two is exact. The filter's 2P - E rounds only
//    relatively, while its c*X and w*S are off by u each (2u past 2^53). So
//    the paths part by u*M at entry (0 when w is a power of two) and 4u*M at
//    exit; A is twice that, 2u*M and 8u*M, to cover A's own rounding.
//    Against b - a this error is unbounded -- it is what cancels when two
//    centroids nearly coincide -- so a relative margin cannot stand in for it.
//  * Slack s = 128u on |cos(phi_m)|. cos is 1-Lipschitz, so the exact code's
//    cosine is within (pi/180)*(|phi~ - phi0| + |D*dlat| / (2D)) + s of the
//    cached c0 = |cos(phi0)|, phi~ being the filter's latitude of a (entry) or
//    b (exit), when s covers the rest for |phi_m| <= 136 deg (a larger dlat
//    settles the test on its own): libm's cos at phi_m and at phi0 (2u),
//    deg_to_rad at both (9.3u), phi~ against the exact centroid, the exact
//    mean's rounding and the centroids' rounding in dlat (860u deg, 15u in
//    radians), and the filter's own arithmetic on the bracket (18u): 44u.
//  * Relative margin rho = 256u on T. The exact formula after the differences
//    (deg_to_rad, products, squares, sqrt, times R) moves d^2 by at most 16u;
//    the filter's bound (the differences, the bracket, the squares, D^4 and
//    T's own rounding) by at most 37u.
//  * Range. |phi~| <= 90 deg is required. A NaN or +-inf anywhere, the empty
//    cache included, makes the upper bound NaN or infinite: kUnsure. The
//    bound is off when T is outside [2^-800, 8100] (radius_m beyond 1e7 m,
//    or so small that squares turn subnormal); with T >= 2^-800 an underflow
//    (a subnormal centroid or square) moves the bound by under 2^-1070, far
//    inside rho.
constexpr double kUnit = 0x1p-53;
constexpr double kEntryAbsolute = 2 * kUnit;
constexpr double kExitAbsolute = 8 * kUnit;
constexpr double kCosSlack = 128 * kUnit;
constexpr double kRelative = 256 * kUnit;
constexpr double kRadPerDeg = std::numbers::pi / 180.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double square(double x) { return x * x; }

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
      half_(params.window_fixes / 2),
      inv_window_(1.0 / static_cast<double>(params.window_fixes)),
      entry_absolute_(std::has_single_bit(params.window_fixes) ? 0.0 : kEntryAbsolute),
      below_sq_(-1.0),
      above_sq_(std::numeric_limits<double>::infinity()),
      cached_lat_(kNaN),
      cached_cos_(kNaN) {
  LOCPRIV_EXPECT(params.valid());
  ring_.resize(std::bit_ceil(window_size_ + 1));
  mask_ = ring_.size() - 1;
  const double radius_sq =
      square(radius_m_ / (geo::kEarthRadiusMeters * geo::deg_to_rad(1.0)));
  if (radius_sq >= 0x1p-800 && radius_sq <= 8100.0) {
    below_sq_ = radius_sq * (1.0 - kRelative);
    above_sq_ = radius_sq * (1.0 + kRelative);
  }
}

StayPointStream::StayPointStream(const ExtractionParams& params, State state)
    : StayPointStream(params) {
  const auto unreachable = [](const std::string& why) {
    throw Error(ErrorCode::kResume, "unreachable stay-point stream state: " + why);
  };
  if (state.window.size() > window_size_)
    unreachable("a window of " + std::to_string(state.window.size()) +
                " fixes, longer than " + std::to_string(window_size_));
  if (!state.inside &&
      (state.count != 0 || std::bit_cast<std::uint64_t>(state.lat_sum) != 0 ||
       std::bit_cast<std::uint64_t>(state.lon_sum) != 0 || state.last_s != 0))
    unreachable("an open stay's sums outside a stay");
  // Entering a stay attributes the trailing half of the window to it.
  if (state.inside && state.count < half_)
    unreachable("an open stay of " + std::to_string(state.count) +
                " fixes, fewer than the entry half of the window");
  for (const trace::TracePoint& point : state.window) ring_[size_++] = point;
  inside_ = state.inside;
  enter_s_ = state.enter_s;
  stay_ = {state.lat_sum, state.lon_sum, state.count, state.last_s};
  stays_ = std::move(state.stays);
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

StayPointStream::Side StayPointStream::bound_side(double scaled_dlat, double scaled_dlon,
                                                  double lat_error, double lon_error,
                                                  double scale, double anchor_lat) const {
  const double lat_hi = std::abs(scaled_dlat) + lat_error;
  const double lon_hi = std::abs(scaled_dlon) + lon_error;
  // scale * |cos(phi_m)|, bracketed; phi_m is within dlat / 2 of the anchor.
  const double cos_slack = kRadPerDeg * std::abs(anchor_lat - cached_lat_) + kCosSlack;
  const double half_dlat = kRadPerDeg / 2 * std::abs(scaled_dlat);
  const double cos_hi = scale * (cached_cos_ + cos_slack) + half_dlat;
  const double hi = square(lon_hi * cos_hi) + square(lat_hi * scale);
  if (!(hi <= std::numeric_limits<double>::max()) || !(std::abs(anchor_lat) <= 90.0))
    return Side::kUnsure;
  const double scale4 = square(square(scale));
  if (hi < below_sq_ * scale4) return Side::kBelow;
  const double lat_lo = std::max(0.0, std::abs(scaled_dlat) - lat_error);
  const double lon_lo = std::max(0.0, std::abs(scaled_dlon) - lon_error);
  const double cos_lo = std::max(0.0, scale * (cached_cos_ - cos_slack) - half_dlat);
  const double lo = square(lon_lo * cos_lo) + square(lat_lo * scale);
  if (lo > above_sq_ * scale4) return Side::kAbove;
  return Side::kUnsure;
}

double StayPointStream::exact_distance_m(const geo::LatLon& a, const geo::LatLon& b) {
  // The mean latitude equirectangular_m takes the cosine of.
  cached_lat_ = (a.lat_deg + b.lat_deg) / 2.0;
  cached_cos_ = std::abs(std::cos(geo::deg_to_rad(cached_lat_)));
  if (!(std::abs(cached_lat_) <= 90.0)) cached_lat_ = kNaN;
  return geo::equirectangular_m(a, b);
}

bool StayPointStream::entered() {
  // buf_Entry = the full window; the nascent buf_PoI = its trailing half
  // (the two buffers overlap by half of buf_Entry). Summed as centroid_of
  // sums them.
  double entry_lat = 0.0;
  double entry_lon = 0.0;
  double poi_lat = 0.0;
  double poi_lon = 0.0;
  for (std::size_t i = 0; i < half_; ++i) {
    entry_lat += at(i).position.lat_deg;
    entry_lon += at(i).position.lon_deg;
  }
  for (std::size_t i = half_; i < size_; ++i) {
    entry_lat += at(i).position.lat_deg;
    entry_lon += at(i).position.lon_deg;
    poi_lat += at(i).position.lat_deg;
    poi_lon += at(i).position.lon_deg;
  }
  switch (bound_side(2 * poi_lat - entry_lat, 2 * poi_lon - entry_lon,
                     entry_absolute_ * (std::abs(entry_lat) + 2 * std::abs(poi_lat)),
                     entry_absolute_ * (std::abs(entry_lon) + 2 * std::abs(poi_lon)),
                     static_cast<double>(window_size_), entry_lat * inv_window_)) {
    case Side::kBelow:
      return true;
    case Side::kAbove:
      return false;
    case Side::kUnsure:
      break;
  }
  const geo::LatLon entry_centroid = centroid_of(0, size_);
  const geo::LatLon poi_centroid = centroid_of(half_, size_);
  return exact_distance_m(entry_centroid, poi_centroid) < radius_m_;
}

bool StayPointStream::exited() {
  double exit_lat = 0.0;
  double exit_lon = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    exit_lat += at(i).position.lat_deg;
    exit_lon += at(i).position.lon_deg;
  }
  const auto count = static_cast<double>(stay_.count);
  const auto window = static_cast<double>(window_size_);
  const double lat_size = count * std::abs(exit_lat) + window * std::abs(stay_.lat_sum);
  const double lon_size = count * std::abs(exit_lon) + window * std::abs(stay_.lon_sum);
  switch (bound_side(count * exit_lat - window * stay_.lat_sum,
                     count * exit_lon - window * stay_.lon_sum, kExitAbsolute * lat_size,
                     kExitAbsolute * lon_size, count * window, exit_lat * inv_window_)) {
    case Side::kBelow:
      return false;
    case Side::kAbove:
      return true;
    case Side::kUnsure:
      break;
  }
  const geo::LatLon exit_centroid = centroid_of(0, size_);
  const geo::LatLon stay_centroid =
      mean_position(stay_.lat_sum, stay_.lon_sum, stay_.count);
  return exact_distance_m(stay_centroid, exit_centroid) > radius_m_;
}

void StayPointStream::push(const trace::TracePoint& point) {
  ring_[(head_ + size_) & mask_] = point;
  ++size_;
  if (!inside_) {
    if (size_ > window_size_) pop_front();
    if (size_ < window_size_) return;
    if (entered()) {
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
  if (exited()) {
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

StayPointStream::State StayPointStream::state() const {
  State state;
  state.window.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) state.window.push_back(at(i));
  state.inside = inside_;
  state.enter_s = enter_s_;
  state.lat_sum = stay_.lat_sum;
  state.lon_sum = stay_.lon_sum;
  state.count = stay_.count;
  state.last_s = stay_.last_s;
  state.stays = stays_;
  return state;
}

std::size_t StayPointStream::heap_bytes() const {
  return ring_.capacity() * sizeof(trace::TracePoint) +
         stays_.capacity() * sizeof(StayPoint);
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
