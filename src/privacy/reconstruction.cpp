#include "privacy/reconstruction.hpp"

#include <algorithm>

#include "geo/geodesy.hpp"
#include "stats/descriptive.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

PositionEstimator::PositionEstimator(std::vector<trace::TracePoint> collected)
    : collected_(std::move(collected)) {
  LOCPRIV_EXPECT(!collected_.empty());
  for (std::size_t i = 1; i < collected_.size(); ++i)
    LOCPRIV_EXPECT(collected_[i - 1].timestamp_s <= collected_[i].timestamp_s);
}

std::size_t PositionEstimator::locate(std::int64_t t) const {
  const auto it = std::upper_bound(
      collected_.begin(), collected_.end(), t,
      [](std::int64_t value, const trace::TracePoint& p) { return value < p.timestamp_s; });
  if (it == collected_.begin()) return 0;
  return static_cast<std::size_t>(it - collected_.begin()) - 1;
}

const geo::LatLon& PositionEstimator::estimate(std::int64_t t) const {
  return collected_[locate(t)].position;
}

ReconstructionError reconstruction_error(const std::vector<trace::TracePoint>& truth,
                                         const PositionEstimator& estimator,
                                         std::int64_t sample_every_s) {
  LOCPRIV_EXPECT(!truth.empty());
  LOCPRIV_EXPECT(sample_every_s >= 1);
  std::vector<double> errors;
  std::int64_t next_sample = truth.front().timestamp_s;
  for (const auto& point : truth) {
    if (point.timestamp_s < next_sample) continue;
    errors.push_back(
        // locpriv-lint: allow(linear-spatial-scan) one truth-estimate pair
        geo::haversine_m(point.position, estimator.estimate(point.timestamp_s)));
    next_sample = point.timestamp_s + sample_every_s;
  }
  ReconstructionError result;
  result.samples = errors.size();
  if (errors.empty()) return result;
  result.mean_m = stats::mean(errors);
  result.median_m = stats::quantile(errors, 0.5);
  result.p90_m = stats::quantile(errors, 0.9);
  return result;
}

}  // namespace locpriv::privacy
