// Adversary correctness (after Shokri et al., "Quantifying Location
// Privacy", the paper's [30]): privacy is ultimately the adversary's
// *error* when estimating where the user actually was. The adversary
// reconstructs a position timeline from the collected fixes (piecewise:
// the user is at the last observed fix until the next one) and we measure
// the distance between that estimate and the ground-truth trace.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/latlon.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::privacy {

/// Piecewise-constant position estimator over a collected fix stream.
class PositionEstimator {
 public:
  /// Builds from collected fixes (time-ordered). Precondition: non-empty.
  explicit PositionEstimator(std::vector<trace::TracePoint> collected);

  /// Index of the last fix at or before `t` (std::upper_bound over the
  /// time-sorted stream); 0 for queries before the first fix.
  std::size_t locate(std::int64_t t) const;

  /// The adversary's estimate at time `t`: the position of locate(t).
  const geo::LatLon& estimate(std::int64_t t) const;

 private:
  std::vector<trace::TracePoint> collected_;
};

/// Summary of the reconstruction error over a ground-truth trace.
struct ReconstructionError {
  double mean_m = 0.0;
  double median_m = 0.0;
  double p90_m = 0.0;
  std::size_t samples = 0;
};

/// Evaluates the estimator against `truth`, sampling every
/// `sample_every_s` seconds of the truth stream (1 = every fix).
/// Preconditions: truth non-empty, sample_every_s >= 1.
ReconstructionError reconstruction_error(const std::vector<trace::TracePoint>& truth,
                                         const PositionEstimator& estimator,
                                         std::int64_t sample_every_s = 60);

}  // namespace locpriv::privacy
