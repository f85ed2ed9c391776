// Access-frequency simulation and measurement-noise models.
//
// The paper's central experimental knob is the interval at which a
// background app refreshes location (1 s ... 7,200 s). Decimating the
// full-rate ground-truth trace at a fixed interval models exactly what such
// an app collects; prefix/offset selection models Figure 4's "from the
// start" vs "from a random position" conditions.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::trace {

/// Keeps the first fix at or after `start_s`, then greedily the next fix at
/// least `interval_s` later, and so on — the trace an app polling every
/// `interval_s` seconds would observe. Interval 1 with start at the first
/// fix reproduces the full trace for 1 Hz ground truth.
/// Preconditions: interval_s > 0.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s, std::int64_t start_s);

/// Convenience overload starting at the first fix.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s);

/// Length of the first `fraction` of `size` points: fraction * size,
/// rounded to nearest. fraction in [0, 1].
std::size_t prefix_length(std::size_t size, double fraction);

/// First `fraction` of the points (by count, prefix_length of them).
/// fraction in [0, 1].
std::vector<TracePoint> take_prefix_fraction(const std::vector<TracePoint>& points,
                                             double fraction);

/// Points from a random starting index to the end; models an app installed
/// partway through the observation period (Figure 4(b)).
std::vector<TracePoint> from_random_offset(const std::vector<TracePoint>& points,
                                           stats::Rng& rng);

/// Adds zero-mean Gaussian position noise of `sigma_m` meters per axis to
/// every fix (GPS measurement error). sigma_m >= 0.
std::vector<TracePoint> add_gaussian_noise(const std::vector<TracePoint>& points,
                                           double sigma_m, stats::Rng& rng);

/// Drops each fix independently with probability `loss_rate` (urban-canyon
/// style outages). loss_rate in [0, 1].
std::vector<TracePoint> drop_random(const std::vector<TracePoint>& points,
                                    double loss_rate, stats::Rng& rng);

}  // namespace locpriv::trace
