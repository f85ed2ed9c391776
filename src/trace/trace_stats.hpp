// Dataset-level statistics, used to validate that the synthetic dataset
// matches the Geolife characteristics the paper relies on (182 users, ~91 %
// of fixes sampled every 1-5 s, ~1.2 M km total).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trajectory.hpp"

namespace locpriv::trace {

/// Aggregate statistics for a set of user traces.
struct DatasetStats {
  std::size_t user_count = 0;
  std::size_t trajectory_count = 0;
  std::size_t point_count = 0;
  double total_length_km = 0.0;
  double total_duration_hours = 0.0;
  /// Fraction of consecutive-fix intervals that are 1..5 seconds.
  double high_frequency_fraction = 0.0;
  /// Median of consecutive-fix intervals in seconds (0 if < 2 points).
  double median_interval_s = 0.0;
};

/// Computes aggregate statistics over `users`.
DatasetStats compute_dataset_stats(const std::vector<UserTrace>& users);

/// All consecutive-fix intervals (seconds) within the sessions of one user.
std::vector<double> sampling_intervals_s(const UserTrace& user);

}  // namespace locpriv::trace
