#include "trace/trace_stats.hpp"

#include <algorithm>
#include <span>

#include "geo/geodesy.hpp"
#include "stats/descriptive.hpp"

namespace locpriv::trace {

namespace {

// Elapsed seconds between a session's first and last fix.
std::int64_t duration_s(std::span<const TracePoint> session) {
  return session.back().timestamp_s - session.front().timestamp_s;
}

// Path length of a session in meters (haversine).
double length_m(std::span<const TracePoint> session) {
  double total = 0.0;
  for (std::size_t i = 1; i < session.size(); ++i)
    total += geo::haversine_m(session[i - 1].position, session[i].position);
  return total;
}

}  // namespace

std::vector<double> sampling_intervals_s(const UserTrace& user) {
  std::vector<double> intervals;
  for (std::size_t s = 0; s < user.session_count(); ++s) {
    const auto session = user.session(s);
    for (std::size_t i = 1; i < session.size(); ++i)
      intervals.push_back(
          static_cast<double>(session[i].timestamp_s - session[i - 1].timestamp_s));
  }
  return intervals;
}

DatasetStats compute_dataset_stats(const std::vector<UserTrace>& users) {
  DatasetStats stats;
  stats.user_count = users.size();
  std::vector<double> all_intervals;
  for (const auto& user : users) {
    stats.trajectory_count += user.session_count();
    stats.point_count += user.points().size();
    for (std::size_t s = 0; s < user.session_count(); ++s) {
      const auto session = user.session(s);
      stats.total_length_km += length_m(session) / 1000.0;
      stats.total_duration_hours += static_cast<double>(duration_s(session)) / 3600.0;
    }
    auto intervals = sampling_intervals_s(user);
    all_intervals.insert(all_intervals.end(), intervals.begin(), intervals.end());
  }
  if (!all_intervals.empty()) {
    const auto high_frequency =
        std::count_if(all_intervals.begin(), all_intervals.end(),
                      [](double v) { return v >= 1.0 && v <= 5.0; });
    stats.high_frequency_fraction =
        static_cast<double>(high_frequency) / static_cast<double>(all_intervals.size());
    stats.median_interval_s = stats::quantile(all_intervals, 0.5);
  }
  return stats;
}

}  // namespace locpriv::trace
