#include "trace/sampling.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace locpriv::trace {

std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s, std::int64_t start_s) {
  LOCPRIV_EXPECT(interval_s > 0);
  std::vector<TracePoint> out;
  if (points.empty()) return out;
  // Kept fixes from start_s on are at least interval_s apart, so a sorted
  // trace keeps at most (last - start_s) / interval_s + 1 of them. Unsorted
  // input only makes this a loose hint.
  const std::int64_t last_s = points.back().timestamp_s;
  if (last_s >= start_s) {
    const std::uint64_t steps = (static_cast<std::uint64_t>(last_s) -
                                 static_cast<std::uint64_t>(start_s)) /
                                static_cast<std::uint64_t>(interval_s);
    out.reserve(steps < points.size() ? static_cast<std::size_t>(steps) + 1
                                      : points.size());
  }
  Decimator decimator(interval_s, start_s);
  for (const auto& point : points)
    if (decimator.keep(point)) out.push_back(point);
  return out;
}

std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s) {
  if (points.empty()) return {};
  return decimate(points, interval_s, points.front().timestamp_s);
}

std::vector<TracePoint> collect(const std::vector<TracePoint>& points,
                                std::int64_t interval_s) {
  return interval_s <= 1 ? points : decimate(points, interval_s);
}

Decimator collector(std::int64_t interval_s, std::int64_t start_s) {
  return {interval_s <= 1 ? 0 : interval_s, start_s};
}

std::size_t prefix_length(std::size_t size, double fraction) {
  LOCPRIV_EXPECT(fraction >= 0.0 && fraction <= 1.0);
  return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(size)));
}

std::vector<TracePoint> take_prefix_fraction(const std::vector<TracePoint>& points,
                                             double fraction) {
  const std::size_t keep = prefix_length(points.size(), fraction);
  return {points.begin(), points.begin() + static_cast<std::ptrdiff_t>(keep)};
}

std::vector<TracePoint> from_random_offset(const std::vector<TracePoint>& points,
                                           stats::Rng& rng) {
  if (points.empty()) return {};
  const auto start = static_cast<std::size_t>(rng.next_below(points.size()));
  return {points.begin() + static_cast<std::ptrdiff_t>(start), points.end()};
}

}  // namespace locpriv::trace
