#include "trace/trajectory.hpp"

#include <utility>

#include "util/expect.hpp"

namespace locpriv::trace {

void UserTrace::append(const TracePoint& point) {
  LOCPRIV_EXPECT(points_.empty() || points_.back().timestamp_s <= point.timestamp_s);
  if (!session_open_) {
    session_starts_.push_back(points_.size());
    session_open_ = true;
  }
  points_.push_back(point);
}

std::span<const TracePoint> UserTrace::session(std::size_t i) const {
  LOCPRIV_EXPECT(i < session_starts_.size());
  const std::size_t end =
      i + 1 < session_starts_.size() ? session_starts_[i + 1] : points_.size();
  return std::span<const TracePoint>(points_).subspan(session_starts_[i],
                                                     end - session_starts_[i]);
}

std::vector<TracePoint> UserTrace::take_points() && {
  session_starts_.clear();
  session_open_ = false;
  return std::exchange(points_, {});
}

}  // namespace locpriv::trace
