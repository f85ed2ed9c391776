// Trace data model.
//
// A TracePoint is one GPS fix (position + Unix timestamp in seconds). A
// UserTrace is every fix of one user in one time-ordered vector, plus the
// offset where each recording session starts (one Geolife .plt file, or one
// simulated day). Only the dataset statistics and the file formats look at
// sessions; every analysis reads the whole trace through points().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::trace {

/// One GPS fix.
struct TracePoint {
  geo::LatLon position;
  std::int64_t timestamp_s = 0;  ///< Unix time, seconds.

  friend bool operator==(const TracePoint&, const TracePoint&) = default;
};

/// All fixes of one user in non-decreasing time order, split into recording
/// sessions. append() is the only way in; it checks each fix against the
/// previous one, across session boundaries too.
class UserTrace {
 public:
  std::string user_id;

  /// Starts a new session at the next append(). A session is recorded only
  /// once it holds a fix, so a session that gets no fix never appears.
  void begin_session() { session_open_ = false; }

  /// Appends a fix to the current session, opening one if none is open.
  /// Precondition: its timestamp is >= the previous fix's.
  void append(const TracePoint& point);

  /// Every fix, in time order.
  const std::vector<TracePoint>& points() const { return points_; }

  std::size_t session_count() const { return session_starts_.size(); }

  /// The fixes of session `i` (never empty). Precondition: i < session_count().
  std::span<const TracePoint> session(std::size_t i) const;

  /// Moves every fix out, leaving the trace with no fixes and no sessions.
  std::vector<TracePoint> take_points() &&;

 private:
  std::vector<TracePoint> points_;
  std::vector<std::size_t> session_starts_;  ///< Index of each session's first fix.
  bool session_open_ = false;
};

}  // namespace locpriv::trace
