// Access-frequency simulation.
//
// The paper's central experimental knob is the interval at which a
// background app refreshes location (1 s ... 7,200 s). Decimating the
// full-rate ground-truth trace at a fixed interval models exactly what such
// an app collects; prefix/offset selection models Figure 4's "from the
// start" vs "from a random position" conditions.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.hpp"
#include "trace/trajectory.hpp"
#include "util/expect.hpp"

namespace locpriv::trace {

/// The greedy decimation rule, fed one fix at a time: keeps the first fix
/// at or after `start_s`, then each fix at least `step_s` after the last one
/// kept. A step of 0 keeps every fix of a non-decreasing trace. Precondition:
/// step_s >= 0.
class Decimator {
 public:
  Decimator(std::int64_t step_s, std::int64_t start_s)
      : step_s_(step_s), next_due_(start_s) {
    LOCPRIV_EXPECT(step_s >= 0);
  }

  /// Whether `point`, the next fix of the stream, is kept.
  bool keep(const TracePoint& point) {
    constexpr std::int64_t kLast = std::numeric_limits<std::int64_t>::max();
    if (point.timestamp_s < next_due_) return false;
    // The due time saturates at kLast; past it no fix is due, not even one
    // at kLast itself.
    if (point.timestamp_s == kLast && saturated_) return false;
    saturated_ = __builtin_add_overflow(point.timestamp_s, step_s_, &next_due_);
    if (saturated_) next_due_ = kLast;
    return true;
  }

 private:
  std::int64_t step_s_;
  std::int64_t next_due_;
  bool saturated_ = false;
};

/// The fixes a Decimator(interval_s, start_s) keeps — the trace an app
/// polling every `interval_s` seconds would observe. A fix that repeats the
/// timestamp of a kept fix is dropped, so the result holds at most one fix
/// per `interval_s`. Preconditions: interval_s > 0.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s, std::int64_t start_s);

/// Convenience overload starting at the first fix.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s);

/// The collection model: what an app polling every `interval_s` seconds
/// from the first fix receives. At interval_s <= 1 that is every fix, also
/// fixes that share a timestamp (1 Hz ground truth can repeat one);
/// otherwise decimate(points, interval_s).
std::vector<TracePoint> collect(const std::vector<TracePoint>& points,
                                std::int64_t interval_s);

/// collect() one fix at a time: keeps what collect(points, interval_s)
/// keeps of a non-decreasing trace whose first fix is at `start_s`.
Decimator collector(std::int64_t interval_s, std::int64_t start_s);

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

}  // namespace locpriv::trace
