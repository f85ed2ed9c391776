// Graceful degradation for the fused provider.
//
// On real devices Play services' fused provider never just stops: when GPS
// dies it silently falls back to network fixes, and when everything is out
// it keeps handing apps the last known location. This class reproduces that
// ladder — gps -> network -> last-known — against a FaultSchedule, with an
// up-switch hysteresis so the source does not flap across short recovery
// blips: a better source is only re-adopted after it has been continuously
// healthy for `failover_hysteresis_s`.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/faults/schedule.hpp"

namespace locpriv::sim {

/// Where a fused fix is actually coming from.
enum class FusedSource { kGps, kNetwork, kLastKnown };

/// Stateful source selector. One instance per device; `select` must be
/// called with non-decreasing timestamps.
class FusedFailover {
 public:
  /// `schedule` must outlive the failover.
  explicit FusedFailover(const FaultSchedule& schedule);

  /// The source serving a fused fix at `now_s`. Downgrades take effect
  /// immediately (the hardware is gone); upgrades wait out the hysteresis.
  FusedSource select(std::int64_t now_s);

  /// One source change, for tests and diagnostics.
  struct Transition {
    std::int64_t time_s = 0;
    FusedSource from = FusedSource::kGps;
    FusedSource to = FusedSource::kGps;

    friend bool operator==(const Transition&, const Transition&) = default;
  };

  const std::vector<Transition>& transitions() const { return transitions_; }
  FusedSource current() const { return current_; }

 private:
  /// Best source whose provider is healthy *and* has been healthy long
  /// enough to satisfy the hysteresis (relative to the current source).
  FusedSource eligible_source(std::int64_t now_s) const;

  const FaultSchedule* schedule_;
  FusedSource current_ = FusedSource::kGps;
  bool initialized_ = false;
  std::vector<Transition> transitions_;
};

}  // namespace locpriv::sim
