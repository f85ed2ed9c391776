#include "sim/faults/failover.hpp"

namespace locpriv::sim {

namespace {

// Lower rank = better source.
int rank(FusedSource source) {
  switch (source) {
    case FusedSource::kGps: return 0;
    case FusedSource::kNetwork: return 1;
    case FusedSource::kLastKnown: return 2;
  }
  return 3;
}

}  // namespace

FusedFailover::FusedFailover(const FaultSchedule& schedule)
    : schedule_(&schedule) {}

FusedSource FusedFailover::eligible_source(std::int64_t now_s) const {
  const std::int64_t hysteresis = schedule_->config().failover_hysteresis_s;
  if (schedule_->available(android::LocationProvider::kGps, now_s) &&
      schedule_->available_for_s(android::LocationProvider::kGps, now_s) >=
          hysteresis)
    return FusedSource::kGps;
  if (schedule_->available(android::LocationProvider::kNetwork, now_s) &&
      schedule_->available_for_s(android::LocationProvider::kNetwork, now_s) >=
          hysteresis)
    return FusedSource::kNetwork;
  return FusedSource::kLastKnown;
}

FusedSource FusedFailover::select(std::int64_t now_s) {
  const bool gps_ok =
      schedule_->available(android::LocationProvider::kGps, now_s);
  const bool network_ok =
      schedule_->available(android::LocationProvider::kNetwork, now_s);
  const FusedSource best_now = gps_ok      ? FusedSource::kGps
                               : network_ok ? FusedSource::kNetwork
                                            : FusedSource::kLastKnown;
  if (!initialized_) {
    // Boot picks whatever works right now; hysteresis only gates later
    // up-switches.
    initialized_ = true;
    current_ = best_now;
    return current_;
  }

  FusedSource next = current_;
  const bool current_serviceable =
      (current_ == FusedSource::kGps && gps_ok) ||
      (current_ == FusedSource::kNetwork && network_ok) ||
      current_ == FusedSource::kLastKnown;
  if (!current_serviceable) {
    // The hardware under the current source is gone: degrade immediately to
    // the best thing that still answers.
    next = best_now;
  } else {
    // A better source only takes over once it has been continuously healthy
    // for the hysteresis window — short recovery blips do not flap the feed.
    const FusedSource candidate = eligible_source(now_s);
    if (rank(candidate) < rank(current_)) next = candidate;
  }

  if (next != current_) {
    transitions_.push_back({now_s, current_, next});
    current_ = next;
  }
  return current_;
}

}  // namespace locpriv::sim
