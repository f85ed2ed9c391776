// Stage supervision for a sweep: progress heartbeats plus a hard deadline.
// harness::run_sweep owns the one watchdog of a sweep; the Supervisor
// checks it before every cell attempt. The hard deadline is enforced
// cooperatively: the in-process engine calls checkpoint() and gets
// Error(kDeadline) thrown at it when time is up, which propagates through
// parallel_for's exception aggregation instead of leaving detached threads
// or a hung process; the isolated engine polls expired() and kills its
// children. A background thread only does the talking (heartbeat logs and
// the hard-deadline announcement); expiry itself is computed from the
// monotonic clock, so it does not depend on that thread being scheduled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/harness/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace locpriv::harness {

struct StageOptions {
  std::string name = "stage";
  /// Cadence of "still alive, N/M units done" logs (at warn level, so they
  /// show by default); zero disables.
  std::chrono::milliseconds heartbeat{std::chrono::seconds(30)};
  /// Past this, checkpoint() throws Error(kDeadline). Zero = none.
  std::chrono::milliseconds hard_deadline{0};
};

class StageWatchdog {
 public:
  explicit StageWatchdog(StageOptions options);
  ~StageWatchdog();

  StageWatchdog(const StageWatchdog&) = delete;
  StageWatchdog& operator=(const StageWatchdog&) = delete;

  /// Total work units, for heartbeat "done/total" rendering (0 = unknown).
  void set_total(std::uint64_t units) { total_.store(units); }

  /// Thread-safe progress bump, called from worker loops.
  void add_progress(std::uint64_t units = 1) { done_.fetch_add(units); }

  std::uint64_t progress() const { return done_.load(); }

  /// True once the hard deadline has passed.
  bool expired() const;

  /// Cooperative cancellation point: throws Error(kDeadline) naming the
  /// stage once the hard deadline has passed, otherwise returns. Safe to
  /// call concurrently from parallel_for bodies.
  void checkpoint() const;

  std::chrono::milliseconds elapsed() const;

 private:
  void watch();

  // options_ and start_ are written once in the constructor (before the
  // logging thread exists) and read-only afterwards; done_/total_ are
  // atomics. Only the stop flag needs the mutex, and the annotation makes
  // an unlocked access a compile error under -Wthread-safety.
  StageOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> total_{0};
  util::Mutex mutex_;
  util::CondVar cv_;
  bool stop_ LOCPRIV_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

}  // namespace locpriv::harness
