#include "core/harness/watchdog.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace locpriv::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::string seconds_text(std::chrono::milliseconds ms) {
  return util::format_fixed(static_cast<double>(ms.count()) / 1000.0, 1);
}

}  // namespace

StageWatchdog::StageWatchdog(StageOptions options)
    : options_(std::move(options)), start_(Clock::now()) {
  // The thread exists only to log; expiry is clock-derived in checkpoint().
  if (options_.heartbeat.count() > 0 || options_.hard_deadline.count() > 0)
    thread_ = std::thread([this] { watch(); });
}

StageWatchdog::~StageWatchdog() {
  if (!thread_.joinable()) return;
  {
    const util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::chrono::milliseconds StageWatchdog::elapsed() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start_);
}

bool StageWatchdog::expired() const {
  return options_.hard_deadline.count() > 0 && elapsed() >= options_.hard_deadline;
}

void StageWatchdog::checkpoint() const {
  if (!expired()) return;
  throw Error(ErrorCode::kDeadline,
              "stage '" + options_.name + "' exceeded its hard deadline of " +
                  seconds_text(options_.hard_deadline) + " s (elapsed " +
                  seconds_text(elapsed()) + " s)");
}

void StageWatchdog::watch() {
  // Scoped lock for the whole loop; the condition-variable waits release it
  // atomically. Predicates are re-checked in the loop head instead of being
  // passed as lambdas, so every stop_ access is visibly under mutex_ for
  // the thread-safety analysis.
  const util::MutexLock lock(mutex_);
  auto next_heartbeat = options_.heartbeat.count() > 0
                            ? start_ + options_.heartbeat
                            : Clock::time_point::max();
  auto hard_at = options_.hard_deadline.count() > 0
                     ? start_ + options_.hard_deadline
                     : Clock::time_point::max();
  while (!stop_) {
    const auto wake = std::min(next_heartbeat, hard_at);
    if (wake == Clock::time_point::max()) {
      // Nothing left to announce; sleep until the destructor stops us.
      cv_.wait(mutex_);
      continue;
    }
    cv_.wait_until(mutex_, wake);
    if (stop_) break;
    const auto now = Clock::now();
    if (now >= hard_at) {
      LOCPRIV_LOG(kError, "harness")
          << "stage '" << options_.name << "' blew its hard deadline ("
          << seconds_text(options_.hard_deadline)
          << " s); aborting at the next checkpoint";
      hard_at = Clock::time_point::max();
      continue;
    }
    if (now >= next_heartbeat) {
      const std::uint64_t done = done_.load();
      const std::uint64_t total = total_.load();
      // Warn level, the default threshold: the heartbeat is how a long
      // stage announces itself, so it must show without a log setting.
      auto message = LOCPRIV_LOG(kWarn, "harness");
      message << "stage '" << options_.name << "': " << done;
      if (total > 0) message << "/" << total;
      message << " units done, " << seconds_text(elapsed()) << " s elapsed";
      next_heartbeat = now + options_.heartbeat;
    }
  }
}

}  // namespace locpriv::harness
