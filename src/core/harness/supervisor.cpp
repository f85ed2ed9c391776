#include "core/harness/supervisor.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/harness/child_process.hpp"
#include "core/harness/interrupt.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"

namespace locpriv::harness {

namespace {

using Clock = std::chrono::steady_clock;

/// Cadence of the warn-level progress line; warn is the default threshold,
/// so a long sweep announces itself without a log setting.
constexpr auto kProgressEvery = std::chrono::seconds(30);

// ---------------------------------------------------------------------------
// Deterministic backoff jitter. splitmix64 over (seed ^ key-hash ^ attempt)
// — pure arithmetic, no clock or hardware entropy, so two executions of the
// same run schedule byte-identical retries.
// ---------------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct PendingCell {
  std::size_t index = 0;
  std::string key;
  int attempt = 1;
  Clock::time_point eligible;  ///< Earliest dispatch time (backoff).
};

/// One isolated cell attempt in flight.
struct Attempt {
  std::size_t index = 0;
  std::string key;
  int attempt = 1;
  /// Per-cell deadline; Clock::time_point::max() when there is none.
  Clock::time_point deadline = Clock::time_point::max();
  bool deadline_hit = false;
  bool killed = false;  ///< The deadline's SIGTERM escalated to SIGKILL.
  std::unique_ptr<ChildProcess> proc = std::make_unique<ChildProcess>();
};

std::vector<ChildProcess*> processes(const std::vector<Attempt>& running) {
  std::vector<ChildProcess*> procs;
  procs.reserve(running.size());
  for (const Attempt& attempt : running) procs.push_back(attempt.proc.get());
  return procs;
}

/// One structured line describing a failed attempt: what ended the child
/// (deadline / signal / exit code) plus its stderr tail.
std::string describe_failure(const Attempt& attempt, int status,
                             const SupervisorOptions& options) {
  std::string detail = "attempt " + std::to_string(attempt.attempt) + ": ";
  if (attempt.deadline_hit) {
    detail += "deadline " + std::to_string(options.cell_deadline.count()) +
              "ms exceeded (SIGTERM" +
              (attempt.killed ? std::string(", escalated to SIGKILL)")
                              : std::string(")"));
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    detail += "exit 0 but the result frame was truncated or corrupt";
  } else {
    detail += ChildProcess::describe(status);
  }
  const std::string tail = attempt.proc->stderr_tail().one_line();
  if (!tail.empty()) detail += "; stderr: " + tail;
  return detail;
}

std::chrono::milliseconds clamp_to_ms(Clock::duration d) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d);
  return ms.count() < 0 ? std::chrono::milliseconds(0) : ms;
}

/// The "N/M cells done" line, logged at most once per kProgressEvery by the
/// engine itself: the isolated poll loop, or the in-process worker that
/// completes a cell. `done` counts completed cells, resumed ones included.
class ProgressLog {
 public:
  explicit ProgressLog(std::size_t total)
      : total_(total), start_(Clock::now()), next_(start_ + kProgressEvery) {}

  void tick(std::size_t done) {
    const auto now = Clock::now();
    if (now < next_) return;
    next_ = now + kProgressEvery;
    LOCPRIV_LOG(kWarn, "supervisor")
        << done << "/" << total_ << " cells done, "
        << util::format_fixed(std::chrono::duration<double>(now - start_).count(), 1)
        << " s elapsed";
  }

 private:
  std::size_t total_;
  Clock::time_point start_;
  Clock::time_point next_;
};

}  // namespace

std::chrono::milliseconds backoff_delay(std::chrono::milliseconds base,
                                        std::uint64_t seed,
                                        const std::string& key, int attempt) {
  if (attempt <= 1 || base.count() <= 0) return std::chrono::milliseconds(0);
  // Exponential in the retry number, capped so the shift cannot overflow.
  const int exponent = std::min(attempt - 2, 20);
  const std::int64_t scaled = base.count() << exponent;
  const std::uint64_t jitter =
      splitmix64(seed ^ util::fnv1a(key) ^ static_cast<std::uint64_t>(attempt)) %
      static_cast<std::uint64_t>(base.count());
  return std::chrono::milliseconds(scaled + static_cast<std::int64_t>(jitter));
}

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {
  if (options_.workers < 1)
    throw Error(ErrorCode::kUsage, "supervisor requires at least one worker");
  if (options_.max_attempts < 1)
    throw Error(ErrorCode::kUsage,
                "supervisor requires at least one attempt per cell");
}

std::size_t Supervisor::run(const std::vector<std::string>& cells,
                            const CellFn& fn, RunLedger& ledger) {
  return options_.isolate ? run_isolated(cells, fn, ledger)
                          : run_in_process(cells, fn, ledger);
}

std::size_t Supervisor::run_isolated(const std::vector<std::string>& cells,
                                     const CellFn& fn, RunLedger& ledger) {
  std::size_t computed = 0;
  ProgressLog progress(cells.size());
  std::deque<PendingCell> queue;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (!ledger.completed(cells[i]))
      queue.push_back({i, cells[i], 1, start});

  // Per-cell log of every failed attempt; becomes the quarantine record.
  std::map<std::string, std::vector<std::string>> failure_log;
  // Destroying an Attempt SIGKILLs and reaps its child, so an exception out
  // of this function leaves no child behind.
  std::vector<Attempt> running;
  bool interrupted = false;

  auto spawn = [&](PendingCell cell) {
    Attempt attempt;
    attempt.index = cell.index;
    attempt.key = std::move(cell.key);
    attempt.attempt = cell.attempt;
    attempt.proc->spawn(
        [&](int, int out_fd) {
          const std::string frame = encode_message(
              fn(attempt.index, attempt.key, attempt.attempt));
          if (!write_all(out_fd, frame))
            throw Error(ErrorCode::kIo,
                        "cannot write the result frame" + errno_detail());
          return 0;
        },
        options_.cell_rlimit_mb);
    if (options_.cell_deadline.count() > 0)
      attempt.deadline = Clock::now() + options_.cell_deadline;
    running.push_back(std::move(attempt));
  };

  while (!queue.empty() || !running.empty()) {
    if (interrupt_requested()) {
      interrupted = true;
      break;
    }
    progress.tick(ledger.completed_count());

    auto now = Clock::now();
    // Dispatch every eligible pending cell into free worker slots, in
    // queue order (original sweep order, retries at the back).
    while (running.size() < options_.workers) {
      auto eligible = std::find_if(
          queue.begin(), queue.end(),
          [&](const PendingCell& cell) { return cell.eligible <= now; });
      if (eligible == queue.end()) break;
      PendingCell cell = std::move(*eligible);
      queue.erase(eligible);
      spawn(std::move(cell));
    }

    if (running.empty()) {
      // Everything pending is backing off; nap until the earliest retry.
      auto earliest = Clock::time_point::max();
      for (const PendingCell& cell : queue)
        earliest = std::min(earliest, cell.eligible);
      const auto nap =
          std::min(clamp_to_ms(earliest - now), std::chrono::milliseconds(50));
      std::this_thread::sleep_for(std::max(nap, std::chrono::milliseconds(1)));
      continue;
    }

    // Poll the children's pipes; wake early for the nearest deadline or
    // SIGKILL time so an escalation never waits on quiet pipes.
    auto timeout = std::chrono::milliseconds(50);
    for (const Attempt& attempt : running) {
      if (!attempt.deadline_hit)
        timeout = std::min(timeout, clamp_to_ms(attempt.deadline - now));
      timeout = std::min(timeout, clamp_to_ms(attempt.proc->kill_at() - now));
    }
    ChildProcess::poll_all(processes(running),
                       std::max(timeout, std::chrono::milliseconds(1)));

    // Preemptive per-cell deadline: SIGTERM, a grace period, SIGKILL.
    now = Clock::now();
    for (Attempt& attempt : running) {
      if (!attempt.deadline_hit && now >= attempt.deadline) {
        attempt.deadline_hit = true;
        attempt.proc->terminate(options_.term_grace);
        LOCPRIV_LOG(kWarn, "supervisor")
            << "cell " << attempt.key << " attempt " << attempt.attempt
            << " blew its " << options_.cell_deadline.count()
            << "ms deadline; SIGTERM sent";
      } else if (attempt.proc->escalate()) {
        attempt.killed = true;
        LOCPRIV_LOG(kWarn, "supervisor")
            << "cell " << attempt.key << " ignored SIGTERM for "
            << options_.term_grace.count() << "ms; SIGKILL sent";
      }
    }

    // Reap exited children and classify each outcome. A result counts only
    // when exactly one frame decodes with no bytes left over.
    for (std::size_t i = 0; i < running.size();) {
      Attempt& attempt = running[i];
      const std::optional<int> status = attempt.proc->try_reap();
      if (!status) {
        ++i;
        continue;
      }
      std::vector<std::string> fields;
      FrameDecoder& result = attempt.proc->output();
      const bool frame_ok = WIFEXITED(*status) && WEXITSTATUS(*status) == 0 &&
                            !attempt.deadline_hit && result.next(fields) &&
                            result.buffered() == 0;
      if (frame_ok) {
        ledger.record(attempt.key, fields);
        ++computed;
      } else {
        const std::string detail = describe_failure(attempt, *status, options_);
        failure_log[attempt.key].push_back(detail);
        if (attempt.attempt < options_.max_attempts) {
          const auto delay =
              backoff_delay(options_.backoff_base, options_.backoff_seed,
                            attempt.key, attempt.attempt + 1);
          LOCPRIV_LOG(kWarn, "supervisor")
              << "cell " << attempt.key << " failed (" << detail
              << "); retrying in " << delay.count() << "ms";
          queue.push_back({attempt.index, attempt.key, attempt.attempt + 1,
                           Clock::now() + delay});
        } else {
          ledger.record_quarantine(attempt.key, failure_log[attempt.key]);
          LOCPRIV_LOG(kError, "supervisor")
              << "cell " << attempt.key << " quarantined after "
              << options_.max_attempts << " attempts (" << detail << ")";
        }
      }
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  if (interrupted) {
    // Graceful shutdown: stop dispatching, give children the TERM + grace +
    // KILL treatment, make the journal durable, and report exit 7. The run
    // directory stays resumable.
    for (Attempt& attempt : running)
      attempt.proc->terminate(options_.term_grace);
    while (!running.empty()) {
      ChildProcess::poll_all(processes(running), std::chrono::milliseconds(10));
      for (std::size_t i = 0; i < running.size();) {
        running[i].proc->escalate();
        if (running[i].proc->try_reap())
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        else
          ++i;
      }
    }
    ledger.sync();
    throw interrupted_error(std::to_string(computed) + " cells",
                            ledger.path().parent_path());
  }
  return computed;
}

std::size_t Supervisor::run_in_process(const std::vector<std::string>& cells,
                                       const CellFn& fn, RunLedger& ledger) {
  std::vector<std::pair<std::size_t, std::string>> todo;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (!ledger.completed(cells[i])) todo.emplace_back(i, cells[i]);

  std::size_t computed = 0;
  ProgressLog progress(cells.size());
  util::Mutex mutex;  // Guards ledger appends, the computed count and progress.

  util::parallel_for(
      todo.size(),
      [&](std::size_t i) {
        // A requested shutdown skips cells rather than aborting mid-cell;
        // skipped cells stay uncomputed in the ledger, i.e. resumable.
        if (interrupt_requested()) return;
        const std::size_t index = todo[i].first;
        const std::string& key = todo[i].second;
        std::vector<std::string> details;
        for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
          if (attempt > 1)
            std::this_thread::sleep_for(backoff_delay(
                options_.backoff_base, options_.backoff_seed, key, attempt));
          if (interrupt_requested()) return;
          try {
            const std::vector<std::string> fields = fn(index, key, attempt);
            const util::MutexLock lock(mutex);
            ledger.record(key, fields);
            ++computed;
            progress.tick(ledger.completed_count());
            return;
          } catch (const Error&) {
            // Harness-level failures (I/O, resume) are run failures, not
            // cell failures: no retry, no quarantine.
            throw;
          } catch (const std::exception& e) {
            details.push_back("attempt " + std::to_string(attempt) +
                              ": exception: " + e.what());
            LOCPRIV_LOG(kWarn, "supervisor")
                << "cell " << key << " attempt " << attempt
                << " failed in-process: " << e.what();
          }
        }
        const util::MutexLock lock(mutex);
        ledger.record_quarantine(key, details);
        LOCPRIV_LOG(kError, "supervisor")
            << "cell " << key << " quarantined after " << options_.max_attempts
            << " attempts";
      },
      options_.workers);

  if (interrupt_requested()) {
    ledger.sync();
    throw interrupted_error(std::to_string(computed) + " cells",
                            ledger.path().parent_path());
  }
  return computed;
}

}  // namespace locpriv::harness
