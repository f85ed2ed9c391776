// The one runner of sweep cells, and the run-supervision command line it
// takes. Every sweep (audit-all's users, bench_fault_degradation's
// intensity x interval grid) hands its cell keys and a CellFn to
// run_sweep(), which opens the ledger, runs one of the Supervisor's two
// engines under an InterruptScope, and returns the completed rows in cell
// order. Without a run directory the ledger is held in memory, so a run
// with or without --run-dir retries, quarantines, honours --workers and
// --isolate, and stops on SIGINT/SIGTERM in the same way; only a run
// directory makes the cells durable and resumable. A sweep has no time
// bound of its own: SIGTERM stops it (exit 7), so a time-boxed run is
// `timeout --preserve-status -s TERM S <command> --run-dir DIR ...`,
// continued later with --resume DIR. The one time bound inside a sweep is
// --cell-deadline, per cell attempt.
//
//   --run-dir DIR       checkpointed run; artifacts + ledger land in DIR
//   --resume DIR        continue a previous run, skipping completed cells
//   --isolate           fork one child per sweep-cell attempt (crash isolation)
//   --workers N         concurrent cells (children or threads; default 1)
//   --cell-rlimit-mb N  RLIMIT_AS per isolated cell, MiB (0 = off)
//   --cell-deadline S   per-attempt wall deadline, seconds (0 = off; isolate)
//   --cell-grace S      SIGTERM->SIGKILL grace, seconds (default 2)
//   --cell-retries N    attempts per cell before quarantine (default 3)
//   --cell-backoff-ms N retry backoff base in milliseconds (default 100)
#pragma once

#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/harness/run_ledger.hpp"
#include "core/harness/supervisor.hpp"
#include "util/args.hpp"

namespace locpriv::harness {

struct RunOptions {
  std::filesystem::path run_dir;  ///< Empty = the ledger is held in memory.
  bool resume = false;
  SupervisorOptions supervisor;

  /// True when a run directory (fresh or resumed) was requested.
  bool active() const { return !run_dir.empty(); }
};

/// Ceilings for command-line numbers, so that what is derived from them stays
/// representable: a duration is added to a nanosecond clock (or multiplied
/// by a retry count first), a backoff base doubles up to 20 times, a MiB
/// limit becomes a byte count, every worker or shard is a process, and a
/// count is stored in an `int`.
inline constexpr long long kMaxFlagSeconds = 1'000'000;  // about 11.6 days
inline constexpr long long kMaxFlagBackoffMs = 1'000'000;
inline constexpr long long kMaxFlagMiB = 1LL << 30;
inline constexpr long long kMaxFlagWorkers = 1024;
inline constexpr long long kMaxFlagRetries = 1000;
inline constexpr long long kMaxFlagCount = std::numeric_limits<int>::max();

/// Declares the standard harness flags on a caller-owned parser, so bench
/// binaries can mix them with their own experiment flags in one command
/// line. Pair with run_options_from() after args.parse().
void declare_run_flags(util::Args& args);

/// Extracts and validates RunOptions from a parsed command line that
/// declared the flags via declare_run_flags(). Throws Error(kUsage) on a
/// value outside its range (negative or above the kMaxFlag* ceilings, zero
/// workers or retries, a non-finite number), then what run_dir_from() does.
RunOptions run_options_from(const util::Args& args);

/// The run directory named by --run-dir DIR (fresh) or --resume DIR, and
/// whether it resumes; an empty path when neither was given. Throws
/// Error(kUsage) for both, and Error(kResume) for a fresh DIR that already
/// holds a ledger, so a command refuses it before reading its corpus.
std::pair<std::filesystem::path, bool> run_dir_from(const util::Args& args);

/// A cell that exhausted its attempts, with one journaled detail per attempt.
struct QuarantinedCell {
  std::string key;
  std::vector<std::string> details;
};

struct SweepResult {
  /// The fields of every completed cell, in cell order (fresh and resumed
  /// cells alike); quarantined cells are absent.
  std::vector<std::vector<std::string>> rows;
  /// Every quarantined cell, in cell order.
  std::vector<QuarantinedCell> quarantined;
};

/// Runs every cell of `cells` through `fn` and returns the rows. The ledger
/// is `options.run_dir`'s journal (open_run_ledger) or, without a run dir,
/// one held in memory. A fresh --run-dir that already holds a ledger is
/// refused with Error(kResume) before any cell runs; --resume replays the
/// journaled cells (and logs how many) and runs the rest. `info` names the
/// run: its seed seeds the retry backoff, and its mode is set here from
/// `options` ("inproc-wN" / "isolate-wN"), so a resume under other
/// --isolate/--workers settings is refused. A cell that throws
/// std::exception is retried and then quarantined; a harness Error thrown
/// by `fn` in-process ends the run, as does SIGINT/SIGTERM (kInterrupted,
/// through the InterruptScope open around the engine).
SweepResult run_sweep(const RunOptions& options, RunInfo info,
                      const std::vector<std::string>& cells, const CellFn& fn);

}  // namespace locpriv::harness
