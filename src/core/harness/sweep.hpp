// Front end tying the harness together for the bench binaries: the shared
// run-supervision command line, and the policy for opening a run ledger.
//
//   --run-dir DIR       checkpointed run; artifacts + ledger land in DIR
//   --resume DIR        continue a previous run, skipping completed cells
//   --heartbeat S       progress log cadence in seconds (default 30, 0 = off)
//   --soft-deadline S   warn when the sweep stage runs longer than S seconds
//   --hard-deadline S   abort with exit 5 when the stage exceeds S seconds
//   --isolate           fork one child per sweep-cell attempt (crash isolation)
//   --workers N         concurrent cells (children or threads; default 1)
//   --cell-rlimit-mb N  RLIMIT_AS per isolated cell, MiB (0 = off)
//   --cell-cpu-s N      RLIMIT_CPU per isolated cell, seconds (0 = off)
//   --cell-deadline S   per-attempt wall deadline, seconds (0 = off; isolate)
//   --cell-grace S      SIGTERM->SIGKILL grace, seconds (default 2)
//   --cell-retries N    attempts per cell before quarantine (default 3)
//   --cell-backoff-ms N retry backoff base in milliseconds (default 100)
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "core/harness/run_ledger.hpp"
#include "core/harness/supervisor.hpp"
#include "core/harness/watchdog.hpp"
#include "util/args.hpp"

namespace locpriv::harness {

struct RunOptions {
  std::filesystem::path run_dir;  ///< Empty = unsupervised legacy run.
  bool resume = false;
  StageOptions stage;
  SupervisorOptions supervisor;

  /// True when a run directory (fresh or resumed) was requested.
  bool active() const { return !run_dir.empty(); }

  /// Execution-mode descriptor pinned into the RunLedger header (e.g.
  /// "isolate-w4", "inproc-w1"): a resume under a different mode or worker
  /// count is refused, because dispatch differences could change which
  /// cells were attempted and make "byte-identical resume" unfalsifiable.
  std::string mode_string() const;
};

/// Ceilings for command-line numbers, so that what is derived from them stays
/// representable: a duration is added to a nanosecond clock (or multiplied
/// by a retry count first), a backoff base doubles up to 20 times, a MiB
/// limit becomes a byte count, and every worker or shard is a process.
inline constexpr long long kMaxFlagSeconds = 1'000'000;  // about 11.6 days
inline constexpr long long kMaxFlagBackoffMs = 1'000'000;
inline constexpr long long kMaxFlagMiB = 1LL << 30;
inline constexpr long long kMaxFlagWorkers = 1024;
inline constexpr long long kMaxFlagRetries = 1000;

/// Declares the standard harness flags on a caller-owned parser, so bench
/// binaries can mix them with their own experiment flags in one command
/// line. Pair with run_options_from() after args.parse().
void declare_run_flags(util::Args& args);

/// Extracts and validates RunOptions from a parsed command line that
/// declared the flags via declare_run_flags(). Throws Error(kUsage) on a
/// value outside its range (negative or above the kMaxFlag* ceilings, zero
/// workers or retries, a non-finite number) and on --run-dir with --resume.
RunOptions run_options_from(const util::Args& args, std::string stage_name);

/// Opens the ledger for a supervised run, or returns nullptr when no run
/// dir was requested. A fresh `--run-dir` refuses to reuse a directory that
/// already holds a ledger (Error kResume: pass `--resume` to continue it);
/// `--resume` accepts both an existing ledger (header must match `info`)
/// and an empty directory (starts from scratch).
std::unique_ptr<RunLedger> open_ledger(const RunOptions& options,
                                       const RunInfo& info);

}  // namespace locpriv::harness
