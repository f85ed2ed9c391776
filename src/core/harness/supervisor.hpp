// The two engines behind harness::run_sweep, the one runner of sweep
// cells. A Supervisor runs each cell either in-process, on up to `workers`
// threads, or — under --isolate — in a forked child per attempt (a
// harness::ChildProcess), so a segfault, runaway allocation, or busy-hang
// in one cell cannot take down the run. The engines are not twins: a fork
// per attempt buys crash containment at the price of copying the parent's
// page tables, so the in-process engine stays the default. Children are
// capped with setrlimit(2) (RLIMIT_AS) and a preemptive wall-clock deadline
// per attempt (SIGTERM, a grace period, then SIGKILL); results travel back
// over a pipe as one frame (core/harness/frame.hpp) and land in the same
// RunLedger as in-process results, so isolated, resumed, and in-process
// executions of the same sweep produce byte-identical artifacts.
//
// Failed attempts retry with deterministic exponential backoff (jitter is
// derived from the run seed and cell key, never from wall-clock entropy).
// A cell that exhausts its attempts is *quarantined*: a structured failure
// record (signal, exit code, deadline classification, stderr tail per
// attempt) is journaled to the ledger, the rest of the sweep proceeds, and
// the run completes with ErrorCode::kQuarantined (exit 3).
//
// Each unit of work has one time bound. A cell attempt has --cell-deadline
// (isolate only); the sweep as a whole has none of its own: SIGINT/SIGTERM,
// caught by the InterruptScope run_sweep opens, trigger a graceful
// shutdown: dispatch stops, running children are terminated and reaped, the
// ledger is fsync'd, and run() throws Error(kInterrupted) (exit 7) — a run
// directory is left resumable; a memory ledger is dropped. So a sweep is
// time-boxed from outside, e.g. `timeout --preserve-status -s TERM 600
// locpriv audit-all ...`. Both engines log the warn-level "N/M cells done"
// progress line every 30 s themselves (the isolated engine from its poll
// loop, the in-process engine when a cell completes), so no helper thread
// exists when the isolated engine forks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/harness/error.hpp"
#include "core/harness/run_ledger.hpp"

namespace locpriv::harness {

struct SupervisorOptions {
  /// Concurrent cells (forked children under isolate, threads otherwise).
  unsigned workers = 1;
  /// Fork one child per cell attempt instead of running in-process.
  bool isolate = false;
  /// RLIMIT_AS for each child, in MiB; 0 leaves the limit untouched.
  /// Ignored in-process (rlimits are per-process, not per-thread).
  std::size_t cell_rlimit_mb = 0;
  /// Preemptive wall-clock deadline per attempt; past it the child gets
  /// SIGTERM, then SIGKILL after `term_grace`. 0 disables. Isolate only —
  /// threads cannot be preempted safely.
  std::chrono::milliseconds cell_deadline{0};
  /// How long a SIGTERM'd child may linger before SIGKILL.
  std::chrono::milliseconds term_grace{2000};
  /// Attempts per cell before quarantine (>= 1).
  int max_attempts = 3;
  /// Base of the exponential backoff between attempts; retry attempt k
  /// (k >= 2) waits base * 2^(k-2) plus deterministic jitter in [0, base).
  std::chrono::milliseconds backoff_base{100};
  /// Seed for the backoff jitter; run_sweep sets it to the run seed, so
  /// identical runs schedule identical retries.
  std::uint64_t backoff_seed = 0;
};

/// Computes one cell attempt and returns its serialized result fields (the
/// exact strings RunLedger journals and the artifact writers consume).
/// Under isolate the call runs in a forked child. Throwing std::exception
/// marks the attempt failed (retry, then quarantine); throwing Error is
/// treated the same way except in-process, where harness-level codes
/// (kIo, kResume, ...) propagate and abort the run.
using CellFn = std::function<std::vector<std::string>(
    std::size_t index, const std::string& key, int attempt)>;

/// The deterministic retry delay before attempt `attempt` (2-based: the
/// first retry) of `key` (a cell, or a locprivd shard): `base` times
/// 2^(attempt-2) plus jitter in [0, base) derived from (seed, key, attempt)
/// via splitmix64. No wall-clock or hardware entropy is involved.
std::chrono::milliseconds backoff_delay(std::chrono::milliseconds base,
                                        std::uint64_t seed,
                                        const std::string& key, int attempt);

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  /// Runs every not-yet-completed cell of `cells` through `fn`, journaling
  /// successes and quarantines to `ledger`, and returns how many cells it
  /// computed. Cells already completed in the ledger are skipped (resume)
  /// and not counted; previously quarantined cells are retried. Throws
  /// Error(kInterrupted) after a clean shutdown once interrupt_requested()
  /// turns true.
  std::size_t run(const std::vector<std::string>& cells, const CellFn& fn,
                  RunLedger& ledger);

 private:
  std::size_t run_isolated(const std::vector<std::string>& cells,
                           const CellFn& fn, RunLedger& ledger);
  std::size_t run_in_process(const std::vector<std::string>& cells,
                             const CellFn& fn, RunLedger& ledger);

  SupervisorOptions options_;
};

}  // namespace locpriv::harness
