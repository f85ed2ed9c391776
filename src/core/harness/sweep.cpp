#include "core/harness/sweep.hpp"

#include <memory>
#include <tuple>

#include "core/harness/interrupt.hpp"
#include "util/logging.hpp"

namespace locpriv::harness {

namespace {

/// Execution-mode descriptor pinned into the ledger header (e.g.
/// "isolate-w4", "inproc-w1"): a resume under a different mode or worker
/// count is refused, because dispatch differences could change which
/// cells were attempted and make "byte-identical resume" unfalsifiable.
std::string mode_string(const SupervisorOptions& supervisor) {
  return (supervisor.isolate ? "isolate-w" : "inproc-w") +
         std::to_string(supervisor.workers);
}

}  // namespace

void declare_run_flags(util::Args& args) {
  args.declare("--run-dir", "");
  args.declare("--resume", "");
  args.declare_bool("--isolate");
  args.declare("--workers", "1");
  args.declare("--cell-rlimit-mb", "0");
  args.declare("--cell-deadline", "0");
  args.declare("--cell-grace", "2");
  args.declare("--cell-retries", "3");
  args.declare("--cell-backoff-ms", "100");
}

RunOptions run_options_from(const util::Args& args) {
  RunOptions options;
  const auto seconds_as_ms = [&](const char* flag) {
    return std::chrono::milliseconds(static_cast<long long>(
        args.get_double(flag, 0, static_cast<double>(kMaxFlagSeconds)) * 1000.0));
  };
  options.supervisor.isolate = args.get_bool("--isolate");
  options.supervisor.workers =
      static_cast<unsigned>(args.get_int("--workers", 1, kMaxFlagWorkers));
  options.supervisor.cell_rlimit_mb =
      static_cast<std::size_t>(args.get_int("--cell-rlimit-mb", 0, kMaxFlagMiB));
  options.supervisor.cell_deadline = seconds_as_ms("--cell-deadline");
  options.supervisor.term_grace = seconds_as_ms("--cell-grace");
  options.supervisor.max_attempts =
      static_cast<int>(args.get_int("--cell-retries", 1, kMaxFlagRetries));
  options.supervisor.backoff_base =
      std::chrono::milliseconds(args.get_int("--cell-backoff-ms", 0, kMaxFlagBackoffMs));
  std::tie(options.run_dir, options.resume) = run_dir_from(args);
  return options;
}

std::pair<std::filesystem::path, bool> run_dir_from(const util::Args& args) {
  const bool resume = !args.get("--resume").empty();
  if (resume && !args.get("--run-dir").empty())
    throw Error(ErrorCode::kUsage, "--run-dir and --resume are mutually exclusive");
  const std::filesystem::path run_dir = args.get(resume ? "--resume" : "--run-dir");
  if (!run_dir.empty()) refuse_reused_run_dir(run_dir, resume);
  return {run_dir, resume};
}

SweepResult run_sweep(const RunOptions& options, RunInfo info,
                      const std::vector<std::string>& cells, const CellFn& fn) {
  info.mode = mode_string(options.supervisor);
  const std::unique_ptr<RunLedger> ledger =
      options.active() ? open_run_ledger(options.run_dir, options.resume, info)
                       : std::make_unique<RunLedger>();
  if (ledger->completed_count() > 0)
    LOCPRIV_LOG(kWarn, "harness")
        << "resume: " << ledger->completed_count() << "/" << cells.size()
        << " cells already journaled in " << ledger->path().string();

  SupervisorOptions supervisor = options.supervisor;
  supervisor.backoff_seed = info.seed;
  {
    const InterruptScope interrupts;
    Supervisor(supervisor).run(cells, fn, *ledger);
  }

  // Rows assemble from the ledger in cell order, so computed, replayed and
  // isolated cells are indistinguishable here: that is the byte-identity
  // argument for resumed and isolated runs.
  std::vector<std::vector<std::string>> rows;
  std::vector<QuarantinedCell> quarantined;
  for (const std::string& key : cells) {
    if (const auto* fields = ledger->fields(key); fields != nullptr)
      rows.push_back(*fields);
    else if (const auto* details = ledger->quarantine_details(key); details != nullptr)
      quarantined.push_back({key, *details});
  }
  return {std::move(rows), std::move(quarantined)};
}

}  // namespace locpriv::harness
