#include "core/harness/sweep.hpp"

namespace locpriv::harness {

std::string RunOptions::mode_string() const {
  return (supervisor.isolate ? "isolate-w" : "inproc-w") +
         std::to_string(supervisor.workers);
}

void declare_run_flags(util::Args& args) {
  args.declare("--run-dir", "");
  args.declare("--resume", "");
  args.declare("--heartbeat", "30");
  args.declare("--soft-deadline", "0");
  args.declare("--hard-deadline", "0");
  args.declare_bool("--isolate");
  args.declare("--workers", "1");
  args.declare("--cell-rlimit-mb", "0");
  args.declare("--cell-cpu-s", "0");
  args.declare("--cell-deadline", "0");
  args.declare("--cell-grace", "2");
  args.declare("--cell-retries", "3");
  args.declare("--cell-backoff-ms", "100");
}

RunOptions run_options_from(const util::Args& args, std::string stage_name) {
  RunOptions options;
  const auto seconds = [&](const char* flag) {
    return std::chrono::seconds(args.get_int(flag, 0, kMaxFlagSeconds));
  };
  const auto seconds_as_ms = [&](const char* flag) {
    return std::chrono::milliseconds(static_cast<long long>(
        args.get_double(flag, 0, static_cast<double>(kMaxFlagSeconds)) * 1000.0));
  };
  options.stage.heartbeat = seconds("--heartbeat");
  options.stage.soft_deadline = seconds("--soft-deadline");
  options.stage.hard_deadline = seconds("--hard-deadline");
  options.supervisor.isolate = args.get_bool("--isolate");
  options.supervisor.workers =
      static_cast<unsigned>(args.get_int("--workers", 1, kMaxFlagWorkers));
  options.supervisor.cell_rlimit_mb =
      static_cast<std::size_t>(args.get_int("--cell-rlimit-mb", 0, kMaxFlagMiB));
  options.supervisor.cell_cpu_s =
      static_cast<unsigned>(args.get_int("--cell-cpu-s", 0, kMaxFlagSeconds));
  options.supervisor.cell_deadline = seconds_as_ms("--cell-deadline");
  options.supervisor.term_grace = seconds_as_ms("--cell-grace");
  options.supervisor.max_attempts =
      static_cast<int>(args.get_int("--cell-retries", 1, kMaxFlagRetries));
  options.supervisor.backoff_base =
      std::chrono::milliseconds(args.get_int("--cell-backoff-ms", 0, kMaxFlagBackoffMs));
  if (!args.get("--run-dir").empty() && !args.get("--resume").empty())
    throw Error(ErrorCode::kUsage, "--run-dir and --resume are mutually exclusive");
  options.stage.name = std::move(stage_name);
  if (!args.get("--resume").empty()) {
    options.run_dir = args.get("--resume");
    options.resume = true;
  } else {
    options.run_dir = args.get("--run-dir");
  }
  return options;
}

std::unique_ptr<RunLedger> open_ledger(const RunOptions& options,
                                       const RunInfo& info) {
  if (!options.active()) return nullptr;
  const auto ledger_path = options.run_dir / "ledger.jsonl";
  if (!options.resume && std::filesystem::exists(ledger_path))
    throw Error(ErrorCode::kResume,
                options.run_dir.string() +
                    " already holds a ledger; pass --resume to continue that "
                    "run or choose a fresh --run-dir");
  return std::make_unique<RunLedger>(options.run_dir, info);
}

}  // namespace locpriv::harness
