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
  options.stage.heartbeat = std::chrono::seconds(args.get_int("--heartbeat"));
  options.stage.soft_deadline =
      std::chrono::seconds(args.get_int("--soft-deadline"));
  options.stage.hard_deadline =
      std::chrono::seconds(args.get_int("--hard-deadline"));
  options.supervisor.isolate = args.get_bool("--isolate");
  options.supervisor.workers =
      static_cast<unsigned>(args.get_int("--workers"));
  options.supervisor.cell_rlimit_mb =
      static_cast<std::size_t>(args.get_int("--cell-rlimit-mb"));
  options.supervisor.cell_cpu_s =
      static_cast<unsigned>(args.get_int("--cell-cpu-s"));
  options.supervisor.cell_deadline = std::chrono::milliseconds(
      static_cast<long long>(args.get_double("--cell-deadline") * 1000.0));
  options.supervisor.term_grace = std::chrono::milliseconds(
      static_cast<long long>(args.get_double("--cell-grace") * 1000.0));
  options.supervisor.max_attempts =
      static_cast<int>(args.get_int("--cell-retries"));
  options.supervisor.backoff_base =
      std::chrono::milliseconds(args.get_int("--cell-backoff-ms"));
  if (!args.get("--run-dir").empty() && !args.get("--resume").empty())
    throw Error(ErrorCode::kUsage, "--run-dir and --resume are mutually exclusive");
  if (options.stage.heartbeat.count() < 0 ||
      options.stage.soft_deadline.count() < 0 ||
      options.stage.hard_deadline.count() < 0)
    throw Error(ErrorCode::kUsage, "deadlines and heartbeat must be >= 0 seconds");
  if (args.get_int("--workers") < 1)
    throw Error(ErrorCode::kUsage, "--workers must be >= 1");
  if (args.get_int("--cell-retries") < 1)
    throw Error(ErrorCode::kUsage, "--cell-retries must be >= 1");
  if (args.get_int("--cell-rlimit-mb") < 0 || args.get_int("--cell-cpu-s") < 0 ||
      args.get_double("--cell-deadline") < 0 ||
      args.get_double("--cell-grace") < 0 ||
      args.get_int("--cell-backoff-ms") < 0)
    throw Error(ErrorCode::kUsage, "cell limits must be >= 0");
  options.stage.name = std::move(stage_name);
  if (!args.get("--resume").empty()) {
    options.run_dir = args.get("--resume");
    options.resume = true;
  } else {
    options.run_dir = args.get("--run-dir");
  }
  return options;
}

RunOptions parse_run_options(int argc, const char* const* argv,
                             std::string stage_name) {
  util::Args args;
  declare_run_flags(args);
  args.parse(argc, argv, 1);
  return run_options_from(args, std::move(stage_name));
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
