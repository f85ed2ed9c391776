// Storage-torture chaos bench: locprivd under a randomized (but seeded)
// sweep of StorageFaultPlans — EIO, sticky and recovering ENOSPC, short
// writes, lying fsyncs, failed renames — injected through the process-global
// FileOps layer, plus powered-off bit-rot planted directly in snapshot
// files between legs. Every seed must end in one of exactly two ways:
//
//   1. The run completes and its per-user audit rows are byte-identical to
//      the batch pipeline (faults were absorbed), or
//   2. the run exits through the error taxonomy (exit 3..8), after which
//      `scrub --repair` must restore the directory to a resumable state and
//      a clean resume must reach byte-identical rows — zero divergence.
//
// A silent wrong answer, an escape outside the taxonomy, or an unrepairable
// directory fails the bench. A final combined scenario stacks a SIGKILL'd
// shard, recovering ENOSPC, and newest-snapshot bit-rot in one run and
// demands recovery through the newest-two fallback. SIGINT/SIGTERM stop the
// sweep: the running leg drains, the scratch directory is removed, and the
// bench exits 7. Output: console summary plus BENCH_storage.json — CI runs
// this reduced as `storage_torture_smoke`.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/atomic_file.hpp"
#include "core/harness/file_ops.hpp"
#include "core/harness/interrupt.hpp"
#include "core/harness/sweep.hpp"
#include "mobility/synthesis.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/scrub.hpp"
#include "sim/faults/process_plan.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace locpriv;

namespace fs = std::filesystem;

/// xorshift64 — the same tiny generator FaultyFileOps uses; everything in
/// the sweep derives from (base seed, sweep index) so a seed reproduces.
std::uint64_t mix(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x == 0 ? 1 : x;
}

struct SweepConfig {
  service::ServiceOptions options;
  service::TrafficOptions traffic;
  fs::path root;
};

/// One deterministic fault plan per sweep index: roughly a third of the
/// seeds target only snapshot publishes (the degraded-mode path), the rest
/// hit every durable write in the run dir, ledger included.
harness::StorageFaultPlan plan_for(std::uint64_t seed, const fs::path& run_dir) {
  harness::StorageFaultPlan plan;
  plan.seed = seed;
  std::uint64_t r = mix(seed * 0x9E3779B97F4A7C15ull + 1);
  plan.path_filter = (r % 3 == 0) ? std::string(".snap.") : run_dir.string();
  r = mix(r);
  switch (r % 4) {
    case 0:
      plan.eio_at_op = 1 + (mix(r) % 12);
      break;
    case 1:
      plan.enospc_at_op = 1 + (mix(r) % 6);
      plan.enospc_recover_after = mix(r + 1) % 6;  // 0 = sticky.
      break;
    case 2:
      plan.short_write_prob = (mix(r) % 2 == 0) ? 1.0 : 0.3;
      break;
    default:
      plan.drop_tail_at_fsync = 1 + (mix(r) % 6);
      break;
  }
  if (mix(r + 2) % 5 == 0) plan.rename_fail_at = 1 + (mix(r + 3) % 3);
  return plan;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Plants powered-off bit-rot: flips one byte in shard0's newest snapshot,
/// but only when an older one remains for the newest-two fallback to use.
bool rot_newest_snapshot(const fs::path& run_dir) {
  std::vector<fs::path> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(run_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard0.snap.", 0) == 0) snaps.push_back(entry.path());
  }
  if (snaps.size() < 2) return false;
  const auto seq_of = [](const fs::path& snap) {
    // "<shard>.snap.<seq>.dat" — lexicographic order lies past seq 9.
    const std::string name = snap.filename().string();
    const std::size_t mark = name.find(".snap.");
    return std::strtoull(name.c_str() + mark + 6, nullptr, 10);
  };
  fs::path newest = snaps.front();
  for (const fs::path& snap : snaps)
    if (seq_of(snap) > seq_of(newest)) newest = snap;
  std::string bytes = slurp(newest);
  if (bytes.size() < 2) return false;
  bytes[bytes.size() / 2] ^= 0x10;
  // locpriv-lint: allow(raw-write) bit-rot planted on purpose, bypassing the checked writer.
  std::ofstream out(newest, std::ios::binary | std::ios::trunc);
  out << bytes;
  return true;
}

struct SeedOutcome {
  bool completed = false;  ///< Leg 1 finished drain without an Error.
  int exit = 0;            ///< Taxonomy exit code when !completed.
  bool parity_ok = false;  ///< Rows byte-identical (whichever leg finished).
  bool resumable = false;  ///< Scrub verdict after repair.
  bool rotted = false;
  bool resumed = false;
  harness::InjectedFaults injected;
};

/// Drives one full schedule and returns the audit rows; throws the
/// service's own taxonomy errors through. A signal stops the traffic or the
/// report wait, and the leg then drains and throws
/// harness::interrupted_error (exit 7) whatever the drain met under the
/// leg's fault plan: every run directory lives under the scratch root,
/// which goes with the bench, so none is left to resume.
std::vector<std::vector<std::string>> run_leg(const SweepConfig& config,
                                              const core::PrivacyAnalyzer& analyzer,
                                              const fs::path& run_dir,
                                              bool resume) {
  std::vector<std::vector<std::string>> rows;
  std::uint64_t accepted = 0;
  try {
    service::LocprivService daemon(config.options, analyzer, run_dir, resume);
    const service::TrafficOutcome traffic =
        service::drive_traffic(daemon, analyzer, config.traffic);
    accepted = traffic.accepted;
    if (!traffic.interrupted) rows = daemon.collect_reports();
    daemon.drain();
  } catch (const Error&) {
    if (!harness::interrupt_requested()) throw;
  }
  if (harness::interrupt_requested())
    throw harness::interrupted_error(
        std::to_string(accepted) + " accepted batches of a leg", {});
  return rows;
}

SeedOutcome torture_one(const SweepConfig& config,
                        const core::PrivacyAnalyzer& analyzer,
                        const std::vector<std::vector<std::string>>& reference,
                        std::uint64_t seed) {
  SeedOutcome outcome;
  const fs::path run_dir = config.root / ("seed_" + std::to_string(seed));
  const harness::StorageFaultPlan plan = plan_for(seed, run_dir);
  harness::FaultyFileOps faulty(plan);
  {
    harness::ScopedFileOps scoped(&faulty);
    try {
      outcome.parity_ok = run_leg(config, analyzer, run_dir, false) == reference;
      outcome.completed = true;
    } catch (const Error& error) {
      if (error.code() == ErrorCode::kInterrupted) throw;  // Not a taxonomy exit.
      outcome.exit = error.exit_code();
    }
  }
  outcome.injected = faulty.injected();

  // Between-legs bit-rot on a third of the seeds: the scrubber must catch
  // it (the run-time fault plan cannot — the bytes were written honestly).
  if (seed % 3 == 1) outcome.rotted = rot_newest_snapshot(run_dir);

  // Repair with the disk healthy again. A directory the service never got a
  // ledger into is vacuously fine — the resume leg starts fresh.
  const bool has_ledger = fs::exists(run_dir / "ledger.jsonl");
  if (has_ledger) {
    const service::ScrubReport report = service::scrub_run_dir(run_dir, true);
    outcome.resumable = report.resumable;
  } else {
    outcome.resumable = true;
  }

  // Anything short of a clean first leg must recover: resume over the
  // repaired directory, re-drive the identical schedule (dedupe drops what
  // the snapshots already cover), and demand byte parity.
  if (outcome.resumable && (!outcome.completed || outcome.rotted)) {
    outcome.resumed = true;
    outcome.parity_ok =
        run_leg(config, analyzer, run_dir, has_ledger) == reference;
  }
  fs::remove_all(run_dir);
  return outcome;
}

/// The acceptance scenario: a SIGKILL'd shard incarnation, recovering
/// ENOSPC on snapshot publishes, and newest-snapshot bit-rot planted after
/// the run — recovery must come through the newest-two fallback with zero
/// metric divergence.
bool combined_scenario(SweepConfig config,
                       const core::PrivacyAnalyzer& analyzer) {
  const fs::path run_dir = config.root / "combined";
  config.options.fault_plan = sim::ProcessFaultPlan::parse("crash:1@shard0");
  config.options.fault_after_batches = 12;
  // Paced traffic and a tight cadence so every shard fills its newest-two
  // retention window (the bit-rot leg needs a fallback snapshot to exist).
  config.options.snapshot_interval = std::chrono::milliseconds(20);
  config.traffic.pace = std::chrono::milliseconds(3);
  config.traffic.rounds = 2;
  // The schedule changed (two rounds): this scenario has its own oracle.
  const std::vector<std::vector<std::string>> reference =
      service::batch_reference_rows(analyzer, config.options.interval_s,
                                    config.traffic);

  harness::StorageFaultPlan plan;
  plan.seed = 1;
  plan.path_filter = ".snap.";
  plan.enospc_at_op = 2;
  plan.enospc_recover_after = 2;
  harness::FaultyFileOps faulty(plan);
  bool first_leg_ok = false;
  {
    harness::ScopedFileOps scoped(&faulty);
    try {
      first_leg_ok = run_leg(config, analyzer, run_dir, false) == reference;
    } catch (const Error& error) {
      if (error.code() == ErrorCode::kInterrupted) throw;
      std::cerr << "combined: first leg exited " << error.exit_code() << " ("
                << error.what() << ")\n";
      return false;
    }
  }
  if (!first_leg_ok) {
    std::cerr << "combined: first leg diverged from the batch pipeline\n";
    return false;
  }
  if (!rot_newest_snapshot(run_dir)) {
    std::cerr << "combined: no snapshot pair to rot (run too short?)\n";
    return false;
  }
  const service::ScrubReport report = service::scrub_run_dir(run_dir, true);
  if (!report.resumable) {
    std::cerr << "combined: directory not resumable after scrub --repair\n";
    return false;
  }
  config.options.fault_plan = {};
  config.options.fault_after_batches = 0;
  const bool parity = run_leg(config, analyzer, run_dir, true) == reference;
  if (!parity) std::cerr << "combined: resumed leg diverged\n";
  fs::remove_all(run_dir);
  return parity;
}

int run(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--users", "4");
  args.declare("--days", "1");
  args.declare("--seed", std::to_string(core::kDatasetSeed));
  args.declare("--seeds", "50");
  args.declare("--shards", "2");
  args.declare("--interval", "60");
  args.declare("--batch", "32");
  args.declare("--json", "BENCH_storage.json");
  args.declare_bool("--skip-combined");
  args.parse(argc, argv, 1);

  bench::print_header("storage torture: locprivd under injected disk faults",
                      /*uses_mobility_corpus=*/false);

  const auto seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  const mobility::DatasetConfig dataset = core::synthetic_corpus(args, seed);
  const auto sweep_seeds =
      static_cast<std::uint64_t>(args.get_int("--seeds", 0, harness::kMaxFlagCount));
  SweepConfig config;
  config.options.shards =
      static_cast<unsigned>(args.get_int("--shards", 1, harness::kMaxFlagWorkers));
  config.options.interval_s = core::interval_arg(args);
  config.options.seed = seed;
  config.options.heartbeat = std::chrono::milliseconds(50);
  config.options.ping_timeout = std::chrono::milliseconds(1000);
  config.options.term_grace = std::chrono::milliseconds(200);
  config.options.backoff_base = std::chrono::milliseconds(10);
  config.traffic.batch_size =
      static_cast<std::size_t>(args.get_int("--batch", 0, harness::kMaxFlagCount));
  // Pace the sweep legs just enough for the snapshot cadence to fire, so
  // retention windows fill and the bit-rot seeds have something to rot.
  config.options.snapshot_interval = std::chrono::milliseconds(60);
  config.traffic.pace = std::chrono::milliseconds(1);

  const core::PrivacyAnalyzer analyzer = core::PrivacyAnalyzer::from_synthetic(
      core::experiment_analyzer_config(), dataset);
  config.options.scale =
      service::run_scale(analyzer, config.options.interval_s, config.traffic);
  // One scope for the seed sweep and the combined scenario, open before the
  // scratch directory exists so no signal can kill the bench with it on
  // disk: run_leg's drive_traffic and collect_reports poll it, and scopes
  // do not nest.
  const harness::InterruptScope interrupts;
  const bench::RunDir scratch("", "bench_storage");
  config.root = scratch.path();

  const std::vector<std::vector<std::string>> reference =
      service::batch_reference_rows(analyzer, config.options.interval_s,
                                    config.traffic);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t clean_runs = 0, taxonomy_exits = 0, rogue_exits = 0;
  std::uint64_t parity_failures = 0, unrepairable = 0, resumed_runs = 0;
  std::uint64_t rot_planted = 0;
  harness::InjectedFaults totals;
  std::map<int, std::uint64_t> exits_by_code;
  for (std::uint64_t seed = 1; seed <= sweep_seeds; ++seed) {
    if (harness::interrupt_requested())
      throw harness::interrupted_error(std::to_string(seed - 1) + " seeds", {});
    SeedOutcome outcome;
    try {
      outcome = torture_one(config, analyzer, reference, seed);
    } catch (const std::exception& error) {
      // An interrupted leg ends the sweep; otherwise the clean legs (scrub,
      // resume) must not throw at all.
      if (harness::interrupt_requested()) throw;
      std::cerr << "seed " << seed << ": escaped the taxonomy: "
                << error.what() << '\n';
      ++rogue_exits;
      continue;
    }
    if (outcome.completed) {
      ++clean_runs;
    } else if (outcome.exit >= 3 && outcome.exit <= 8) {
      ++taxonomy_exits;
      ++exits_by_code[outcome.exit];
    } else {
      std::cerr << "seed " << seed << ": exit " << outcome.exit
                << " is outside the error taxonomy\n";
      ++rogue_exits;
    }
    if (!outcome.resumable) {
      std::cerr << "seed " << seed << ": not resumable after scrub --repair\n";
      ++unrepairable;
    } else if (!outcome.parity_ok) {
      std::cerr << "seed " << seed << ": audit rows diverged\n";
      ++parity_failures;
    }
    if (outcome.rotted) ++rot_planted;
    if (outcome.resumed) ++resumed_runs;
    totals.eio += outcome.injected.eio;
    totals.enospc += outcome.injected.enospc;
    totals.short_writes += outcome.injected.short_writes;
    totals.dropped_tails += outcome.injected.dropped_tails;
    totals.rename_failures += outcome.injected.rename_failures;
    totals.bit_flips += outcome.injected.bit_flips;
  }
  const bool combined_ok =
      args.get_bool("--skip-combined") || combined_scenario(config, analyzer);
  const double duration_s = bench::seconds_since(start);

  std::cout << "sweep: " << sweep_seeds << " seeds in "
            << util::format_fixed(duration_s, 1) << "s — " << clean_runs
            << " absorbed, " << taxonomy_exits << " taxonomy exits, "
            << rogue_exits << " rogue\n"
            << "faults injected: " << totals.eio << " eio, " << totals.enospc
            << " enospc, " << totals.short_writes << " short writes, "
            << totals.dropped_tails << " dropped tails, "
            << totals.rename_failures << " failed renames\n"
            << "recovery: " << rot_planted << " rotted snapshots, "
            << resumed_runs << " resumed runs, " << unrepairable
            << " unrepairable, " << parity_failures << " parity failures\n";
  for (const auto& [code, count] : exits_by_code)
    std::cout << "  exit " << code << ": " << count << " seeds\n";

  const bool faults_fired = totals.total() > 0;
  const bool ok = rogue_exits == 0 && parity_failures == 0 &&
                  unrepairable == 0 && combined_ok && faults_fired;
  {
    util::JsonWriter json;
    json.begin_object();
    bench::write_bench_header(json, "storage_torture");
    json.member("users", static_cast<std::int64_t>(analyzer.user_count()));
    json.member("days", static_cast<std::int64_t>(dataset.synthesis.days));
    json.member("shards", static_cast<std::int64_t>(config.options.shards));
    json.member("sweep_seeds", static_cast<std::int64_t>(sweep_seeds));
    json.member("duration_s", duration_s);
    json.member("clean_runs", static_cast<std::int64_t>(clean_runs));
    json.member("taxonomy_exits", static_cast<std::int64_t>(taxonomy_exits));
    json.member("rogue_exits", static_cast<std::int64_t>(rogue_exits));
    json.member("resumed_runs", static_cast<std::int64_t>(resumed_runs));
    json.member("rotted_snapshots", static_cast<std::int64_t>(rot_planted));
    json.member("unrepairable", static_cast<std::int64_t>(unrepairable));
    json.member("parity_failures",
                static_cast<std::int64_t>(parity_failures));
    json.member("injected_eio", static_cast<std::int64_t>(totals.eio));
    json.member("injected_enospc", static_cast<std::int64_t>(totals.enospc));
    json.member("injected_short_writes",
                static_cast<std::int64_t>(totals.short_writes));
    json.member("injected_dropped_tails",
                static_cast<std::int64_t>(totals.dropped_tails));
    json.member("injected_rename_failures",
                static_cast<std::int64_t>(totals.rename_failures));
    json.member("combined_scenario_ok", combined_ok);
    json.member("ok", ok);
    json.end_object();
    harness::write_file_atomic(args.get("--json"), json.str() + "\n");
    std::cout << "json -> " << args.get("--json") << '\n';
  }
  if (!ok) {
    std::cerr << "FAIL: storage faults escaped the "
                 "byte-parity-or-taxonomy-exit contract\n";
    return 1;
  }
  std::cout << "\nOK: every seed either absorbed its faults with byte parity "
               "or exited the taxonomy and recovered via scrub + resume\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
