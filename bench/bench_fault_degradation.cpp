// Fault-degradation sweep: how the paper's leakage metrics (PoI_total,
// PoI_sensitive, His_bin, Deg_anonymity) hold up when the location substrate
// misbehaves. For every (fault intensity, access interval) pair a spy app is
// driven along each user's trace through the real framework path with a
// seeded sim::FaultInjector between scheduling and delivery — GPS outages,
// cold-start TTFF, position noise/drift, delivery loss/delay, fused
// failover. Intensity 0 is the perfect substrate and doubles as the
// regression anchor: its delivery path is byte-identical to an
// uninstrumented replay.
//
// The sweep runs under the run harness (E17 is the longest campaign in the
// suite): with `--run-dir DIR` every completed (intensity, interval) cell is
// journaled to DIR/ledger.jsonl, and a crashed or SIGKILLed run rerun with
// `--resume DIR` skips the completed cells and produces a final CSV byte-
// identical to an uninterrupted run. `--heartbeat/--soft-deadline/
// --hard-deadline` supervise the sweep stage; a blown hard deadline aborts
// with exit 5. Under `--isolate` each cell attempt runs in a forked,
// rlimit-capped child supervised by harness::Supervisor: a segfaulting,
// hanging, or memory-bombing cell is retried with deterministic backoff and
// finally quarantined (exit 3) while the rest of the sweep completes.
// `--fault-cells crash@i0.50_t60,...` injects process-level faults for
// exercising exactly that path.
//
// Output: one row per (intensity, interval) pair, averaged over users, as a
// console table, a CSV block on stdout, atomically written CSV/JSON
// artifacts in the run dir (with --run-dir/--resume), and CSV/JSON files
// under LOCPRIV_CSV_DIR. Everything derives from kDatasetSeed, so two runs
// produce identical bytes.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "android/fused.hpp"
#include "android/replay.hpp"
#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/harness/run_ledger.hpp"
#include "core/harness/supervisor.hpp"
#include "core/harness/sweep.hpp"
#include "core/harness/watchdog.hpp"
#include "sim/faults/injector.hpp"
#include "sim/faults/process_plan.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace locpriv;

constexpr double kIntensities[] = {0.0, 0.25, 0.5, 0.75, 1.0};
constexpr std::int64_t kIntervals[] = {1, 10, 60, 600, 3600};
constexpr int kUserCount = 8;
constexpr int kDays = 3;

android::AndroidManifest spy_manifest() {
  android::AndroidManifest manifest;
  manifest.package_name = "com.spy";
  manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  return manifest;
}

android::AppBehavior spy_behavior(std::int64_t interval_s) {
  android::AppBehavior behavior;
  behavior.uses_location = true;
  behavior.auto_start_on_launch = true;
  behavior.continues_in_background = true;
  // Fused is the interesting provider under faults: it degrades across
  // gps -> network -> last-known instead of going silent.
  behavior.providers = {android::LocationProvider::kFused};
  behavior.request_interval_s = interval_s;
  behavior.requested_granularity = android::Granularity::kFine;
  return behavior;
}

struct SweepRow {
  double intensity = 0.0;
  std::int64_t interval_s = 0;
  double delivered = 0.0;
  double withheld_outage = 0.0;
  double dropped_loss = 0.0;
  double degraded_network = 0.0;
  double served_last_known = 0.0;
  double poi_total = 0.0;
  double poi_sensitive = 0.0;
  double hisbin_rate = 0.0;  ///< Fraction of users with either pattern firing.
  double anonymity = 0.0;    ///< Mean Deg_anonymity (pattern 2).
};

const std::vector<std::string> kCsvHeader = {
    "intensity", "interval_s", "delivered", "withheld_outage", "dropped_loss",
    "degraded_network", "served_last_known", "poi_total", "poi_sensitive",
    "hisbin_rate", "deg_anonymity_p2"};

std::vector<std::string> csv_fields(const SweepRow& row) {
  return std::vector<std::string>{
      util::format_fixed(row.intensity, 2), std::to_string(row.interval_s),
      util::format_fixed(row.delivered, 1),
      util::format_fixed(row.withheld_outage, 1),
      util::format_fixed(row.dropped_loss, 1),
      util::format_fixed(row.degraded_network, 1),
      util::format_fixed(row.served_last_known, 1),
      util::format_fixed(row.poi_total, 4),
      util::format_fixed(row.poi_sensitive, 4),
      util::format_fixed(row.hisbin_rate, 4),
      util::format_fixed(row.anonymity, 4)};
}

/// The ledger cell key for one sweep cell.
std::string cell_key(double intensity, std::int64_t interval_s) {
  std::string key = "i";
  key += util::format_fixed(intensity, 2);
  key += "_t";
  key += std::to_string(interval_s);
  return key;
}

/// Rebuilds a row from its serialized fields. Fresh and resumed cells both
/// flow through this round-trip, so every downstream artifact (table,
/// stdout CSV, file CSV/JSON) renders identical bytes either way.
SweepRow parse_fields(const std::vector<std::string>& fields) {
  if (fields.size() != kCsvHeader.size())
    throw Error(ErrorCode::kResume, "sweep cell has " +
                                        std::to_string(fields.size()) +
                                        " fields, expected " +
                                        std::to_string(kCsvHeader.size()));
  const auto number = [&](std::size_t index) {
    double value = 0.0;
    if (!util::parse_double(fields[index], value))
      throw Error(ErrorCode::kResume,
                  "bad sweep field '" + fields[index] + "' for " + kCsvHeader[index]);
    return value;
  };
  SweepRow row;
  row.intensity = number(0);
  long long interval = 0;
  if (!util::parse_int64(fields[1], interval))
    throw Error(ErrorCode::kResume, "bad sweep interval '" + fields[1] + "'");
  row.interval_s = interval;
  row.delivered = number(2);
  row.withheld_outage = number(3);
  row.dropped_loss = number(4);
  row.degraded_network = number(5);
  row.served_last_known = number(6);
  row.poi_total = number(7);
  row.poi_sensitive = number(8);
  row.hisbin_rate = number(9);
  row.anonymity = number(10);
  return row;
}

/// Replays every user through the faulted framework path for one sweep
/// cell. Users run under parallel_for (the analyzer is read-only after
/// construction); the reduction stays in user order, so the averages are
/// identical to the sequential loop at any thread count. Each user starts
/// with a watchdog checkpoint, which is how a blown hard deadline surfaces
/// here via the loop's exception aggregation.
SweepRow compute_cell(const core::PrivacyAnalyzer& analyzer, double intensity,
                      std::int64_t interval_s, harness::StageWatchdog& watchdog) {
  std::vector<SweepRow> partial(analyzer.user_count());
  util::parallel_for(analyzer.user_count(), [&](std::size_t user) {
    watchdog.checkpoint();
    SweepRow& slot = partial[user];
    const auto& points = analyzer.reference(user).points;
    if (points.empty()) return;
    const std::int64_t t0 = points.front().timestamp_s;
    const std::int64_t t1 = points.back().timestamp_s;

    android::DeviceSimulator device(core::kDatasetSeed + user,
                                    points.front().position);
    device.jump_to(t0 - 1);
    device.install(spy_manifest(), spy_behavior(interval_s));
    device.launch("com.spy");
    device.move_to_background("com.spy");

    // Seed per (intensity, user): the interval must NOT change the
    // schedule, only how the app samples it; users get disjoint streams.
    std::uint64_t schedule_seed = core::kDatasetSeed;
    stats::splitmix64(schedule_seed);
    schedule_seed += static_cast<std::uint64_t>(intensity * 1000.0) * 1000003ULL +
                     user;
    sim::FaultInjector injector(sim::FaultConfig::canonical(intensity),
                                schedule_seed, t0, t1 + 1);
    injector.install(device.location_manager());

    android::replay_trace(device, points, /*sync_clock=*/false);
    const auto collected =
        android::collected_fixes(device.location_manager(), "com.spy");
    const auto report = analyzer.evaluate_collected(user, interval_s, collected);

    const auto& counters = injector.counters();
    slot.delivered = static_cast<double>(counters.delivered);
    slot.withheld_outage = static_cast<double>(counters.withheld_outage);
    slot.dropped_loss = static_cast<double>(counters.dropped_loss);
    slot.degraded_network = static_cast<double>(counters.degraded_network);
    slot.served_last_known = static_cast<double>(counters.served_last_known);
    slot.poi_total = report.poi_total.fraction();
    slot.poi_sensitive = report.poi_sensitive.fraction();
    slot.hisbin_rate = report.breach_detected() ? 1.0 : 0.0;
    slot.anonymity = report.anonymity_movements;
  });

  SweepRow row;
  row.intensity = intensity;
  row.interval_s = interval_s;
  for (const SweepRow& slot : partial) {
    row.delivered += slot.delivered;
    row.withheld_outage += slot.withheld_outage;
    row.dropped_loss += slot.dropped_loss;
    row.degraded_network += slot.degraded_network;
    row.served_last_known += slot.served_last_known;
    row.poi_total += slot.poi_total;
    row.poi_sensitive += slot.poi_sensitive;
    row.hisbin_rate += slot.hisbin_rate;
    row.anonymity += slot.anonymity;
  }
  const auto users = static_cast<double>(analyzer.user_count());
  row.delivered /= users;
  row.withheld_outage /= users;
  row.dropped_loss /= users;
  row.degraded_network /= users;
  row.served_last_known /= users;
  row.poi_total /= users;
  row.poi_sensitive /= users;
  row.hisbin_rate /= users;
  row.anonymity /= users;
  return row;
}

int run(int argc, char** argv) {
  util::Args args;
  harness::declare_run_flags(args);
  args.declare("--fault-cells", "");
  harness::RunOptions options;
  sim::ProcessFaultPlan fault_plan;
  try {
    args.parse(argc, argv, 1);
    fault_plan = sim::ProcessFaultPlan::parse(args.get("--fault-cells"));
  } catch (const std::runtime_error& error) {
    throw Error(ErrorCode::kUsage, error.what());
  }
  options = harness::run_options_from(args, "fault sweep");
  if (!options.active() &&
      (options.supervisor.isolate || options.supervisor.workers > 1))
    throw Error(ErrorCode::kUsage,
                "--isolate/--workers need a journal to report into; pass "
                "--run-dir or --resume");
  options.supervisor.backoff_seed = core::kDatasetSeed;

  bench::print_header("fault degradation: leakage metrics vs substrate faults",
                      /*uses_mobility_corpus=*/false);

  // A dedicated small corpus: the sweep replays every user once per cell
  // through per-second framework ticks, so it pays for wall-clock directly.
  mobility::DatasetConfig dataset_config;
  dataset_config.seed = core::kDatasetSeed;
  dataset_config.user_count = kUserCount;
  dataset_config.synthesis.days = kDays;
  std::cout << "corpus: " << dataset_config.user_count << " users x "
            << dataset_config.synthesis.days << " days (seed "
            << dataset_config.seed << ")\n\n";
  const core::PrivacyAnalyzer analyzer = core::PrivacyAnalyzer::from_synthetic(
      core::experiment_analyzer_config(), dataset_config);

  const harness::RunInfo run_info{
      "bench_fault_degradation", core::kDatasetSeed,
      std::to_string(kUserCount) + "u" + std::to_string(kDays) + "d",
      options.mode_string()};
  const std::unique_ptr<harness::RunLedger> ledger =
      harness::open_ledger(options, run_info);

  // Enumerate the sweep once; every downstream consumer (dispatch, row
  // assembly, artifacts) walks this order, so artifact bytes do not depend
  // on which worker finished first.
  std::vector<std::pair<double, std::int64_t>> cell_specs;
  std::vector<std::string> cell_keys;
  for (const double intensity : kIntensities)
    for (const std::int64_t interval_s : kIntervals) {
      cell_specs.emplace_back(intensity, interval_s);
      cell_keys.push_back(cell_key(intensity, interval_s));
    }
  const std::size_t cell_count = cell_keys.size();
  if (ledger != nullptr && ledger->completed_count() > 0)
    std::cout << "resume: " << ledger->completed_count() << "/" << cell_count
              << " cells already journaled in " << ledger->path().string()
              << "\n\n";

  harness::StageWatchdog watchdog(options.stage);
  watchdog.set_total(cell_count);
  if (ledger != nullptr) watchdog.add_progress(ledger->completed_count());

  const harness::CellFn cell_fn = [&](std::size_t index, const std::string& key,
                                      int attempt) {
    // Injected process faults fire first: crash/hang take the child down
    // before any work, the alloc bomb dies against the cell rlimit.
    fault_plan.trigger(key, attempt);
    const auto [intensity, interval_s] = cell_specs[index];
    return csv_fields(compute_cell(analyzer, intensity, interval_s, watchdog));
  };

  std::vector<std::string> quarantined;
  std::vector<SweepRow> rows;
  if (ledger != nullptr) {
    harness::Supervisor supervisor(options.supervisor);
    const harness::SupervisorOutcome outcome =
        supervisor.run(cell_keys, cell_fn, *ledger, &watchdog);
    quarantined = outcome.quarantined;
    // Rows assemble from the ledger in enumeration order — computed,
    // replayed, and isolated cells are indistinguishable here, which is the
    // byte-identity argument. Quarantined cells are simply absent.
    for (const std::string& key : cell_keys)
      if (const auto* fields = ledger->fields(key); fields != nullptr)
        rows.push_back(parse_fields(*fields));
  } else {
    for (std::size_t i = 0; i < cell_count; ++i) {
      const std::vector<std::string> fields = cell_fn(i, cell_keys[i], 1);
      rows.push_back(parse_fields(fields));
      watchdog.add_progress();
    }
  }

  util::ConsoleTable table({"intensity", "interval (s)", "fixes", "outage-held",
                            "lost", "net-degraded", "stale", "PoI_total",
                            "His_bin rate", "Deg_anon (p2)"});
  for (const SweepRow& row : rows)
    table.add_row({util::format_fixed(row.intensity, 2),
                   std::to_string(row.interval_s),
                   util::format_fixed(row.delivered, 0),
                   util::format_fixed(row.withheld_outage, 0),
                   util::format_fixed(row.dropped_loss, 0),
                   util::format_fixed(row.degraded_network, 0),
                   util::format_fixed(row.served_last_known, 0),
                   util::format_percent(row.poi_total, 1),
                   util::format_percent(row.hisbin_rate, 1),
                   util::format_fixed(row.anonymity, 3)});
  table.print(std::cout);

  // Machine-readable copies: a CSV block on stdout (always, so two runs can
  // be diffed byte-for-byte), plus atomically published CSV/JSON artifacts
  // in the run dir and/or under LOCPRIV_CSV_DIR.
  std::cout << "\n--- csv ---\n";
  util::CsvWriter stdout_csv(std::cout);
  stdout_csv.write_row(kCsvHeader);
  for (const SweepRow& row : rows) stdout_csv.write_row(csv_fields(row));

  const auto render_json = [&rows] {
    util::JsonWriter json;
    json.begin_object();
    json.key("rows");
    json.begin_array();
    for (const SweepRow& row : rows) {
      json.begin_object();
      json.member("intensity", row.intensity);
      json.member("interval_s", row.interval_s);
      json.member("delivered", row.delivered);
      json.member("poi_total", row.poi_total);
      json.member("poi_sensitive", row.poi_sensitive);
      json.member("hisbin_rate", row.hisbin_rate);
      json.member("deg_anonymity_p2", row.anonymity);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str() + "\n";
  };

  if (options.active()) {
    harness::AtomicFileWriter csv_artifact(options.run_dir /
                                           "fault_degradation.csv");
    util::CsvWriter csv(csv_artifact.stream());
    csv.write_row(kCsvHeader);
    for (const SweepRow& row : rows) csv.write_row(csv_fields(row));
    csv_artifact.commit();
    harness::write_file_atomic(options.run_dir / "fault_degradation.json",
                               render_json());
    std::cout << "(artifacts -> " << options.run_dir.string()
              << "/fault_degradation.{csv,json})\n";
  }

  bench::SeriesCsv file_csv("fault_degradation");
  file_csv.row(kCsvHeader);
  for (const SweepRow& row : rows) file_csv.row(csv_fields(row));
  const int artifact_rc = file_csv.commit();

  if (const char* dir = std::getenv("LOCPRIV_CSV_DIR"); dir != nullptr && *dir) {
    const std::string path = std::string(dir) + "/fault_degradation.json";
    harness::write_file_atomic(path, render_json());
    std::cout << "(json -> " << path << ")\n";
  }

  if (!quarantined.empty()) {
    std::cout << "\nquarantined cells (" << quarantined.size() << "/"
              << cell_count << "):\n";
    for (const std::string& key : quarantined) {
      std::cout << "  " << key << "\n";
      if (const auto* details = ledger->quarantine_details(key);
          details != nullptr)
        for (const std::string& detail : *details)
          std::cout << "    " << detail << "\n";
    }
    std::cout << "(rerun with --resume " << options.run_dir.string()
              << " to retry them)\n";
    return exit_code(ErrorCode::kQuarantined);
  }
  return artifact_rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return error.exit_code();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return exit_code(ErrorCode::kInternal);
  }
}
