// locpriv — command-line front end for the library.
//
//   locpriv gen-dataset   --out DIR [--users N] [--days D] [--seed S]
//   locpriv dataset-stats --root DIR
//   locpriv market-study  [--csv FILE] [--summary-csv FILE] [--limits S] [--seed S]
//   locpriv extract-pois  --root DIR --user INDEX [--interval S] [--radius M]
//                         [--visit MIN]
//   locpriv audit         --root DIR --user INDEX [--interval S]
//   locpriv identify      --root DIR --user INDEX [--interval S] [--pattern 1|2]
//
// Dataset-consuming commands read a Geolife-layout directory (as produced
// by gen-dataset or a real Geolife download).
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/supervisor.hpp"
#include "core/harness/sweep.hpp"

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/scrub.hpp"
#include "market/catalog.hpp"
#include "market/report_io.hpp"
#include "market/study.hpp"
#include "poi/geojson.hpp"
#include "report_command.hpp"
#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "trace/geolife.hpp"
#include "trace/sampling.hpp"
#include "trace/trace_stats.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace locpriv;

int usage() {
  std::cerr <<
      "usage: locpriv <command> [options]\n"
      "  gen-dataset   --out DIR [--users N] [--days D] [--seed S]\n"
      "  dataset-stats --root DIR [--lenient]\n"
      "  market-study  [--csv FILE] [--summary-csv FILE] [--limits S] [--seed S]\n"
      "  extract-pois  --root DIR --user INDEX [--interval S] [--radius M] [--visit MIN]\n"
      "                [--lenient]\n"
      "  audit         --root DIR --user INDEX [--interval S] [--lenient]\n"
      "  audit-all     --root DIR [--interval S] [--csv FILE] [--lenient]\n"
      "                [--run-dir DIR | --resume DIR] [--isolate] [--workers N]\n"
      "                [--cell-rlimit-mb N] [--cell-cpu-s N] [--cell-deadline S]\n"
      "                [--cell-retries N]\n"
      "  identify      --root DIR --user INDEX [--interval S] [--pattern 1|2] [--lenient]\n"
      "  export-geojson --root DIR --user INDEX --out FILE [--interval S]\n"
      "  report        [--out FILE] [--users N] [--days D]\n"
      "  serve         (--run-dir DIR | --resume DIR) [--root DIR | --users N --days D]\n"
      "                [--seed S] [--shards K] [--interval S] [--rounds N] [--batch N]\n"
      "                [--pace-ms MS] [--csv FILE] [--heartbeat-ms MS]\n"
      "                [--ping-timeout-ms MS] [--op-timeout-ms MS] [--grace-ms MS]\n"
      "                [--snapshot-every-ms MS] [--max-respawns N] [--backoff-ms MS]\n"
      "                [--shard-rlimit-mb N] [--shard-cpu-s N]\n"
      "                [--fault-shards SPEC] [--fault-after N]\n"
      "                [--max-inflight-batches N] [--max-retained-mb N]\n"
      "                [--shed-policy reject-new|drop-oldest] [--admit block|shed]\n"
      "                [--degraded-ms MS] [--slow-restart-ms MS]\n"
      "  scrub         RUN_DIR [--repair]\n"
      "\n"
      "scrub verifies a run directory offline: every ledger record against\n"
      "its CRC, every retained snapshot against its journaled checksum, and\n"
      "whether the directory would resume. --repair truncates a torn or\n"
      "corrupt ledger to its last intact record and unlinks snapshots the\n"
      "journal no longer vouches for. Exit 0 when pristine (or, with\n"
      "--repair, resumable after repair); exit 8 otherwise.\n"
      "\n"
      "serve runs the locprivd audit service: users are sharded across forked\n"
      "worker processes fed over pipes, supervised by heartbeat, snapshotted\n"
      "periodically, and respawned from their last snapshot on a crash or hang.\n"
      "SIGINT/SIGTERM drain every shard and exit 7; re-running with --resume\n"
      "continues from the journaled snapshots (a different --shards count is\n"
      "refused with exit 6). --fault-shards injects crash|hang|alloc faults,\n"
      "e.g. \"crash@shard0,hang:2@shard1\".\n"
      "\n"
      "Overload control: each shard acks applied batches; the parent stops\n"
      "encoding past --max-inflight-batches unacked batches and forces an\n"
      "early snapshot when retained replay bytes cross --max-retained-mb.\n"
      "--admit block (default) gives lossless backpressure; --admit shed\n"
      "sheds at the window edge per --shed-policy, with per-user\n"
      "offered/accepted/shed columns appended to the --csv rows and\n"
      "per-shard shed counters journaled to the ledger. --degraded-ms /\n"
      "--slow-restart-ms set turnaround-EWMA thresholds for out-of-band\n"
      "snapshots and slow-shard respawns.\n"
      "\n"
      "--lenient quarantines corrupt .plt files instead of aborting, prints the\n"
      "ingest report, and exits with code 3 when anything was quarantined.\n"
      "audit-all audits every user; with --isolate each user runs in a forked,\n"
      "rlimit-capped worker and a crashing user is retried, then quarantined.\n"
      "\n"
      "exit codes: 0 ok, 1 internal error, 2 usage, 3 quarantine (lenient ingest\n"
      "or supervised cells), 4 artifact I/O failure, 5 deadline exceeded,\n"
      "6 resume mismatch, 7 interrupted by SIGINT/SIGTERM (resumable),\n"
      "8 ledger corrupt (mid-file damage; recoverable with scrub --repair).\n"
      "File artifacts (--csv, --summary-csv, --out, gen-dataset) are written\n"
      "atomically: on failure the destination keeps its previous content.\n";
  return 2;
}

/// Exit code for a lenient run that had to quarantine files: the command
/// produced results, but the corpus was incomplete.
constexpr int kExitQuarantined = 3;

/// A dataset plus the ingest outcome the lenient commands report on.
struct LoadedDataset {
  std::vector<trace::UserTrace> users;
  trace::IngestReport report;
  bool lenient = false;
};

void print_ingest_report(const trace::IngestReport& report) {
  std::cerr << "ingest: " << report.files_scanned << " files scanned, "
            << report.files_loaded << " loaded, " << report.empty_files
            << " empty, " << report.quarantined.size() << " quarantined ("
            << report.users_loaded << " users, " << report.points_loaded
            << " fixes)\n";
  for (const auto& bad : report.quarantined)
    std::cerr << "  quarantined " << bad.path.string() << ": " << bad.error << '\n';
}

LoadedDataset load_dataset(const std::string& root, bool lenient) {
  LoadedDataset loaded;
  loaded.lenient = lenient;
  trace::ReadOptions options;
  options.lenient = lenient;
  loaded.users = trace::read_geolife_dataset(root, options, &loaded.report);
  if (lenient) print_ingest_report(loaded.report);
  if (loaded.users.empty()) throw std::runtime_error("no users found under " + root);
  return loaded;
}

/// --interval, the app's polling period in seconds. The collection model
/// starts at 1 s (the app receives every fix), so a smaller value is a
/// usage error rather than a full-rate run labelled with it.
std::int64_t interval_arg(const util::Args& args) {
  const std::int64_t interval_s = args.get_int("--interval");
  if (interval_s < 1)
    throw Error(ErrorCode::kUsage,
                "--interval must be at least 1 s, got " + args.get("--interval"));
  return interval_s;
}

/// Maps a command's own exit code through the quarantine signal.
int finish(int code, const LoadedDataset& loaded) {
  if (code == 0 && loaded.lenient && !loaded.report.clean()) return kExitQuarantined;
  return code;
}

int cmd_gen_dataset(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--out", "");
  args.declare("--users", "12");
  args.declare("--days", "8");
  args.declare("--seed", std::to_string(core::kDatasetSeed));
  args.parse(argc, argv, 2);
  if (args.get("--out").empty()) return usage();

  mobility::DatasetConfig config;
  config.user_count = static_cast<int>(args.get_int("--users"));
  config.synthesis.days = static_cast<int>(args.get_int("--days"));
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  const auto dataset = mobility::generate_dataset(config);
  trace::write_geolife_dataset(args.get("--out"), dataset.users);
  std::cout << "wrote " << dataset.users.size() << " users ("
            << trace::compute_dataset_stats(dataset.users).point_count
            << " fixes) to " << args.get("--out") << '\n';
  return 0;
}

int cmd_dataset_stats(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare_bool("--lenient");
  args.parse(argc, argv, 2);
  if (args.get("--root").empty()) return usage();

  const auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
  const auto stats = trace::compute_dataset_stats(loaded.users);
  util::ConsoleTable table({"metric", "value"});
  table.add_row({"users", std::to_string(stats.user_count)});
  table.add_row({"trajectories", std::to_string(stats.trajectory_count)});
  table.add_row({"fixes", std::to_string(stats.point_count)});
  table.add_row({"distance (km)", util::format_fixed(stats.total_length_km, 1)});
  table.add_row({"recorded hours", util::format_fixed(stats.total_duration_hours, 1)});
  table.add_row({"1-5 s interval share",
                 util::format_percent(stats.high_frequency_fraction, 1)});
  table.add_row({"median interval (s)", util::format_fixed(stats.median_interval_s, 1)});
  table.print(std::cout);
  return finish(0, loaded);
}

int cmd_market_study(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--csv", "");
  args.declare("--summary-csv", "");
  args.declare("--limits", "0");
  args.declare("--seed", std::to_string(core::kCatalogSeed));
  args.parse(argc, argv, 2);

  market::CatalogConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  const auto catalog = market::generate_catalog(config);
  const auto report =
      market::run_market_study(catalog, 7, args.get_int("--limits"));

  util::ConsoleTable table({"statistic", "value"});
  table.add_row({"declaring", std::to_string(report.declaring)});
  table.add_row({"functional", std::to_string(report.functional)});
  table.add_row({"background", std::to_string(report.background)});
  table.add_row({"background auto-start", std::to_string(report.background_auto)});
  table.add_row({"background precise", std::to_string(report.background_precise)});
  table.print(std::cout);

  if (!args.get("--csv").empty()) {
    harness::AtomicFileWriter out(args.get("--csv"));
    market::write_observations_csv(out.stream(), report);
    out.commit();
    std::cout << "observations -> " << args.get("--csv") << '\n';
  }
  if (!args.get("--summary-csv").empty()) {
    harness::AtomicFileWriter out(args.get("--summary-csv"));
    market::write_summary_csv(out.stream(), report);
    out.commit();
    std::cout << "summary -> " << args.get("--summary-csv") << '\n';
  }
  return 0;
}

int cmd_extract_pois(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--user", "0");
  args.declare("--interval", "1");
  args.declare("--radius", "50");
  args.declare("--visit", "10");
  args.declare_bool("--lenient");
  args.parse(argc, argv, 2);
  if (args.get("--root").empty()) return usage();
  const std::int64_t interval_s = interval_arg(args);

  const auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
  const auto& users = loaded.users;
  const auto user_index = static_cast<std::size_t>(args.get_int("--user"));
  if (user_index >= users.size())
    throw Error(ErrorCode::kUsage, "user index out of range");

  poi::ExtractionParams params;
  params.radius_m = args.get_double("--radius");
  params.min_visit_s = args.get_int("--visit") * 60;

  const auto points = trace::collect(users[user_index].points(), interval_s);
  const auto stays = poi::extract_stay_points(points, params);
  const auto pois = poi::cluster_stay_points(stays, params.radius_m);

  std::cout << points.size() << " fixes -> " << stays.size() << " stay points -> "
            << pois.size() << " PoIs\n\n";
  util::ConsoleTable table({"poi", "lat", "lon", "visits", "total dwell (min)"});
  for (const auto& poi : pois) {
    std::int64_t dwell = 0;
    for (const auto& visit : poi.visits) dwell += visit.duration_s();
    table.add_row({std::to_string(poi.id),
                   util::format_fixed(poi.centroid.lat_deg, 5),
                   util::format_fixed(poi.centroid.lon_deg, 5),
                   std::to_string(poi.visit_count()),
                   util::format_fixed(static_cast<double>(dwell) / 60.0, 0)});
  }
  table.print(std::cout);
  return finish(0, loaded);
}

int cmd_audit(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--user", "0");
  args.declare("--interval", "60");
  args.declare_bool("--json");
  args.declare_bool("--lenient");
  args.parse(argc, argv, 2);
  if (args.get("--root").empty()) return usage();
  const std::int64_t interval_s = interval_arg(args);

  auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
  const core::PrivacyAnalyzer analyzer(core::experiment_analyzer_config(),
                                       std::move(loaded.users));
  const auto user_index = static_cast<std::size_t>(args.get_int("--user"));
  if (user_index >= analyzer.user_count())
    throw Error(ErrorCode::kUsage, "user index out of range");
  const auto report = analyzer.evaluate_exposure(user_index, interval_s);

  if (args.get_bool("--json")) {
    util::JsonWriter json;
    json.begin_object();
    json.member("user", analyzer.reference(user_index).user_id);
    json.member("interval_s", report.interval_s);
    json.member("collected_fixes", static_cast<std::uint64_t>(report.collected_fixes));
    json.member("extracted_pois", static_cast<std::uint64_t>(report.extracted_pois));
    json.member("poi_total", report.poi_total.fraction());
    json.member("poi_sensitive", report.poi_sensitive.fraction());
    json.member("hisbin_visits", report.hisbin_visits);
    json.member("hisbin_movements", report.hisbin_movements);
    json.member("breach", report.breach_detected());
    json.member("deg_anonymity_movements", report.anonymity_movements);
    json.end_object();
    std::cout << json.str() << '\n';
    return finish(0, loaded);
  }

  util::ConsoleTable table({"metric", "value"});
  table.add_row({"collected fixes", std::to_string(report.collected_fixes)});
  table.add_row({"extracted PoIs", std::to_string(report.extracted_pois)});
  table.add_row({"PoI_total", util::format_percent(report.poi_total.fraction(), 1)});
  table.add_row(
      {"PoI_sensitive", util::format_percent(report.poi_sensitive.fraction(), 1)});
  table.add_row({"His_bin pattern 1", report.hisbin_visits ? "1" : "0"});
  table.add_row({"His_bin pattern 2", report.hisbin_movements ? "1" : "0"});
  table.add_row({"breach alert", report.breach_detected() ? "YES" : "no"});
  table.add_row(
      {"Deg_anonymity (p2)", util::format_fixed(report.anonymity_movements, 3)});
  table.print(std::cout);
  return finish(0, loaded);
}

/// Audits every user of the dataset, one supervised sweep cell per user.
/// With --run-dir/--resume the per-user results are journaled and the audit
/// is resumable; with --isolate each user's evaluation runs in a forked,
/// rlimit-capped child, so one pathological trace cannot take down the whole
/// audit — it is retried and finally quarantined (exit 3) with a structured
/// failure record while the other users complete.
int cmd_audit_all(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--interval", "60");
  args.declare("--csv", "");
  args.declare_bool("--lenient");
  harness::declare_run_flags(args);
  args.parse(argc, argv, 2);
  if (args.get("--root").empty()) return usage();
  const std::int64_t interval_s = interval_arg(args);
  const harness::RunOptions options =
      harness::run_options_from(args, "audit-all");
  if (!options.active() &&
      (options.supervisor.isolate || options.supervisor.workers > 1))
    throw Error(ErrorCode::kUsage,
                "--isolate/--workers need a journal to report into; pass "
                "--run-dir or --resume");

  auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
  const core::PrivacyAnalyzer analyzer(core::experiment_analyzer_config(),
                                       std::move(loaded.users));

  const std::vector<std::string> header = {
      "user", "interval_s", "collected_fixes", "extracted_pois", "poi_total",
      "poi_sensitive", "hisbin_visits", "hisbin_movements", "breach",
      "deg_anonymity_p2"};
  std::vector<std::string> cells;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i)
    cells.push_back(analyzer.reference(i).user_id);

  const harness::CellFn cell_fn = [&](std::size_t index, const std::string& key,
                                      int /*attempt*/) {
    return service::exposure_fields(key, interval_s,
                                    analyzer.evaluate_exposure(index, interval_s));
  };

  const harness::RunInfo run_info{"audit-all", 0,
                                  std::to_string(analyzer.user_count()) + "u_t" +
                                      std::to_string(interval_s),
                                  options.mode_string()};
  const std::unique_ptr<harness::RunLedger> ledger =
      harness::open_ledger(options, run_info);

  std::vector<std::string> quarantined;
  std::vector<std::vector<std::string>> rows;
  if (ledger != nullptr) {
    harness::StageWatchdog watchdog(options.stage);
    watchdog.set_total(cells.size());
    watchdog.add_progress(ledger->completed_count());
    harness::Supervisor supervisor(options.supervisor);
    quarantined = supervisor.run(cells, cell_fn, *ledger, &watchdog).quarantined;
    for (const std::string& key : cells)
      if (const auto* fields = ledger->fields(key); fields != nullptr)
        rows.push_back(*fields);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i)
      rows.push_back(cell_fn(i, cells[i], 1));
  }

  util::ConsoleTable table({"user", "fixes", "PoIs", "PoI_total", "PoI_sens",
                            "His_bin", "breach", "Deg_anon (p2)"});
  for (const auto& fields : rows)
    table.add_row({fields[0], fields[2], fields[3], fields[4], fields[5],
                   fields[6] + "/" + fields[7], fields[8] == "1" ? "YES" : "no",
                   fields[9]});
  table.print(std::cout);

  const auto write_csv = [&](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.write_row(header);
    for (const auto& fields : rows) csv.write_row(fields);
  };
  if (!args.get("--csv").empty()) {
    harness::AtomicFileWriter out(args.get("--csv"));
    write_csv(out.stream());
    out.commit();
    std::cout << "audit table -> " << args.get("--csv") << '\n';
  }
  if (options.active()) {
    harness::AtomicFileWriter out(options.run_dir / "audit_all.csv");
    write_csv(out.stream());
    out.commit();
    std::cout << "(artifact -> " << (options.run_dir / "audit_all.csv").string()
              << ")\n";
  }

  if (!quarantined.empty()) {
    std::cerr << "quarantined users (" << quarantined.size() << "/"
              << cells.size() << "):\n";
    for (const std::string& key : quarantined) {
      std::cerr << "  " << key << '\n';
      if (const auto* details = ledger->quarantine_details(key);
          details != nullptr)
        for (const std::string& detail : *details)
          std::cerr << "    " << detail << '\n';
    }
    return kExitQuarantined;
  }
  return finish(0, loaded);
}

int cmd_identify(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--user", "0");
  args.declare("--interval", "1");
  args.declare("--pattern", "2");
  args.declare_bool("--lenient");
  args.parse(argc, argv, 2);
  if (args.get("--root").empty()) return usage();
  const std::int64_t interval_s = interval_arg(args);

  auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
  const core::PrivacyAnalyzer analyzer(core::experiment_analyzer_config(),
                                       std::move(loaded.users));
  const auto user_index = static_cast<std::size_t>(args.get_int("--user"));
  if (user_index >= analyzer.user_count())
    throw Error(ErrorCode::kUsage, "user index out of range");
  const privacy::Pattern pattern = args.get_int("--pattern") == 1
                                       ? privacy::Pattern::kVisits
                                       : privacy::Pattern::kMovements;
  const auto outcome =
      analyzer.earliest_identification(user_index, pattern, interval_s);
  if (outcome.detected) {
    std::cout << "user " << user_index << " uniquely identified after "
              << util::format_percent(outcome.fraction, 0) << " of the trace (pattern "
              << args.get("--pattern") << ", interval " << args.get("--interval")
              << " s)\n";
  } else {
    std::cout << "user " << user_index << " was not uniquely identified (pattern "
              << args.get("--pattern") << ", interval " << args.get("--interval")
              << " s)\n";
  }
  return finish(0, loaded);
}

int cmd_export_geojson(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--user", "0");
  args.declare("--out", "");
  args.declare("--interval", "1");
  args.parse(argc, argv, 2);
  if (args.get("--root").empty() || args.get("--out").empty()) return usage();
  const std::int64_t interval_s = interval_arg(args);

  const auto loaded = load_dataset(args.get("--root"), /*lenient=*/false);
  const auto& users = loaded.users;
  const auto user_index = static_cast<std::size_t>(args.get_int("--user"));
  if (user_index >= users.size())
    throw Error(ErrorCode::kUsage, "user index out of range");

  const poi::ExtractionParams params;
  const auto stays = poi::extract_stay_points(
      trace::collect(users[user_index].points(), interval_s), params);
  const auto pois = poi::cluster_stay_points(stays, params.radius_m);

  harness::AtomicFileWriter out(args.get("--out"));
  out.stream() << poi::to_geojson(users[user_index], pois);
  out.commit();
  std::cout << "wrote " << users[user_index].session_count()
            << " trajectories and " << pois.size() << " PoIs to "
            << args.get("--out") << '\n';
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--root", "");
  args.declare("--users", "6");
  args.declare("--days", "3");
  args.declare("--seed", std::to_string(core::kDatasetSeed));
  args.declare("--run-dir", "");
  args.declare("--resume", "");
  args.declare("--shards", "2");
  args.declare("--interval", "60");
  args.declare("--rounds", "1");
  args.declare("--batch", "64");
  args.declare("--pace-ms", "0");
  args.declare("--csv", "");
  args.declare("--heartbeat-ms", "200");
  args.declare("--ping-timeout-ms", "5000");
  args.declare("--op-timeout-ms", "120000");
  args.declare("--grace-ms", "2000");
  args.declare("--snapshot-every-ms", "2000");
  args.declare("--max-respawns", "5");
  args.declare("--backoff-ms", "100");
  args.declare("--shard-rlimit-mb", "0");
  args.declare("--shard-cpu-s", "0");
  args.declare("--fault-shards", "");
  args.declare("--fault-after", "3");
  args.declare("--max-inflight-batches", "64");
  args.declare("--max-retained-mb", "64");
  args.declare("--shed-policy", "reject-new");
  args.declare("--admit", "block");
  args.declare("--degraded-ms", "0");
  args.declare("--slow-restart-ms", "0");
  args.declare_bool("--lenient");
  args.parse(argc, argv, 2);
  const std::int64_t interval_s = interval_arg(args);

  const bool resume = !args.get("--resume").empty();
  if (resume == !args.get("--run-dir").empty())
    throw Error(ErrorCode::kUsage,
                "serve needs exactly one of --run-dir (fresh) or --resume");
  const std::string run_dir =
      resume ? args.get("--resume") : args.get("--run-dir");

  // Every number is range-checked before any analyzer, shard or worker
  // exists; 0 stays legal wherever it means "off" or "unbounded".
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  const auto ms = [&](const char* flag, long long max = harness::kMaxFlagSeconds * 1000) {
    return std::chrono::milliseconds(args.get_int(flag, 0, max));
  };
  service::ServiceOptions options;
  options.shards =
      static_cast<unsigned>(args.get_int("--shards", 1, harness::kMaxFlagWorkers));
  options.interval_s = interval_s;
  options.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  options.heartbeat = ms("--heartbeat-ms");
  options.ping_timeout = ms("--ping-timeout-ms");
  options.op_timeout = ms("--op-timeout-ms");
  options.term_grace = ms("--grace-ms");
  options.snapshot_interval = ms("--snapshot-every-ms");
  options.max_respawns =
      static_cast<int>(args.get_int("--max-respawns", 0, harness::kMaxFlagRetries));
  options.backoff_base = ms("--backoff-ms", harness::kMaxFlagBackoffMs);
  options.shard_rlimit_mb =
      static_cast<std::size_t>(args.get_int("--shard-rlimit-mb", 0, harness::kMaxFlagMiB));
  options.shard_cpu_s =
      static_cast<unsigned>(args.get_int("--shard-cpu-s", 0, harness::kMaxFlagSeconds));
  if (!args.get("--fault-shards").empty())
    options.fault_plan = sim::ProcessFaultPlan::parse(args.get("--fault-shards"));
  options.fault_after_batches = static_cast<int>(args.get_int("--fault-after", 0, kIntMax));
  options.max_inflight_batches =
      static_cast<std::size_t>(args.get_int("--max-inflight-batches", 0, kIntMax));
  options.max_retained_bytes =
      static_cast<std::size_t>(args.get_int("--max-retained-mb", 0, harness::kMaxFlagMiB)) *
      1024 * 1024;
  if (args.get("--shed-policy") == "reject-new") {
    options.shed_policy = service::ShedPolicy::kRejectNew;
  } else if (args.get("--shed-policy") == "drop-oldest") {
    options.shed_policy = service::ShedPolicy::kDropOldest;
  } else {
    throw Error(ErrorCode::kUsage,
                "--shed-policy must be reject-new or drop-oldest");
  }
  options.degraded_ms = ms("--degraded-ms");
  options.slow_restart_ms = ms("--slow-restart-ms");

  service::TrafficOptions traffic;
  traffic.batch_size = static_cast<std::size_t>(args.get_int("--batch", 0, kIntMax));
  traffic.rounds = static_cast<int>(args.get_int("--rounds", 0, kIntMax));
  traffic.pace = ms("--pace-ms");
  if (args.get("--admit") == "shed") {
    traffic.may_shed = true;
  } else if (args.get("--admit") != "block") {
    throw Error(ErrorCode::kUsage, "--admit must be block or shed");
  }

  // The corpus: a Geolife-layout directory, or the synthetic dataset (the
  // soak default — deterministic, so a resumed serve replays identically).
  std::unique_ptr<core::PrivacyAnalyzer> analyzer;
  if (!args.get("--root").empty()) {
    auto loaded = load_dataset(args.get("--root"), args.get_bool("--lenient"));
    analyzer = std::make_unique<core::PrivacyAnalyzer>(
        core::experiment_analyzer_config(), std::move(loaded.users));
  } else {
    mobility::DatasetConfig dataset;
    dataset.user_count = static_cast<int>(args.get_int("--users", 1, kIntMax));
    dataset.synthesis.days = static_cast<int>(args.get_int("--days", 1, kIntMax));
    dataset.seed = options.seed;
    analyzer = std::make_unique<core::PrivacyAnalyzer>(
        core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(),
                                              dataset));
  }
  options.scale = std::to_string(analyzer->user_count()) + "u_t" +
                  std::to_string(options.interval_s);

  service::LocprivService::clear_shutdown();
  std::signal(SIGINT, service::LocprivService::request_shutdown);
  std::signal(SIGTERM, service::LocprivService::request_shutdown);

  service::LocprivService daemon(options, *analyzer, run_dir, resume);
  const service::TrafficOutcome outcome = service::drive_traffic(
      daemon, *analyzer, traffic,
      [] { return service::LocprivService::shutdown_requested(); });

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (outcome.interrupted) {
    daemon.drain();
    throw Error(ErrorCode::kInterrupted,
                "serve interrupted after " +
                    std::to_string(outcome.accepted) +
                    " accepted batches; drained, resume with --resume " +
                    run_dir);
  }

  const auto rows = daemon.collect_reports();
  const std::vector<std::string> header = {
      "user", "interval_s", "collected_fixes", "extracted_pois", "poi_total",
      "poi_sensitive", "hisbin_visits", "hisbin_movements", "breach",
      "deg_anonymity_p2", "batches_offered", "batches_accepted",
      "batches_shed"};
  // Shed accounting rides along as extra columns so the CSV alone shows
  // which users' metrics are complete (shed == 0) and reconciles
  // offered == accepted + shed per user.
  const auto& loads = daemon.user_loads();
  auto annotate = [&loads](std::vector<std::string> row) {
    const auto it = row.empty() ? loads.end() : loads.find(row.front());
    if (it != loads.end()) {
      row.push_back(std::to_string(it->second.batches_offered));
      row.push_back(std::to_string(it->second.batches_accepted));
      row.push_back(std::to_string(it->second.batches_shed));
    } else {
      row.insert(row.end(), {"0", "0", "0"});
    }
    return row;
  };
  if (!args.get("--csv").empty()) {
    harness::AtomicFileWriter out(args.get("--csv"));
    util::CsvWriter csv(out.stream());
    csv.write_row(header);
    for (const auto& row : rows) csv.write_row(annotate(row));
    out.commit();
    std::cerr << "audit rows -> " << args.get("--csv") << '\n';
  } else {
    util::CsvWriter csv(std::cout);
    csv.write_row(header);
    for (const auto& row : rows) csv.write_row(annotate(row));
  }
  daemon.drain();

  const service::ServiceStats& stats = daemon.stats();
  std::cerr << "serve: " << stats.batches_offered << " batches offered, "
            << stats.batches_submitted << " accepted ("
            << stats.fixes_submitted << " fixes), " << stats.batches_shed
            << " shed across " << daemon.options().shards << " shards, "
            << stats.snapshots << " snapshots (" << stats.forced_snapshots
            << " forced), " << stats.shard_deaths << " deaths, "
            << stats.respawns << " respawns\n";
  const auto quarantined = daemon.quarantined_shards();
  for (const auto& name : quarantined)
    std::cerr << "  quarantined: " << name << '\n';
  return quarantined.empty() ? 0 : kExitQuarantined;
}

int cmd_scrub(int argc, const char* const* argv) {
  util::Args args;
  args.declare_bool("--repair");
  args.parse(argc, argv, 2);
  if (args.positional().size() != 1) return usage();
  const bool repair = args.get_bool("--repair");
  const service::ScrubReport report =
      service::scrub_run_dir(args.positional().front(), repair);

  std::cerr << "ledger: "
            << (report.ledger_status == harness::LedgerScan::kClean
                    ? "clean"
                    : report.ledger_status == harness::LedgerScan::kTorn
                          ? "torn tail"
                          : "corrupt at line " +
                                std::to_string(report.ledger_bad_line))
            << ", " << report.ledger_records << " records intact ("
            << report.ledger_valid_bytes << " bytes)\n";
  for (const auto& check : report.snapshots)
    std::cerr << "snapshot " << check.cell << ": " << check.detail << '\n';
  for (const auto& action : report.repairs) std::cerr << "repair: " << action << '\n';
  std::cerr << "resumable: " << (report.resumable ? "yes" : "no") << '\n';

  // Verify mode flags any damage; repair mode succeeds when the directory
  // came out (or already was) resumable.
  const bool ok = repair ? report.resumable : report.clean() && report.resumable;
  return ok ? 0 : exit_code(ErrorCode::kLedgerCorrupt);
}

int cmd_report(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--out", "");
  args.declare("--users", "40");
  args.declare("--days", "8");
  args.parse(argc, argv, 2);

  tools::ReportOptions options;
  options.user_count = static_cast<int>(args.get_int("--users"));
  options.days = static_cast<int>(args.get_int("--days"));
  if (args.get("--out").empty()) {
    tools::write_reproduction_report(std::cout, options);
    return 0;
  }
  harness::AtomicFileWriter out(args.get("--out"));
  tools::write_reproduction_report(out.stream(), options);
  out.commit();
  std::cout << "report -> " << args.get("--out") << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen-dataset") return cmd_gen_dataset(argc, argv);
    if (command == "dataset-stats") return cmd_dataset_stats(argc, argv);
    if (command == "market-study") return cmd_market_study(argc, argv);
    if (command == "extract-pois") return cmd_extract_pois(argc, argv);
    if (command == "audit") return cmd_audit(argc, argv);
    if (command == "audit-all") return cmd_audit_all(argc, argv);
    if (command == "identify") return cmd_identify(argc, argv);
    if (command == "export-geojson") return cmd_export_geojson(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "scrub") return cmd_scrub(argc, argv);
  } catch (const Error& error) {
    // Harness failures carry their own exit code (4 I/O, 5 deadline, ...),
    // so scripts can distinguish a full disk from a bad user index.
    std::cerr << "error: " << error.what() << '\n';
    return error.exit_code();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return exit_code(ErrorCode::kInternal);
  }
  std::cerr << "unknown command: " << command << "\n";
  return usage();
}
