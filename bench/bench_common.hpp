// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/sweep.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace locpriv::bench {

/// Prints the bench header: experiment id, seeds, and corpus scale, so every
/// bench log is self-describing and reproducible.
inline void print_header(const std::string& experiment, bool uses_mobility_corpus) {
  std::cout << "==============================================================\n"
            << experiment << '\n'
            << "==============================================================\n";
  if (uses_mobility_corpus) {
    const auto scale = core::experiment_scale();
    std::cout << "corpus: " << scale.user_count << " users x " << scale.days
              << " days (seed " << core::kDatasetSeed
              << "); set LOCPRIV_REDUCED_SCALE=1 for a quick 60 x 8 run\n";
  } else {
    std::cout << "catalog seed: " << core::kCatalogSeed << "\n";
  }
  std::cout << '\n';
}

/// One "paper vs measured" comparison line.
inline void print_comparison(const std::string& what, const std::string& paper,
                             const std::string& measured) {
  std::cout << "  " << what << ": paper=" << paper << "  measured=" << measured << '\n';
}

/// Plot-ready series export: when LOCPRIV_CSV_DIR is set, each series named
/// by the bench is written to <dir>/<name>.csv; otherwise every call is a
/// no-op, so benches can emit unconditionally. Files go through the harness
/// atomic writer, so the destination only ever holds a complete artifact —
/// a failed run cannot leave a truncated CSV that looks like data.
class SeriesCsv {
 public:
  /// `name` becomes the file stem (e.g. "fig3_poi_frequency"). An
  /// unwritable export directory fails the bench immediately, with the
  /// path in the message, instead of burning the whole run first.
  explicit SeriesCsv(const std::string& name) {
    const char* dir = std::getenv("LOCPRIV_CSV_DIR");
    if (dir == nullptr || *dir == '\0') return;
    const std::string path = std::string(dir) + "/" + name + ".csv";
    try {
      writer_ = std::make_unique<harness::AtomicFileWriter>(path);
    } catch (const Error& error) {
      std::cerr << "error: " << error.what() << '\n';
      // Deliberate fail-fast: an unwritable export dir must stop the bench
      // before minutes of compute, and bench mains have no outer Error
      // handler to unwind to. locpriv-lint: allow(exit-call)
      std::exit(error.exit_code());
    }
    csv_ = std::make_unique<util::CsvWriter>(writer_->stream());
    std::cout << "(series -> " << path << ")\n";
  }

  /// Best-effort publish for benches that never reach commit() (early
  /// return paths); errors were already printed by commit().
  ~SeriesCsv() { commit(); }

  SeriesCsv(const SeriesCsv&) = delete;
  SeriesCsv& operator=(const SeriesCsv&) = delete;

  /// Writes one CSV row when export is active.
  void row(const std::vector<std::string>& fields) {
    if (csv_) csv_->write_row(fields);
  }

  /// Publishes the artifact atomically. Returns a process exit code (0 on
  /// success; the harness I/O code otherwise, after printing the error), so
  /// benches end with `return csv.commit();` and a full disk no longer
  /// exits 0 over a torn file.
  int commit() {
    if (!writer_ || writer_->committed()) return 0;
    try {
      writer_->commit();
    } catch (const Error& error) {
      std::cerr << "error: " << error.what() << '\n';
      return error.exit_code();
    }
    return 0;
  }

 private:
  std::unique_ptr<harness::AtomicFileWriter> writer_;
  std::unique_ptr<util::CsvWriter> csv_;
};

/// Exports a finished console table as <LOCPRIV_CSV_DIR>/<name>.csv through
/// the atomic writer (no-op without the env var). Returns a process exit
/// code, 0 on success — benches `return bench::export_table(...)`.
inline int export_table(const std::string& name, const util::ConsoleTable& table) {
  SeriesCsv csv(name);
  csv.row(table.headers());
  for (const auto& row : table.rows()) csv.row(row);
  return csv.commit();
}

/// Seconds of wall time since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The service options the soak and overload benches share: --shards,
/// --interval, --seed, --snapshot-every-ms, --fault-shards and --fault-after
/// under serve's bounds, the run scale of `traffic`, and shard failures
/// detected within about a second.
inline service::ServiceOptions soak_options(const util::Args& args,
                                            const core::PrivacyAnalyzer& analyzer,
                                            const service::TrafficOptions& traffic) {
  service::ServiceOptions options;
  options.shards =
      static_cast<unsigned>(args.get_int("--shards", 1, harness::kMaxFlagWorkers));
  options.interval_s = core::interval_arg(args);
  options.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  options.scale = service::run_scale(analyzer, options.interval_s, traffic);
  options.heartbeat = std::chrono::milliseconds(100);
  options.ping_timeout = std::chrono::milliseconds(1000);
  options.term_grace = std::chrono::milliseconds(500);
  options.snapshot_interval = std::chrono::milliseconds(
      args.get_int("--snapshot-every-ms", 0, harness::kMaxFlagSeconds * 1000));
  options.backoff_base = std::chrono::milliseconds(50);
  options.fault_plan = sim::ProcessFaultPlan::parse(args.get("--fault-shards"));
  options.fault_after_batches =
      static_cast<int>(args.get_int("--fault-after", 0, harness::kMaxFlagCount));
  return options;
}

/// Where a service bench journals its run. A --run-dir belongs to the
/// caller: the bench never deletes it, and the service's opener refuses one
/// that already holds a ledger (exit 6). Without one, the run lives in a
/// fresh directory under TMPDIR that this owner removes on every exit path.
class RunDir {
 public:
  RunDir(const std::string& given, const std::string& stem) {
    if (!given.empty()) {
      path_ = given;
      return;
    }
    std::string path =
        (std::filesystem::temp_directory_path() / (stem + "_XXXXXX")).string();
    if (::mkdtemp(path.data()) == nullptr)
      throw Error(ErrorCode::kIo, "cannot create " + path + errno_detail());
    path_ = path;
    scratch_ = true;
  }
  ~RunDir() {
    std::error_code ec;
    if (scratch_) std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// The run directory, or `name` inside it.
  std::filesystem::path path(const std::string& name = "") const {
    return name.empty() ? path_ : path_ / name;
  }
  /// path(name) for an exit-7 message to name for `--resume`; empty for a
  /// scratch run, which is removed.
  std::filesystem::path resumable(const std::string& name = "") const {
    return scratch_ ? std::filesystem::path() : path(name);
  }

 private:
  std::filesystem::path path_;
  bool scratch_ = false;
};

}  // namespace locpriv::bench
