// Geolife .plt trajectory format.
//
// The paper evaluates on the Geolife GPS dataset (182 users, 17,621
// trajectories). The dataset itself is not redistributable, so this repo
// synthesises a Geolife-like dataset (src/mobility); the reader/writer here
// lets the full pipeline run unchanged on the real dataset when a copy is
// available, and round-trips the synthetic one through the identical format.
//
// PLT layout (per the Geolife user guide): six header lines, then records
//   lat,lon,0,altitude_ft,days_since_1899-12-30,date,time
// e.g. "39.906631,116.385564,0,492,39745.0902,2008-10-24,02:09:59".
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trajectory.hpp"

namespace locpriv::trace {

/// Days between the PLT epoch (1899-12-30) and the Unix epoch (1970-01-01).
inline constexpr double kPltEpochToUnixDays = 25569.0;

/// Converts a PLT fractional-day timestamp to Unix seconds (rounded).
std::int64_t plt_days_to_unix_s(double days_since_1899);

/// Converts Unix seconds to a PLT fractional-day timestamp.
double unix_s_to_plt_days(std::int64_t unix_s);

/// Parses one .plt document from memory. Tolerates LF, CRLF, and lone-CR
/// line endings and any number of trailing blank lines (all present in real
/// Geolife downloads); throws std::runtime_error with the offending line
/// number on genuinely malformed records. Returns the fixes stable-sorted
/// by timestamp.
std::vector<TracePoint> parse_plt(std::string_view text);

/// Serialises one recording session to .plt text (Geolife header + records).
std::string write_plt(std::span<const TracePoint> session);

/// One file the lenient reader set aside instead of loading.
struct QuarantinedFile {
  std::filesystem::path path;
  std::string error;
};

/// Structured outcome of a dataset load.
struct IngestReport {
  std::size_t files_scanned = 0;   ///< .plt files considered.
  std::size_t files_loaded = 0;    ///< Loaded as a non-empty session.
  std::size_t empty_files = 0;     ///< Parsed fine but held no records.
  std::size_t points_loaded = 0;   ///< Total fixes across loaded files.
  std::size_t users_loaded = 0;    ///< Users with at least one session.
  std::vector<QuarantinedFile> quarantined;  ///< Lenient mode only.

  bool clean() const { return quarantined.empty(); }
};

/// Dataset-read behaviour.
struct ReadOptions {
  /// Strict (default): the first unreadable or corrupt file throws. Lenient:
  /// such files are quarantined into the report and the rest of the corpus
  /// still loads — how a production ingest survives a damaged download.
  bool lenient = false;
};

/// Reads a whole Geolife-layout dataset: root/<user_id>/Trajectory/*.plt.
/// Users are returned sorted by id. Each file becomes one session; a user's
/// files are ordered by first fix, then last fix, then path, and a file
/// whose first fix is earlier than the previous session's last fix is an
/// ingest error (its fixes would break the trace's time order). Files are
/// parsed in parallel (deterministic output order). Throws
/// std::runtime_error if root does not exist; per-file errors follow
/// `options.lenient`. When `report` is non-null it receives the ingest
/// summary in both modes.
std::vector<UserTrace> read_geolife_dataset(const std::filesystem::path& root,
                                            const ReadOptions& options,
                                            IngestReport* report = nullptr);

/// Strict-mode convenience overload (the original API).
std::vector<UserTrace> read_geolife_dataset(const std::filesystem::path& root);

/// Writes a dataset in Geolife layout under `root` (created if needed).
void write_geolife_dataset(const std::filesystem::path& root,
                           const std::vector<UserTrace>& users);

}  // namespace locpriv::trace
