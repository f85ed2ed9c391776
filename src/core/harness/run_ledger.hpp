// Journaled checkpoint manifest for long sweep runs. The ledger is one
// append-only JSONL file (`<run-dir>/ledger.jsonl`): a header line naming
// the experiment, seed, and scale, then one line per completed sweep cell
// carrying the cell's serialized result fields. Every append is written in
// a single write(2) and fsync'd, so after a crash (SIGKILL, OOM-kill,
// power loss) at most the final line is torn — and a torn tail is detected
// and truncated on the next open. Reruns that open the same ledger skip
// completed cells and replay their recorded fields, reproducing the final
// artifact of an uninterrupted run byte for byte.
//
// Every line additionally carries a CRC-32C of itself (a trailing
// `,"crc":"xxxxxxxx"` member computed over the line with that member
// removed), so replay can tell the two damage classes apart: a torn tail
// (no terminator — truncated silently, by design) versus mid-file bit-rot
// (a terminated line whose CRC or syntax fails — refused with
// kLedgerCorrupt; `locpriv scrub --repair` truncates to the last intact
// record). Pre-CRC ledgers replay unchanged. All I/O flows through the
// injectable harness::FileOps layer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/harness/error.hpp"

namespace locpriv::harness {

/// Identity of a run. A ledger written under one identity refuses to resume
/// under another (different bench, seed, corpus scale, or execution mode),
/// so stale run directories cannot silently contaminate a new campaign and
/// a resume cannot silently switch between isolated and in-process
/// execution or a different worker count.
struct RunInfo {
  std::string experiment;  ///< e.g. "bench_fault_degradation".
  std::uint64_t seed = 0;  ///< The seed every cell derives from.
  std::string scale;       ///< Free-form corpus descriptor, e.g. "8u3d".
  /// Execution mode descriptor, e.g. "inproc-w1" or "isolate-w4". Ledgers
  /// written before mode pinning existed replay as "inproc-w1".
  std::string mode = "inproc-w1";
};

/// What a raw ledger image scan concluded.
enum class LedgerScan {
  kClean,    ///< Every line intact and parsed.
  kTorn,     ///< The final append was cut short; valid_bytes excludes it.
  kCorrupt,  ///< An interior record failed its CRC or cannot be parsed.
};

/// The result of replaying raw ledger bytes: the latest-state view of every
/// record, the scan status, and the longest intact prefix (what a repair
/// truncates to).
struct LedgerReplay {
  LedgerScan status = LedgerScan::kClean;
  bool has_header = false;  ///< Line 1 parsed as a run header.
  RunInfo header;
  std::map<std::string, std::vector<std::string>> cells;
  std::map<std::string, std::vector<std::string>> quarantine;
  std::uint64_t valid_bytes = 0;  ///< Bytes covered by intact records.
  std::size_t bad_line = 0;       ///< 1-based first bad line, when kCorrupt.
  std::size_t lines = 0;          ///< Terminated lines scanned.
};

/// Pure replay over raw ledger bytes. Touches no filesystem state and never
/// throws on damage (the status field reports it) — shared by RunLedger,
/// the scrubber, and the fuzz harness. CRC-suffixed lines are verified;
/// lines without a CRC (pre-CRC ledgers) are accepted on syntax alone.
LedgerReplay replay_ledger(std::string_view content);

class RunLedger {
 public:
  /// Opens (creating if needed) `run_dir/ledger.jsonl`. An existing ledger
  /// is replayed: the header must match `info` (Error kResume otherwise),
  /// completed cells are loaded, and a torn trailing line is truncated
  /// away. A CRC-failed or unparsable interior record throws
  /// Error(kLedgerCorrupt). Throws Error(kIo) on filesystem failures.
  RunLedger(std::filesystem::path run_dir, const RunInfo& info);
  ~RunLedger();

  RunLedger(const RunLedger&) = delete;
  RunLedger& operator=(const RunLedger&) = delete;

  bool completed(const std::string& cell) const;

  /// The recorded result fields of a completed cell, or nullptr.
  const std::vector<std::string>* fields(const std::string& cell) const;

  /// Journals a completed cell with its result fields: single write(2) of
  /// the full line, then fsync. Throws Error(kIo) on failure and
  /// Error(kResume) if the cell was already recorded (a harness bug).
  /// A completed cell supersedes any earlier quarantine record for it.
  void record(const std::string& cell, const std::vector<std::string>& fields);

  /// Journals a structured failure record for a cell the supervisor gave up
  /// on (same fsync'd single-write discipline). `details` carries one entry
  /// per attempt ("signal 11 (SIGSEGV): ...", "exit 1: ..."). Re-recording
  /// the same cell overwrites the in-memory entry (a resumed run may try —
  /// and fail — again); replay keeps the latest line.
  void record_quarantine(const std::string& cell,
                         const std::vector<std::string>& details);

  /// The journaled failure details when the cell's latest state is
  /// "quarantined", else nullptr (a later completed record supersedes
  /// quarantine).
  const std::vector<std::string>* quarantine_details(const std::string& cell) const;

  std::size_t completed_count() const { return cells_.size(); }

  /// Forces the journal to stable storage. Every append already fsyncs;
  /// this exists so a graceful-shutdown path can make the guarantee
  /// explicit before the process exits. Throws Error(kIo) on failure.
  void sync();

  const std::filesystem::path& path() const { return path_; }

 private:
  void append_line(const std::string& line);

  std::filesystem::path path_;
  std::map<std::string, std::vector<std::string>> cells_;
  std::map<std::string, std::vector<std::string>> quarantine_;
  int fd_ = -1;  ///< Closed through the FileOps layer, not FdGuard.
};

}  // namespace locpriv::harness
