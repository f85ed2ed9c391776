// Offline integrity scrubber for a locprivd run directory. Verifies the
// run ledger record by record (per-line CRC-32C + syntax) and every
// journaled shard snapshot of the retention window (FNV-1a content
// checksum against the ledger record, shard/seq identity), and reports
// whether the directory would resume without divergence: every shard needs
// a restore point, decided by the same restore_point() the service resumes
// through.
//
// With `repair`, the scrubber unlinks snapshot files that are corrupt or no
// longer referenced by the journal's intact prefix, and atomically
// republishes the ledger as that prefix (truncating a torn or corrupt
// tail), without the snapshot records of any shard with no restore point
// (harness::ledger_without_cells), so that shard legitimately resumes
// fresh instead of tripping the resume refusal. The result is a directory
// `locpriv serve --resume` accepts. Repair never invents data: it only
// discards what cannot be trusted.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/harness/run_ledger.hpp"
#include "service/snapshot.hpp"

namespace locpriv::service {

struct ScrubReport {
  harness::LedgerScan ledger_status = harness::LedgerScan::kClean;
  std::uint64_t ledger_valid_bytes = 0;
  std::size_t ledger_bad_line = 0;     ///< When ledger_status is kCorrupt.
  std::size_t ledger_records = 0;      ///< Intact cell records replayed.
  std::vector<SnapshotCheck> snapshots;
  std::vector<std::string> repairs;    ///< Actions taken (repair mode only).
  /// Every shard with journaled snapshots has a restore point (after
  /// repairs, when repair ran).
  bool resumable = false;

  /// Nothing wrong anywhere: ledger clean and every snapshot verified.
  bool clean() const {
    if (ledger_status != harness::LedgerScan::kClean) return false;
    for (const SnapshotCheck& check : snapshots)
      if (!check.ok) return false;
    return true;
  }
};

/// Scrubs `run_dir` (which must hold a ledger.jsonl). All I/O flows through
/// the injectable harness::FileOps layer. Throws Error(kUsage) when the
/// directory holds no ledger and Error(kIo) on filesystem failures.
ScrubReport scrub_run_dir(const std::filesystem::path& run_dir, bool repair);

}  // namespace locpriv::service
