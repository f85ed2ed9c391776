#include "service/scrub.hpp"

#include <cerrno>
#include <set>
#include <string_view>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "service/snapshot.hpp"

namespace locpriv::service {

namespace fs = std::filesystem;

namespace {

/// The shard a "<shard>/snap/<seq>" ledger key journals a snapshot of, or
/// "" for every other record kind (shed, snapdrop, sweep cells).
std::string snapshot_shard(const std::string& key) {
  const std::size_t mark = key.find("/snap/");
  return mark == std::string::npos ? std::string() : key.substr(0, mark);
}

}  // namespace

ScrubReport scrub_run_dir(const fs::path& run_dir, bool repair) {
  const fs::path ledger_path = run_dir / "ledger.jsonl";
  if (!fs::exists(ledger_path))
    throw Error(ErrorCode::kUsage,
                run_dir.string() + " holds no ledger.jsonl; not a run directory");

  std::string content;
  errno = 0;
  if (!harness::read_file_through_ops(ledger_path.string(), content))
    throw Error(ErrorCode::kIo,
                "cannot read " + ledger_path.string() + errno_detail());

  ScrubReport report;
  const harness::LedgerReplay replay = harness::replay_ledger(content);
  report.ledger_status = replay.status;
  report.ledger_valid_bytes = replay.valid_bytes;
  report.ledger_bad_line = replay.bad_line;
  report.ledger_records = replay.cells.size();

  // Verification runs over the intact prefix only: replay stops at the
  // first bad line. Each shard's kept snapshots are checked through
  // restore_point(), the rule resume uses.
  std::set<std::string> shards;
  for (const auto& [key, fields] : replay.cells)
    if (const std::string shard = snapshot_shard(key); !shard.empty())
      shards.insert(shard);
  std::set<std::string> referenced;
  std::set<std::string> untrusted_shards;
  for (const std::string& shard : shards) {
    RestorePoint point = restore_point(replay.cells, shard);
    for (SnapshotCheck& check : point.checks) {
      const std::vector<std::string>& record = replay.cells.at(check.cell);
      if (!record.empty()) referenced.insert(record[0]);
      // locpriv-lint: allow(unbounded-growth) two checks per shard; bounded by the run dir
      report.snapshots.push_back(std::move(check));
    }
    // A shard that never snapshotted resumes fresh; one whose whole window
    // failed verification has no restore point.
    if (point.newest > 0 && point.record == nullptr) untrusted_shards.insert(shard);
  }
  report.resumable = repair || untrusted_shards.empty();
  if (!repair) return report;

  const bool damaged = replay.status != harness::LedgerScan::kClean;
  if (damaged)
    // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
    report.repairs.push_back(
        "truncated " + ledger_path.string() + " to " +
        std::to_string(replay.valid_bytes) + " bytes (" +
        (replay.status == harness::LedgerScan::kCorrupt
             ? "corrupt record at line " + std::to_string(replay.bad_line)
             : "torn tail") +
        ")");

  // Unlink snapshot files the journal no longer vouches for: corrupt ones
  // (their checksum record disagrees with the bytes) and debris not
  // referenced by any intact record (e.g. published after the corruption
  // point the ledger is truncated at). Missing-file records are left as is
  // — there is nothing on disk to remove.
  harness::FileOps& ops = harness::file_ops();
  for (const SnapshotCheck& check : report.snapshots) {
    if (check.ok || check.file.empty() || !fs::exists(check.file)) continue;
    if (ops.unlink(check.file.c_str()) == 0)
      // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
      report.repairs.push_back("unlinked corrupt snapshot " + check.file + " (" +
                               check.detail + ")");
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(run_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".snap.") == std::string::npos) continue;
    if (referenced.count(entry.path().string()) != 0) continue;
    if (ops.unlink(entry.path().c_str()) == 0)
      // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
      report.repairs.push_back("unlinked unreferenced snapshot " +
                               entry.path().string());
  }

  // Republish the ledger as its intact prefix, without the snapshot records
  // of shards with no restore point: the bytes no longer back those claims,
  // which would make resume refuse (kResume), so the shards resume fresh.
  if (damaged || !untrusted_shards.empty()) {
    harness::AtomicFileWriter writer(ledger_path);
    writer.stream() << harness::ledger_without_cells(
        std::string_view(content).substr(0, replay.valid_bytes),
        [&](const std::string& cell) {
          return untrusted_shards.count(snapshot_shard(cell)) != 0;
        });
    writer.commit();
  }
  for (const std::string& shard : untrusted_shards)
    // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
    report.repairs.push_back("dropped untrusted snapshot records for " + shard +
                             " (no loadable snapshot in the retention window; "
                             "the shard resumes fresh)");
  return report;
}

}  // namespace locpriv::service
