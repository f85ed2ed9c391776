#include "service/scrub.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace fs = std::filesystem;

namespace {

/// Splits a ledger cell key of the shape "<shard>/snap/<seq>"; false for
/// every other record kind (shed, snapdrop, quarantine, sweep cells).
bool parse_snap_key(const std::string& key, std::string& shard,
                    std::uint64_t& seq) {
  const std::size_t mark = key.find("/snap/");
  if (mark == std::string::npos) return false;
  const std::optional<std::uint64_t> value =
      wire::parse_u64(std::string_view(key).substr(mark + 6));
  if (!value || *value == 0) return false;
  shard = key.substr(0, mark);
  seq = *value;
  return true;
}

/// The shard index a "shardK" name denotes, or nullopt for foreign names
/// (the identity cross-check is skipped for those).
std::optional<unsigned> shard_index_of(const std::string& shard_name) {
  if (!util::starts_with(shard_name, "shard")) return std::nullopt;
  const std::optional<std::uint64_t> value =
      wire::parse_u64(std::string_view(shard_name).substr(5));
  if (!value || *value > std::numeric_limits<unsigned>::max())
    return std::nullopt;
  return static_cast<unsigned>(*value);
}

void truncate_file(const fs::path& path, std::uint64_t size) {
  harness::FileOps& ops = harness::file_ops();
  errno = 0;
  const int fd = ops.open(path.c_str(), O_WRONLY, 0);
  if (fd < 0)
    throw Error(ErrorCode::kIo,
                "cannot open " + path.string() + " for repair" + errno_detail());
  const int rc = ops.ftruncate(fd, static_cast<off_t>(size));
  const int saved = errno;
  // locpriv-lint: allow(unchecked-io) fsync/close failures cannot undo a truncate that already returned
  ops.fsync(fd);
  ops.close(fd);
  if (rc != 0) {
    errno = saved;
    throw Error(ErrorCode::kIo,
                "cannot truncate " + path.string() + errno_detail());
  }
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

  if (repair && replay.status != harness::LedgerScan::kClean) {
    truncate_file(ledger_path, replay.valid_bytes);
    // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
    report.repairs.push_back(
        "truncated " + ledger_path.string() + " to " +
        std::to_string(replay.valid_bytes) + " bytes (" +
        (replay.status == harness::LedgerScan::kCorrupt
             ? "corrupt record at line " + std::to_string(replay.bad_line)
             : "torn tail") +
        ")");
  }

  // Snapshot verification runs over the intact prefix only — replay stops
  // at the first bad line, so records past it are never trusted whether or
  // not repair physically truncated them. Only the newest-two retention
  // window is checked per shard: older records legitimately point at files
  // the service already reclaimed.
  std::map<std::string, std::map<std::uint64_t, const std::vector<std::string>*>>
      snaps_by_shard;
  for (const auto& [key, fields] : replay.cells) {
    std::string shard;
    std::uint64_t seq = 0;
    if (!parse_snap_key(key, shard, seq)) continue;
    snaps_by_shard[shard][seq] = &fields;
  }
  std::set<std::string> referenced;
  for (const auto& [shard, by_seq] : snaps_by_shard) {
    std::uint64_t newest = 0;
    while (by_seq.count(newest + 1) != 0) ++newest;
    for (std::uint64_t seq = newest; seq > 0 && seq + 2 > newest; --seq) {
      const auto it = by_seq.find(seq);
      if (it == by_seq.end()) continue;
      const std::vector<std::string>& fields = *it->second;
      if (!fields.empty()) referenced.insert(fields[0]);
      SnapshotCheck check;  // The same check resume runs.
      check.cell = shard + "/snap/" + std::to_string(seq);
      if (fields.size() >= 5) check.file = fields[0];
      check.detail =
          check_journaled_snapshot(fields, shard_index_of(shard), seq);
      check.ok = check.detail.empty();
      if (check.ok) check.detail = "ok";
      // locpriv-lint: allow(unbounded-growth) two checks per shard; bounded by the run dir
      report.snapshots.push_back(std::move(check));
    }
  }

  if (repair) {
    // Unlink snapshot files the journal no longer vouches for: corrupt
    // ones (their checksum record disagrees with the bytes) and debris not
    // referenced by any intact record (e.g. published after the corruption
    // point the ledger was truncated at). Missing-file records are left as
    // is — there is nothing on disk to remove.
    harness::FileOps& ops = harness::file_ops();
    for (const SnapshotCheck& check : report.snapshots) {
      if (check.ok || check.file.empty() || !fs::exists(check.file)) continue;
      if (ops.unlink(check.file.c_str()) == 0)
        // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
        report.repairs.push_back("unlinked corrupt snapshot " + check.file +
                                 " (" + check.detail + ")");
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
  }

  // Resumability mirrors the service's resume_pointer: per shard, probe the
  // dense snapshot seqs upward, then require a verified snapshot within the
  // newest-two retention window. Shards that never snapshotted resume fresh.
  std::map<std::string, const SnapshotCheck*> checks_by_cell;
  for (const SnapshotCheck& check : report.snapshots)
    checks_by_cell[check.cell] = &check;
  report.resumable = true;
  std::vector<std::string> untrusted_shards;
  for (const auto& [shard, by_seq] : snaps_by_shard) {
    std::uint64_t newest = 0;
    while (by_seq.count(newest + 1) != 0) ++newest;
    if (newest == 0) continue;
    bool loadable = false;
    for (std::uint64_t seq = newest; seq > 0 && seq + 2 > newest; --seq) {
      const auto it =
          checks_by_cell.find(shard + "/snap/" + std::to_string(seq));
      if (it != checks_by_cell.end() && it->second->ok) {
        loadable = true;
        break;
      }
    }
    if (loadable) continue;
    if (repair)
      untrusted_shards.push_back(shard);
    else
      report.resumable = false;
  }

  // A shard whose entire retention window failed verification would make
  // resume refuse (kResume): its journal still claims snapshots that repair
  // just discarded. Drop those records — claims the bytes no longer back —
  // by rewriting the ledger without them, so the shard legitimately resumes
  // fresh. Every surviving line is kept byte for byte (CRCs included).
  if (repair && !untrusted_shards.empty()) {
    std::string kept;
    std::size_t pos = 0;
    const std::string_view intact(content.data(),
                                  static_cast<std::size_t>(replay.valid_bytes));
    while (pos < intact.size()) {
      std::size_t newline = intact.find('\n', pos);
      if (newline == std::string_view::npos) newline = intact.size() - 1;
      const std::string_view line = intact.substr(pos, newline + 1 - pos);
      bool drop = false;
      for (const std::string& shard : untrusted_shards)
        if (line.rfind("{\"cell\":\"" + shard + "/snap/", 0) == 0) drop = true;
      if (!drop) kept.append(line);
      pos = newline + 1;
    }
    harness::AtomicFileWriter writer(ledger_path);
    writer.stream() << kept;
    writer.commit();
    for (const std::string& shard : untrusted_shards)
      // locpriv-lint: allow(unbounded-growth) one note per repair; bounded by the run dir
      report.repairs.push_back("dropped untrusted snapshot records for " +
                               shard + " (no loadable snapshot in the "
                               "retention window; the shard resumes fresh)");
  }
  return report;
}

}  // namespace locpriv::service
