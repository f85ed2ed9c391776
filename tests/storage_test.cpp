// Storage-fault resilience tests: the CRC-32C primitive, StorageFaultPlan
// spec parsing, the deterministic FaultyFileOps fault menu, the atomic
// writer's torn-write invariant under injected faults, the run ledger's
// per-record checksums (torn tail vs. mid-file bit-rot), the run-dir
// scrubber, and locprivd's disk-full degraded mode (suite ServiceStorage
// runs under the `chaos` ctest label).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/atomic_file.hpp"
#include "core/harness/crc32c.hpp"
#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "core/harness/run_ledger.hpp"
#include "mobility/synthesis.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/scrub.hpp"
#include "service/snapshot.hpp"

namespace locpriv {
namespace {

namespace fs = std::filesystem;
using harness::FaultyFileOps;
using harness::LedgerScan;
using harness::RunInfo;
using harness::RunLedger;
using harness::ScopedFileOps;
using harness::StorageFaultPlan;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("locpriv_storage_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_raw(const fs::path& path, const std::string& content) {
  // locpriv-lint: allow(raw-write) tests plant exact bytes on purpose.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

bool has_temp_debris(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

const RunInfo kInfo{"storage_test", 42, "3u1d"};

// ------------------------------------------------------------- crc32c ----

TEST(StorageCrc32c, MatchesTheCastagnoliCheckVectors) {
  // RFC 3720 appendix B check value for "123456789", plus the classic
  // pangram vector — wrong polynomial or reflection fails both.
  EXPECT_EQ(harness::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(harness::crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
  EXPECT_EQ(harness::crc32c(""), 0u);
}

TEST(StorageCrc32c, HexFormIsFixedWidthLowercase) {
  EXPECT_EQ(harness::crc32c_hex("123456789"), "e3069283");
  EXPECT_EQ(harness::crc32c_hex(""), "00000000");
}

TEST(StorageCrc32c, SingleBitFlipChangesTheChecksum) {
  std::string data = "{\"cell\":\"seed7\",\"fields\":[\"1\",\"2\"]}";
  const std::uint32_t before = harness::crc32c(data);
  data[10] ^= 0x01;
  EXPECT_NE(harness::crc32c(data), before);
}

// --------------------------------------------------- fault plan spec ----

TEST(StoragePlan, SpecRoundTripsEveryField) {
  StorageFaultPlan plan;
  plan.seed = 7;
  plan.path_filter = ".snap.";
  plan.eio_at_op = 17;
  plan.enospc_at_op = 40;
  plan.enospc_recover_after = 12;
  plan.short_write_prob = 0.25;
  plan.drop_tail_at_fsync = 3;
  plan.rename_fail_at = 2;
  plan.flip_read = true;
  plan.flip_offset = 128;
  const std::string spec = plan.spec();
  EXPECT_EQ(StorageFaultPlan::parse(spec).spec(), spec);
}

TEST(StoragePlan, DefaultPlanSpecIsSeedOnly) {
  EXPECT_EQ(StorageFaultPlan{}.spec(), "seed=1");
  const StorageFaultPlan parsed = StorageFaultPlan::parse("seed=1");
  EXPECT_EQ(parsed.eio_at_op, 0u);
  EXPECT_FALSE(parsed.flip_read);
}

TEST(StoragePlan, MalformedSpecsAreUsageErrors) {
  for (const char* bad : {"bogus=1", "eio=x", "eio=-3", "short=2.0",
                          "short=nope", "short=nan", "noequals"}) {
    try {
      StorageFaultPlan::parse(bad);
      FAIL() << "spec '" << bad << "' parsed";
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kUsage) << bad;
    }
  }
}

// ------------------------------------------------------ faulty ops ----

int open_for_write(harness::FileOps& ops, const fs::path& path) {
  return ops.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

TEST(StorageFaultyOps, EioFailsExactlyTheNthMutatingOp) {
  const fs::path dir = fresh_dir("eio");
  StorageFaultPlan plan;
  plan.eio_at_op = 2;
  FaultyFileOps ops(plan);
  const int fd = open_for_write(ops, dir / "victim");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ops.write(fd, "a", 1), 1);
  errno = 0;
  EXPECT_EQ(ops.write(fd, "b", 1), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(ops.write(fd, "c", 1), 1);  // One-shot, not sticky.
  EXPECT_EQ(ops.close(fd), 0);
  EXPECT_EQ(ops.injected().eio, 1u);
}

TEST(StorageFaultyOps, StickyEnospcNeverRecovers) {
  const fs::path dir = fresh_dir("enospc_sticky");
  StorageFaultPlan plan;
  plan.enospc_at_op = 2;  // recover_after = 0: the disk stays full.
  FaultyFileOps ops(plan);
  const int fd = open_for_write(ops, dir / "victim");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ops.write(fd, "a", 1), 1);
  for (int attempt = 0; attempt < 4; ++attempt) {
    errno = 0;
    EXPECT_EQ(ops.write(fd, "b", 1), -1);
    EXPECT_EQ(errno, ENOSPC);
  }
  EXPECT_EQ(ops.close(fd), 0);
  EXPECT_EQ(ops.injected().enospc, 4u);
}

TEST(StorageFaultyOps, RecoveringEnospcClearsAfterTheConfiguredFailures) {
  const fs::path dir = fresh_dir("enospc_recover");
  StorageFaultPlan plan;
  plan.enospc_at_op = 1;
  plan.enospc_recover_after = 2;
  FaultyFileOps ops(plan);
  const int fd = open_for_write(ops, dir / "victim");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ops.write(fd, "x", 1), -1);
  EXPECT_EQ(ops.write(fd, "x", 1), -1);
  EXPECT_EQ(ops.write(fd, "x", 1), 1);  // Space was freed.
  EXPECT_EQ(ops.close(fd), 0);
  EXPECT_EQ(ops.injected().enospc, 2u);
  EXPECT_EQ(slurp(dir / "victim"), "x");
}

TEST(StorageFaultyOps, ShortWritesCutTheCountButStayPositive) {
  const fs::path dir = fresh_dir("short");
  StorageFaultPlan plan;
  plan.seed = 11;
  plan.short_write_prob = 1.0;
  FaultyFileOps ops(plan);
  const int fd = open_for_write(ops, dir / "victim");
  ASSERT_GE(fd, 0);
  const std::string buffer(100, 'z');
  const ::ssize_t n = ops.write(fd, buffer.data(), buffer.size());
  ASSERT_GT(n, 0);
  EXPECT_LT(n, 100);
  EXPECT_EQ(ops.close(fd), 0);
  EXPECT_GE(ops.injected().short_writes, 1u);
}

TEST(StorageFaultyOps, LyingFsyncDropsTheUnsyncedTailAtClose) {
  const fs::path dir = fresh_dir("dropsync");
  StorageFaultPlan plan;
  plan.drop_tail_at_fsync = 2;  // First fsync is honest, the second lies.
  FaultyFileOps ops(plan);
  const int fd = open_for_write(ops, dir / "victim");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ops.write(fd, "abc", 3), 3);
  EXPECT_EQ(ops.fsync(fd), 0);  // Honest: "abc" is durable.
  EXPECT_EQ(ops.write(fd, "tail", 4), 4);
  EXPECT_EQ(ops.fsync(fd), 0);  // The lie: reports success, syncs nothing.
  EXPECT_EQ(ops.close(fd), 0);  // Power loss: the unsynced tail vanishes.
  EXPECT_EQ(slurp(dir / "victim"), "abc");
  EXPECT_EQ(ops.injected().dropped_tails, 1u);
}

TEST(StorageFaultyOps, RenameFailsAtTheConfiguredCount) {
  const fs::path dir = fresh_dir("rename");
  StorageFaultPlan plan;
  plan.rename_fail_at = 1;
  FaultyFileOps ops(plan);
  write_raw(dir / "from", "payload");
  errno = 0;
  EXPECT_EQ(ops.rename((dir / "from").c_str(), (dir / "to").c_str()), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_TRUE(fs::exists(dir / "from"));
  EXPECT_FALSE(fs::exists(dir / "to"));
  EXPECT_EQ(ops.rename((dir / "from").c_str(), (dir / "to").c_str()), 0);
  EXPECT_EQ(ops.injected().rename_failures, 1u);
}

TEST(StorageFaultyOps, ReadBitFlipIsPersistentLikeABadSector) {
  const fs::path dir = fresh_dir("flip");
  write_raw(dir / "victim", "hello");
  StorageFaultPlan plan;
  plan.flip_read = true;
  plan.flip_offset = 1;
  FaultyFileOps ops(plan);
  const int fd = ops.open((dir / "victim").c_str(), O_RDONLY, 0);
  ASSERT_GE(fd, 0);
  char buf[8] = {};
  ASSERT_EQ(ops.read(fd, buf, 5), 5);
  EXPECT_EQ(std::string(buf, 5), std::string("h") + char('e' ^ 0x01) + "llo");
  ::lseek(fd, 0, SEEK_SET);
  ASSERT_EQ(ops.read(fd, buf, 5), 5);  // Retries see the same rot.
  EXPECT_EQ(buf[1], char('e' ^ 0x01));
  EXPECT_EQ(ops.close(fd), 0);
  EXPECT_EQ(ops.injected().bit_flips, 2u);
}

TEST(StorageFaultyOps, PathFilterScopesFaultsToMatchingFiles) {
  const fs::path dir = fresh_dir("filter");
  StorageFaultPlan plan;
  plan.path_filter = ".snap.";
  plan.enospc_at_op = 1;
  FaultyFileOps ops(plan);
  const int healthy = open_for_write(ops, dir / "ledger.jsonl");
  const int faulted = open_for_write(ops, dir / "shard0.snap.1");
  ASSERT_GE(healthy, 0);
  ASSERT_GE(faulted, 0);
  EXPECT_EQ(ops.write(healthy, "ok", 2), 2);
  errno = 0;
  EXPECT_EQ(ops.write(faulted, "xx", 2), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(ops.close(healthy), 0);
  EXPECT_EQ(ops.close(faulted), 0);
}

TEST(StorageFaultyOps, SamePlanAndCallSequenceInjectTheSameFaults) {
  // The whole fault menu is seeded: replaying a plan against the same call
  // sequence must reproduce byte-identical injections (the torture bench
  // and CI env-var installs rely on this).
  const fs::path dir = fresh_dir("deterministic");
  const auto run_once = [&dir] {
    StorageFaultPlan plan;
    plan.seed = 99;
    plan.short_write_prob = 0.5;
    FaultyFileOps ops(plan);
    const int fd = open_for_write(ops, dir / "victim");
    EXPECT_GE(fd, 0);
    std::vector<::ssize_t> sizes;
    const std::string buffer(64, 'q');
    for (int i = 0; i < 8; ++i)
      sizes.push_back(ops.write(fd, buffer.data(), buffer.size()));
    EXPECT_EQ(ops.close(fd), 0);
    return sizes;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------- atomic writer under fault ----

// Each fault is injected twice: over a complete old version, and at a
// destination that does not exist yet, which must stay absent rather than
// turn into a partial file that looks like data.
TEST(AtomicFileStorageFaults, EnospcDuringCommitKeepsOldContentAndNoDebris) {
  const fs::path dir = fresh_dir("atomic_enospc");
  const fs::path target = dir / "table.csv";
  const fs::path fresh = dir / "fresh.csv";
  harness::write_file_atomic(target, "old,complete,version\n");
  for (const fs::path& path : {target, fresh}) {
    StorageFaultPlan plan;
    plan.enospc_at_op = 1;
    FaultyFileOps faulty(plan);
    ScopedFileOps scoped(&faulty);
    try {
      harness::write_file_atomic(path, "new,half,written\n");
      FAIL() << "commit survived a full disk: " << path;
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kIo);
    }
    EXPECT_FALSE(has_temp_debris(dir));
    EXPECT_GE(faulty.injected().enospc, 1u);
  }
  EXPECT_EQ(slurp(target), "old,complete,version\n");
  EXPECT_FALSE(fs::exists(fresh));
}

TEST(AtomicFileStorageFaults, RenameFailureKeepsOldContentAndNoDebris) {
  const fs::path dir = fresh_dir("atomic_rename");
  const fs::path target = dir / "table.csv";
  const fs::path fresh = dir / "fresh.csv";
  harness::write_file_atomic(target, "old,complete,version\n");
  for (const fs::path& path : {target, fresh}) {
    StorageFaultPlan plan;
    plan.rename_fail_at = 1;
    FaultyFileOps faulty(plan);
    ScopedFileOps scoped(&faulty);
    try {
      harness::write_file_atomic(path, "new\n");
      FAIL() << "commit survived a failed rename: " << path;
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kIo);
    }
    EXPECT_FALSE(has_temp_debris(dir));
  }
  EXPECT_EQ(slurp(target), "old,complete,version\n");
  EXPECT_FALSE(fs::exists(fresh));
}

TEST(AtomicFileStorageFaults, ShortWritesAreRetriedToCompletion) {
  const fs::path dir = fresh_dir("atomic_short");
  const fs::path target = dir / "table.csv";
  StorageFaultPlan plan;
  plan.seed = 3;
  plan.short_write_prob = 1.0;  // Every write is cut short; retries finish.
  FaultyFileOps faulty(plan);
  ScopedFileOps scoped(&faulty);
  std::string content;
  for (int i = 0; i < 5000; ++i) content += "row," + std::to_string(i) + "\n";
  harness::write_file_atomic(target, content);
  EXPECT_EQ(slurp(target), content);
  EXPECT_GE(faulty.injected().short_writes, 1u);
}

TEST(AtomicFileStorageFaults, LyingFsyncPublishesTheTruncationNotGarbage) {
  // A lying fsync is the one fault the writer cannot detect (the kernel
  // reported success); the published file is truncated at the last durable
  // byte. What the protocol still guarantees: no interleaved garbage, and
  // downstream content checksums (snapshot FNV, ledger CRC) catch the loss.
  const fs::path dir = fresh_dir("atomic_dropsync");
  const fs::path target = dir / "table.csv";
  StorageFaultPlan plan;
  plan.drop_tail_at_fsync = 1;
  FaultyFileOps faulty(plan);
  ScopedFileOps scoped(&faulty);
  harness::write_file_atomic(target, "never,synced\n");
  EXPECT_EQ(slurp(target), "");  // Truncated to the durable prefix (empty).
  EXPECT_EQ(faulty.injected().dropped_tails, 1u);
}

// ------------------------------------------------------- ledger CRC ----

TEST(RunLedgerCrc, EveryAppendedLineCarriesASelfChecksum) {
  const fs::path dir = fresh_dir("crc_lines");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1", "2"});
    ledger.record_quarantine("cell_b", {"signal 11 (SIGSEGV)"});
  }
  const std::string content = slurp(dir / "ledger.jsonl");
  std::istringstream lines(content);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_GE(line.size(), 19u) << line;
    const std::string suffix = line.substr(line.size() - 18);
    EXPECT_EQ(suffix.substr(0, 8), ",\"crc\":\"") << line;
    EXPECT_EQ(suffix.substr(16), "\"}") << line;
  }
  EXPECT_EQ(count, 3u);  // Header + cell + quarantine.

  const harness::LedgerReplay replay = harness::replay_ledger(content);
  EXPECT_EQ(replay.status, LedgerScan::kClean);
  EXPECT_TRUE(replay.has_header);
  EXPECT_EQ(replay.valid_bytes, content.size());
  EXPECT_EQ(replay.cells.count("cell_a"), 1u);
  EXPECT_EQ(replay.quarantine.count("cell_b"), 1u);
}

TEST(RunLedgerCrc, ReopenReplaysChecksummedRecords) {
  const fs::path dir = fresh_dir("crc_reopen");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("seed7", {"0.25", "12"});
  }
  RunLedger resumed(dir, kInfo);
  ASSERT_TRUE(resumed.completed("seed7"));
  EXPECT_EQ(*resumed.fields("seed7"),
            (std::vector<std::string>{"0.25", "12"}));
}

TEST(RunLedgerCrc, InteriorBitFlipIsRefusedWithTheLedgerCorruptExit) {
  const fs::path dir = fresh_dir("crc_bitflip");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1"});
    ledger.record("cell_b", {"2"});
    ledger.record("cell_c", {"3"});
  }
  std::string content = slurp(dir / "ledger.jsonl");
  // Flip one bit inside the second record (line 3 of 4) — interior damage,
  // not a torn tail, so replay must refuse rather than silently drop it.
  std::size_t newlines = 0;
  std::size_t victim = std::string::npos;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (newlines == 2 && content[i] != '\n') {
      victim = i + 4;
      break;
    }
    if (content[i] == '\n') ++newlines;
  }
  ASSERT_NE(victim, std::string::npos);
  content[victim] ^= 0x01;
  write_raw(dir / "ledger.jsonl", content);
  try {
    RunLedger reopened(dir, kInfo);
    FAIL() << "bit-flipped ledger replayed";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kLedgerCorrupt);
    EXPECT_EQ(error.exit_code(), 8);
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("scrub"), std::string::npos);
  }
}

TEST(RunLedgerCrc, ReadPathBitRotIsCaughtByTheRecordCrc) {
  const fs::path dir = fresh_dir("crc_readrot");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1"});
    ledger.record("cell_b", {"2"});
  }
  // Rot a byte in the middle of the file at read time: the bytes on disk
  // are fine, the sector is not. The per-record CRC catches what syntax
  // checks alone might miss.
  StorageFaultPlan plan;
  plan.flip_read = true;
  plan.flip_offset = slurp(dir / "ledger.jsonl").size() / 2;
  FaultyFileOps faulty(plan);
  ScopedFileOps scoped(&faulty);
  try {
    RunLedger reopened(dir, kInfo);
    FAIL() << "rotting ledger replayed";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kLedgerCorrupt);
  }
  EXPECT_GE(faulty.injected().bit_flips, 1u);
}

TEST(RunLedgerCrc, PreCrcLedgersReplayUnchanged) {
  const fs::path dir = fresh_dir("crc_legacy");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1", "2"});
  }
  // Rewrite the ledger as an old writer would have produced it: identical
  // lines minus the trailing `,"crc":"xxxxxxxx"` member.
  std::string stripped;
  std::istringstream lines(slurp(dir / "ledger.jsonl"));
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_GE(line.size(), 19u);
    stripped += line.substr(0, line.size() - 18);
    stripped += "}\n";
  }
  write_raw(dir / "ledger.jsonl", stripped);
  RunLedger resumed(dir, kInfo);
  ASSERT_TRUE(resumed.completed("cell_a"));
  EXPECT_EQ(*resumed.fields("cell_a"), (std::vector<std::string>{"1", "2"}));
}

std::string crc_line(const std::string& base) {
  return base.substr(0, base.size() - 1) + ",\"crc\":\"" +
         harness::crc32c_hex(base) + "\"}";
}

TEST(RunLedgerCrc, ReplayClassifiesTornVersusCorrupt) {
  const std::string header = crc_line(
      "{\"experiment\":\"x\",\"seed\":1,\"scale\":\"s\",\"mode\":\"inproc-w1\"}");
  const std::string cell = crc_line("{\"cell\":\"a\",\"fields\":[\"1\"]}");

  // Unterminated tail: torn, valid bytes stop at the last newline.
  harness::LedgerReplay replay =
      harness::replay_ledger(header + "\n" + cell.substr(0, 10));
  EXPECT_EQ(replay.status, LedgerScan::kTorn);
  EXPECT_EQ(replay.valid_bytes, header.size() + 1);

  // A terminated legacy (no-CRC) junk line with nothing after it could be a
  // torn pre-CRC append whose payload held a newline: truncate, don't refuse.
  replay = harness::replay_ledger(header + "\n{\"cell\":junk}\n");
  EXPECT_EQ(replay.status, LedgerScan::kTorn);
  EXPECT_EQ(replay.valid_bytes, header.size() + 1);

  // The same junk with intact data after it is mid-file damage.
  replay = harness::replay_ledger(header + "\n{\"cell\":junk}\n" + cell + "\n");
  EXPECT_EQ(replay.status, LedgerScan::kCorrupt);
  EXPECT_EQ(replay.bad_line, 2u);

  // A CRC-verified line that does not parse is writer corruption even in
  // final position: the CRC proves those exact bytes were written on purpose.
  replay = harness::replay_ledger(header + "\n" +
                                  crc_line("{\"bogus\":\"record\"}") + "\n");
  EXPECT_EQ(replay.status, LedgerScan::kCorrupt);
  EXPECT_EQ(replay.bad_line, 2u);

  // A terminated garbage header is damage: appends are single-write, so a
  // crash cannot leave a terminated-but-unparsable line 1.
  replay = harness::replay_ledger("garbage\n");
  EXPECT_EQ(replay.status, LedgerScan::kCorrupt);
  EXPECT_EQ(replay.bad_line, 1u);

  // Clean image: everything accounted for.
  replay = harness::replay_ledger(header + "\n" + cell + "\n");
  EXPECT_EQ(replay.status, LedgerScan::kClean);
  EXPECT_TRUE(replay.has_header);
  EXPECT_EQ(replay.cells.count("a"), 1u);
}

// ------------------------------------------------------------- scrub ----

/// A minimal but honest run directory: a ledger journaling `count`
/// snapshots for shard0 plus the snapshot files themselves, exactly the
/// shape locprivd's record_snapshot produces.
fs::path scrub_fixture(const std::string& name, unsigned count,
                       unsigned keep_from = 1) {
  const fs::path dir = fresh_dir(name);
  RunLedger ledger(dir, kInfo);
  for (unsigned seq = 1; seq <= count; ++seq) {
    service::ShardSnapshot snapshot;
    snapshot.shard = 0;
    snapshot.seq = seq;
    snapshot.last_seq = seq * 10;
    snapshot.users.try_emplace("user_00", snapshot.params);
    const std::string encoded = service::encode_snapshot(snapshot);
    const fs::path file = dir / ("shard0.snap." + std::to_string(seq));
    if (seq >= keep_from) harness::write_file_atomic(file, encoded);
    ledger.record("shard0/snap/" + std::to_string(seq),
                  {file.string(), std::to_string(snapshot.last_seq), "1", "0",
                   service::snapshot_checksum(encoded)});
  }
  return dir;
}

TEST(ScrubRunDir, CleanDirectoryVerifiesAndIsResumable) {
  const fs::path dir = scrub_fixture("clean", 2);
  const service::ScrubReport report = service::scrub_run_dir(dir, false);
  EXPECT_EQ(report.ledger_status, LedgerScan::kClean);
  EXPECT_EQ(report.ledger_records, 2u);
  ASSERT_EQ(report.snapshots.size(), 2u);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.resumable);
  EXPECT_TRUE(report.repairs.empty());
}

TEST(ScrubRunDir, MissingLedgerIsAUsageError) {
  const fs::path dir = fresh_dir("no_ledger");
  try {
    service::scrub_run_dir(dir, false);
    FAIL() << "scrubbed a non-run directory";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUsage);
  }
}

TEST(ScrubRunDir, ReclaimedSnapshotsOutsideTheRetentionWindowAreNotChecked) {
  // Seqs 1..4 journaled, files 1..2 already reclaimed by the service's
  // newest-two retention — a correct scrub only verifies 3 and 4.
  const fs::path dir = scrub_fixture("retention", 4, 3);
  const service::ScrubReport report = service::scrub_run_dir(dir, false);
  ASSERT_EQ(report.snapshots.size(), 2u);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.resumable);
}

TEST(ScrubRunDir, CorruptNewestSnapshotFallsBackToThePrevious) {
  const fs::path dir = scrub_fixture("fallback", 2);
  const fs::path newest = dir / "shard0.snap.2";
  std::string encoded = slurp(newest);
  encoded[encoded.size() / 2] ^= 0x20;
  write_raw(newest, encoded);

  const service::ScrubReport verify = service::scrub_run_dir(dir, false);
  EXPECT_FALSE(verify.clean());
  EXPECT_TRUE(verify.resumable);  // Seq 1 still loads: the service's fallback.

  const service::ScrubReport repair = service::scrub_run_dir(dir, true);
  EXPECT_TRUE(repair.resumable);
  EXPECT_FALSE(repair.repairs.empty());
  EXPECT_FALSE(fs::exists(newest));  // The lie is gone from disk.
  EXPECT_TRUE(fs::exists(dir / "shard0.snap.1"));
}

TEST(ScrubRunDir, HeaderlessSnapshotIsReportedNotThrown) {
  // A file with no header line at all is one more unloadable snapshot: the
  // scrub reports it and falls back, it does not abort with the parse error.
  const fs::path dir = scrub_fixture("headerless", 2);
  write_raw(dir / "shard0.snap.2", "no header line anywhere");
  const service::ScrubReport report = service::scrub_run_dir(dir, false);
  ASSERT_EQ(report.snapshots.size(), 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.resumable);
}

TEST(ScrubRunDir, WindowFullyCorruptRepairDropsTheRecordsForAFreshResume) {
  // Only one snapshot journaled and its file is rotten: nothing in the
  // retention window loads, so a resume would refuse (kResume). Repair must
  // drop the untrusted records too, or the directory stays dead.
  const fs::path dir = scrub_fixture("fresh_resume", 1);
  std::string encoded = slurp(dir / "shard0.snap.1");
  encoded[encoded.size() / 2] ^= 0x20;
  write_raw(dir / "shard0.snap.1", encoded);

  EXPECT_FALSE(service::scrub_run_dir(dir, false).resumable);
  const service::ScrubReport repaired = service::scrub_run_dir(dir, true);
  EXPECT_TRUE(repaired.resumable);
  EXPECT_FALSE(fs::exists(dir / "shard0.snap.1"));

  const service::ScrubReport rescan = service::scrub_run_dir(dir, false);
  EXPECT_TRUE(rescan.clean());
  EXPECT_TRUE(rescan.resumable);
  RunLedger reopened(dir, kInfo);  // Header survived the rewrite intact.
  EXPECT_FALSE(reopened.completed("shard0/snap/1"));
}

TEST(ScrubRunDir, RepairTruncatesACorruptLedgerBackToTheIntactPrefix) {
  const fs::path dir = scrub_fixture("truncate", 1);
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("extra_cell", {"x"});
  }
  // Corrupt the final record's body (clear of its CRC suffix); the header
  // and shard0/snap/1 stay intact.
  std::string content = slurp(dir / "ledger.jsonl");
  content[content.size() - 30] ^= 0x01;
  write_raw(dir / "ledger.jsonl", content);

  EXPECT_EQ(service::scrub_run_dir(dir, false).ledger_status,
            LedgerScan::kCorrupt);
  const service::ScrubReport repaired = service::scrub_run_dir(dir, true);
  ASSERT_FALSE(repaired.repairs.empty());
  EXPECT_NE(repaired.repairs.front().find("truncated"), std::string::npos);
  EXPECT_TRUE(repaired.resumable);

  // After repair the directory is fully healthy again: replay is clean and
  // the ledger reopens (the cell past the damage is gone, as advertised).
  const service::ScrubReport rescan = service::scrub_run_dir(dir, false);
  EXPECT_EQ(rescan.ledger_status, LedgerScan::kClean);
  EXPECT_TRUE(rescan.clean());
  RunLedger reopened(dir, kInfo);
  EXPECT_TRUE(reopened.completed("shard0/snap/1"));
  EXPECT_FALSE(reopened.completed("extra_cell"));
}

TEST(ScrubRunDir, RepairUnlinksSnapshotDebrisTheJournalNeverVouchedFor) {
  const fs::path dir = scrub_fixture("debris", 1);
  write_raw(dir / "shard9.snap.7", "not a snapshot at all");
  const service::ScrubReport report = service::scrub_run_dir(dir, true);
  EXPECT_FALSE(fs::exists(dir / "shard9.snap.7"));
  bool mentioned = false;
  for (const std::string& repair : report.repairs)
    mentioned = mentioned || repair.find("unreferenced") != std::string::npos;
  EXPECT_TRUE(mentioned);
  EXPECT_TRUE(fs::exists(dir / "shard0.snap.1"));  // Vouched-for file stays.
}

// --------------------------------------------- locprivd degraded mode ----

const core::PrivacyAnalyzer& storage_analyzer() {
  static const core::PrivacyAnalyzer analyzer = [] {
    mobility::DatasetConfig dataset;
    dataset.user_count = 4;
    dataset.synthesis.days = 2;
    return core::PrivacyAnalyzer::from_synthetic(
        core::experiment_analyzer_config(), dataset);
  }();
  return analyzer;
}

service::ServiceOptions storage_options(unsigned shards) {
  service::ServiceOptions options;
  options.shards = shards;
  options.interval_s = 60;
  options.seed = core::kDatasetSeed;
  options.scale = "4u_t60";
  options.heartbeat = std::chrono::milliseconds(50);
  options.ping_timeout = std::chrono::milliseconds(400);
  options.term_grace = std::chrono::milliseconds(150);
  options.snapshot_interval = std::chrono::milliseconds(150);
  options.backoff_base = std::chrono::milliseconds(10);
  return options;
}

void expect_storage_parity(const service::ServiceOptions& options,
                           const service::TrafficOptions& traffic,
                           const std::vector<std::vector<std::string>>& rows) {
  const std::vector<std::string> mismatched = service::parity_mismatches(
      storage_analyzer(), options.interval_s, traffic, rows);
  EXPECT_TRUE(mismatched.empty())
      << mismatched.size() << " users diverged, first: "
      << (mismatched.empty() ? "" : mismatched.front());
}

TEST(ServiceStorage, StickyDiskFullDegradesServesFromMemoryAndExitsIo) {
  const auto& analyzer = storage_analyzer();
  const auto options = storage_options(2);
  service::TrafficOptions traffic;
  traffic.batch_size = 32;
  // Only snapshot publishes hit the full disk; the ledger stays healthy, so
  // degraded-mode bookkeeping (snapdrop records) still lands.
  StorageFaultPlan plan;
  plan.path_filter = ".snap.";
  plan.enospc_at_op = 1;  // Sticky: the disk never recovers.
  FaultyFileOps faulty(plan);
  ScopedFileOps scoped(&faulty);

  const fs::path dir = fresh_dir("svc_sticky");
  service::LocprivService daemon(options, analyzer, dir, false);
  const service::TrafficOutcome outcome =
      service::drive_traffic(daemon, analyzer, traffic);
  EXPECT_EQ(outcome.accepted, outcome.batches);

  // Snapshots cannot land, but the shards keep answering from memory.
  const auto rows = daemon.collect_reports();
  expect_storage_parity(options, traffic, rows);

  try {
    daemon.drain();
    FAIL() << "drain published snapshots on a full disk";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIo);
  }
  const service::ServiceStats& stats = daemon.stats();
  EXPECT_GE(stats.snapshots_shed, 3u);  // Three drain strikes at minimum.
  EXPECT_GE(stats.storage_degraded_events, 1u);
  EXPECT_EQ(stats.snapshots, 0u);
  bool degraded = false;
  for (unsigned shard = 0; shard < options.shards; ++shard)
    degraded = degraded || daemon.shard_load(shard).storage_degraded;
  EXPECT_TRUE(degraded);
  // The episode is journaled for post-mortem audit.
  EXPECT_NE(slurp(dir / "ledger.jsonl").find("/snapdrop/1"),
            std::string::npos);
}

TEST(ServiceStorage, RecoveringDiskRearmsSnapshotsAndDrainsWithParity) {
  const auto& analyzer = storage_analyzer();
  const auto options = storage_options(2);
  service::TrafficOptions traffic;
  traffic.batch_size = 32;
  traffic.pace = std::chrono::milliseconds(2);  // Let the cadence fire.
  // Every shard child inherits the plan across fork: its first two snapshot
  // writes fail, then the "space was freed" recovery kicks in.
  StorageFaultPlan plan;
  plan.path_filter = ".snap.";
  plan.enospc_at_op = 1;
  plan.enospc_recover_after = 2;
  FaultyFileOps faulty(plan);
  ScopedFileOps scoped(&faulty);

  const fs::path dir = fresh_dir("svc_recover");
  service::LocprivService daemon(options, analyzer, dir, false);
  service::drive_traffic(daemon, analyzer, traffic);
  const auto rows = daemon.collect_reports();
  daemon.drain();  // Fewer than three strikes per shard: the drain lands.

  const service::ServiceStats& stats = daemon.stats();
  EXPECT_GE(stats.snapshots_shed, 1u);
  EXPECT_GE(stats.storage_degraded_events, 1u);
  EXPECT_GE(stats.snapshots, 1u);
  for (unsigned shard = 0; shard < options.shards; ++shard)
    EXPECT_FALSE(daemon.shard_load(shard).storage_degraded) << shard;
  expect_storage_parity(options, traffic, rows);

  // The drained directory is exactly what the scrubber calls healthy.
  const service::ScrubReport report = service::scrub_run_dir(dir, false);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.resumable);
}

}  // namespace
}  // namespace locpriv
