// Run harness: atomic artifact writer (commit, abandon, racing publishers),
// run ledger (journal replay, torn tails, identity mismatch), kill-and-resume
// byte identity, stage watchdog deadlines through parallel_for's exception
// aggregation, and the error taxonomy's exit-code mapping.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/run_ledger.hpp"
#include "core/harness/sweep.hpp"
#include "core/harness/watchdog.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace locpriv::harness {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("locpriv_harness_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// True if `dir` holds any leftover "*.tmp.*" debris.
bool has_temp_debris(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

// ---- atomic artifact writer -------------------------------------------

TEST(AtomicFile, CommitPublishesExactContent) {
  const fs::path dir = fresh_dir("atomic_commit");
  const fs::path target = dir / "artifact.csv";
  {
    AtomicFileWriter writer(target);
    writer.stream() << "a,b\n1,2\n";
    writer.commit();
    EXPECT_TRUE(writer.committed());
  }
  EXPECT_EQ(slurp(target), "a,b\n1,2\n");
  EXPECT_FALSE(has_temp_debris(dir));
}

TEST(AtomicFile, AbandonedWriterLeavesNothing) {
  const fs::path dir = fresh_dir("atomic_abandon");
  const fs::path target = dir / "artifact.csv";
  {
    AtomicFileWriter writer(target);
    writer.stream() << "half a row";
    // No commit: simulated early exit.
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(has_temp_debris(dir));
}

TEST(AtomicFile, UnwritableDirectoryFailsFastWithPath) {
  try {
    AtomicFileWriter writer("/nonexistent_locpriv_dir/artifact.csv");
    FAIL() << "constructor should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIo);
    EXPECT_EQ(error.exit_code(), 4);
    EXPECT_NE(std::string(error.what()).find("/nonexistent_locpriv_dir"),
              std::string::npos);
  }
}

TEST(AtomicFile, ConcurrentPublishersToSameDestinationNeverTear) {
  // Two writers race full publishes of the same destination, repeatedly.
  // The invariant is last-complete-wins: after every round the destination
  // holds one writer's COMPLETE content — never an interleaving — and no
  // temp debris survives.
  const fs::path dir = fresh_dir("atomic_race");
  const fs::path target = dir / "artifact.csv";
  const std::string content_a(8192, 'a');
  const std::string content_b(8192, 'b');
  constexpr int kRounds = 25;

  auto publish = [&](const std::string& content) {
    for (int round = 0; round < kRounds; ++round) {
      AtomicFileWriter writer(target);
      writer.stream() << content << "\n";
      writer.commit();
    }
  };
  std::thread racer_a([&] { publish(content_a); });
  std::thread racer_b([&] { publish(content_b); });
  racer_a.join();
  racer_b.join();

  const std::string final_content = slurp(target);
  EXPECT_TRUE(final_content == content_a + "\n" ||
              final_content == content_b + "\n")
      << "destination holds a torn mix of both publishers";
  EXPECT_FALSE(has_temp_debris(dir));
}

// ---- run ledger --------------------------------------------------------

const RunInfo kInfo{"harness_test", 42, "3u1d"};

TEST(RunLedger, RecordsReplayAcrossReopen) {
  const fs::path dir = fresh_dir("ledger_replay");
  {
    RunLedger ledger(dir, kInfo);
    EXPECT_EQ(ledger.completed_count(), 0u);
    ledger.record("cell_a", {"1", "2.5", "x,y \"quoted\""});
    ledger.record("cell_b", {});
  }
  RunLedger reopened(dir, kInfo);
  EXPECT_EQ(reopened.completed_count(), 2u);
  EXPECT_TRUE(reopened.completed("cell_a"));
  EXPECT_TRUE(reopened.completed("cell_b"));
  EXPECT_FALSE(reopened.completed("cell_c"));
  ASSERT_NE(reopened.fields("cell_a"), nullptr);
  EXPECT_EQ(*reopened.fields("cell_a"),
            (std::vector<std::string>{"1", "2.5", "x,y \"quoted\""}));
  EXPECT_TRUE(reopened.fields("cell_b")->empty());
}

TEST(RunLedger, DuplicateRecordIsAHarnessBug) {
  const fs::path dir = fresh_dir("ledger_dup");
  RunLedger ledger(dir, kInfo);
  ledger.record("cell", {"1"});
  try {
    ledger.record("cell", {"2"});
    FAIL() << "duplicate record should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

TEST(RunLedger, TornTailIsTruncatedAndOverwritten) {
  const fs::path dir = fresh_dir("ledger_torn");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1"});
    ledger.record("cell_b", {"2"});
  }
  // Simulate a SIGKILL mid-append: a partial record with no newline.
  {
    // locpriv-lint: allow(raw-write) torn bytes planted on purpose.
    std::ofstream out(dir / "ledger.jsonl", std::ios::binary | std::ios::app);
    out << "{\"cell\":\"cell_c\",\"fi";
  }
  {
    RunLedger ledger(dir, kInfo);
    EXPECT_EQ(ledger.completed_count(), 2u);
    EXPECT_FALSE(ledger.completed("cell_c"));
    ledger.record("cell_c", {"3"});
  }
  // The torn bytes are gone: a fresh replay sees three intact records.
  RunLedger reopened(dir, kInfo);
  EXPECT_EQ(reopened.completed_count(), 3u);
  EXPECT_EQ(*reopened.fields("cell_c"), std::vector<std::string>{"3"});
}

TEST(RunLedger, InteriorCorruptionRefusesToGuess) {
  const fs::path dir = fresh_dir("ledger_corrupt");
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_a", {"1"});
  }
  // Corrupt an interior line (more intact data follows), which single-write
  // appends cannot produce — this is damage, not a crash artifact, and it
  // gets the dedicated ledger-corrupt exit so scripts can route it to
  // `locpriv scrub --repair` instead of treating it as a resume mismatch.
  std::string content = slurp(dir / "ledger.jsonl");
  content += "garbage line\n{\"cell\":\"cell_b\",\"fields\":[\"2\"]}\n";
  {
    // locpriv-lint: allow(raw-write) interior corruption planted on purpose.
    std::ofstream out(dir / "ledger.jsonl", std::ios::binary | std::ios::trunc);
    out << content;
  }
  try {
    RunLedger ledger(dir, kInfo);
    FAIL() << "corrupt ledger should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kLedgerCorrupt);
    EXPECT_EQ(error.exit_code(), 8);
    EXPECT_NE(std::string(error.what()).find("scrub"), std::string::npos);
  }
}

TEST(RunLedger, MismatchedRunIdentityRefusesResume) {
  const fs::path dir = fresh_dir("ledger_mismatch");
  { RunLedger ledger(dir, kInfo); }
  for (const RunInfo& wrong :
       {RunInfo{"other_bench", 42, "3u1d"}, RunInfo{"harness_test", 7, "3u1d"},
        RunInfo{"harness_test", 42, "182u12d"}}) {
    try {
      RunLedger ledger(dir, wrong);
      FAIL() << "mismatched identity should have thrown";
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kResume);
    }
  }
}

TEST(RunLedger, QuarantineRecordsReplayAndAreSupersededByCompletion) {
  const fs::path dir = fresh_dir("ledger_quarantine");
  const std::vector<std::string> details = {
      "attempt 1: killed by SIGSEGV; stderr: boom",
      "attempt 2: deadline 500ms exceeded (SIGTERM, escalated to SIGKILL)"};
  {
    RunLedger ledger(dir, kInfo);
    ledger.record("cell_ok", {"1"});
    ledger.record_quarantine("cell_bad", details);
    EXPECT_TRUE(ledger.quarantined("cell_bad"));
    EXPECT_FALSE(ledger.quarantined("cell_ok"));
    EXPECT_FALSE(ledger.completed("cell_bad"));
  }
  {
    // Quarantine records are journaled: they survive reopen with their
    // structured details intact and are listed for the summary.
    RunLedger ledger(dir, kInfo);
    EXPECT_TRUE(ledger.quarantined("cell_bad"));
    ASSERT_NE(ledger.quarantine_details("cell_bad"), nullptr);
    EXPECT_EQ(*ledger.quarantine_details("cell_bad"), details);
    EXPECT_EQ(ledger.quarantined_cells(), std::vector<std::string>{"cell_bad"});
    // A resumed run that retries the cell and succeeds supersedes the
    // quarantine — latest state wins, exactly like a completed record.
    ledger.record("cell_bad", {"2"});
    EXPECT_FALSE(ledger.quarantined("cell_bad"));
    EXPECT_TRUE(ledger.quarantined_cells().empty());
  }
  RunLedger reopened(dir, kInfo);
  EXPECT_TRUE(reopened.completed("cell_bad"));
  EXPECT_FALSE(reopened.quarantined("cell_bad"));
}

TEST(RunLedger, QuarantiningACompletedCellIsAHarnessBug) {
  const fs::path dir = fresh_dir("ledger_quarantine_bug");
  RunLedger ledger(dir, kInfo);
  ledger.record("cell", {"1"});
  try {
    ledger.record_quarantine("cell", {"attempt 1: exit 1"});
    FAIL() << "quarantining a completed cell should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

TEST(RunLedger, MismatchedExecutionModeRefusesResume) {
  const fs::path dir = fresh_dir("ledger_mode_mismatch");
  RunInfo isolate_info = kInfo;
  isolate_info.mode = "isolate-w4";
  { RunLedger ledger(dir, isolate_info); }
  // Same experiment/seed/scale, different execution mode: a resume must not
  // silently switch between isolated and in-process dispatch.
  try {
    RunLedger ledger(dir, kInfo);
    FAIL() << "mode mismatch should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
    EXPECT_NE(std::string(error.what()).find("isolate-w4"), std::string::npos);
  }
  RunLedger matched(dir, isolate_info);  // The pinned mode still resumes.
}

TEST(OpenLedger, FreshRunDirRefusesExistingLedger) {
  const fs::path dir = fresh_dir("open_ledger");
  RunOptions options;
  options.run_dir = dir;
  ASSERT_NE(open_ledger(options, kInfo), nullptr);  // Creates the ledger.
  EXPECT_THROW(open_ledger(options, kInfo), Error);
  options.resume = true;
  EXPECT_NE(open_ledger(options, kInfo), nullptr);  // Resume is allowed.
  EXPECT_EQ(open_ledger(RunOptions{}, kInfo), nullptr);  // Unsupervised.
}

// ---- kill-and-resume byte identity ------------------------------------

/// A miniature deterministic sweep over 12 cells standing in for the bench
/// binaries: compute (or replay) every cell, journal fresh ones, and
/// publish the final CSV atomically.
std::string run_mini_sweep(const fs::path& run_dir, std::size_t stop_after) {
  const RunInfo info{"mini_sweep", 7, "12cells"};
  RunLedger ledger(run_dir, info);
  std::vector<std::vector<std::string>> rows;
  std::size_t computed = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      const std::string key = "a" + std::to_string(a) + "_b" + std::to_string(b);
      if (ledger.completed(key)) {
        rows.push_back(*ledger.fields(key));
        continue;
      }
      if (computed == stop_after) return {};  // Simulated crash point.
      ++computed;
      const std::vector<std::string> fields = {
          std::to_string(a), std::to_string(b),
          util::format_fixed(a * 10.0 + b / 3.0, 4)};
      ledger.record(key, fields);
      rows.push_back(fields);
    }
  }
  AtomicFileWriter writer(run_dir / "sweep.csv");
  util::CsvWriter csv(writer.stream());
  csv.write_row({"a", "b", "value"});
  for (const auto& row : rows) csv.write_row(row);
  writer.commit();
  return slurp(run_dir / "sweep.csv");
}

TEST(KillAndResume, FinalCsvIsByteIdenticalToUninterruptedRun) {
  const fs::path uninterrupted = fresh_dir("resume_reference");
  const std::string reference =
      run_mini_sweep(uninterrupted, /*stop_after=*/100);
  ASSERT_FALSE(reference.empty());

  const fs::path crashed = fresh_dir("resume_crashed");
  // Abandon mid-ledger after 5 of 12 cells...
  EXPECT_EQ(run_mini_sweep(crashed, /*stop_after=*/5), "");
  // ...with the last append torn, as a SIGKILL mid-write(2) would leave it.
  {
    // locpriv-lint: allow(raw-write) torn tail planted on purpose.
    std::ofstream out(crashed / "ledger.jsonl",
                      std::ios::binary | std::ios::app);
    out << "{\"cell\":\"a1_b2\",\"fie";
  }
  EXPECT_FALSE(fs::exists(crashed / "sweep.csv"));

  const std::string resumed = run_mini_sweep(crashed, /*stop_after=*/100);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(slurp(crashed / "sweep.csv"), slurp(uninterrupted / "sweep.csv"));
}

// ---- stage watchdog ----------------------------------------------------

TEST(Watchdog, NoDeadlinesNeverExpires) {
  StageOptions options;
  options.name = "quiet";
  options.heartbeat = std::chrono::milliseconds(0);
  StageWatchdog watchdog(options);
  watchdog.set_total(10);
  watchdog.add_progress(3);
  EXPECT_EQ(watchdog.progress(), 3u);
  EXPECT_FALSE(watchdog.expired());
  EXPECT_NO_THROW(watchdog.checkpoint());
}

TEST(Watchdog, HardDeadlineThrowsAtCheckpoint) {
  StageOptions options;
  options.name = "doomed";
  options.heartbeat = std::chrono::milliseconds(0);
  options.hard_deadline = std::chrono::milliseconds(10);
  StageWatchdog watchdog(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(watchdog.expired());
  try {
    watchdog.checkpoint();
    FAIL() << "checkpoint should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadline);
    EXPECT_EQ(error.exit_code(), 5);
    EXPECT_NE(std::string(error.what()).find("doomed"), std::string::npos);
  }
}

TEST(Watchdog, DeadlinePropagatesThroughParallelFor) {
  StageOptions options;
  options.name = "sweep";
  options.heartbeat = std::chrono::milliseconds(0);
  options.hard_deadline = std::chrono::milliseconds(5);
  StageWatchdog watchdog(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Every worker hits the checkpoint; parallel_for joins them all and
  // rethrows the first Error with its code (and exit code) intact.
  try {
    util::parallel_for(64, [&](std::size_t) { watchdog.checkpoint(); });
    FAIL() << "parallel_for should have rethrown the deadline error";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadline);
  }
}

TEST(Watchdog, HeartbeatThreadStartsAndStopsCleanly) {
  StageOptions options;
  options.name = "chatty";
  options.heartbeat = std::chrono::milliseconds(5);
  options.soft_deadline = std::chrono::milliseconds(10);
  StageWatchdog watchdog(options);
  watchdog.set_total(100);
  for (int i = 0; i < 10; ++i) {
    watchdog.add_progress(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  EXPECT_FALSE(watchdog.expired());  // Soft deadline only warns.
}

// ---- error taxonomy ----------------------------------------------------

TEST(ErrorTaxonomy, CodesMapToDistinctExitCodes) {
  EXPECT_EQ(exit_code(ErrorCode::kInternal), 1);
  EXPECT_EQ(exit_code(ErrorCode::kUsage), 2);
  EXPECT_EQ(exit_code(ErrorCode::kQuarantined), 3);
  EXPECT_EQ(exit_code(ErrorCode::kIo), 4);
  EXPECT_EQ(exit_code(ErrorCode::kDeadline), 5);
  EXPECT_EQ(exit_code(ErrorCode::kResume), 6);
  EXPECT_EQ(exit_code(ErrorCode::kInterrupted), 7);
  EXPECT_EQ(exit_code(ErrorCode::kLedgerCorrupt), 8);
  EXPECT_EQ(error_code_name(ErrorCode::kInterrupted), "interrupted");
  EXPECT_EQ(error_code_name(ErrorCode::kLedgerCorrupt), "ledger_corrupt");
}

TEST(ErrorTaxonomy, ContextChainRendersOutermostFirst) {
  Error error(ErrorCode::kIo, "cannot rename temp file to out.csv");
  error.add_context("sweep cell i0.50_t60");
  error.add_context("writing artifacts");
  EXPECT_EQ(std::string(error.what()),
            "io_error: writing artifacts: sweep cell i0.50_t60: "
            "cannot rename temp file to out.csv");
  EXPECT_EQ(error.context().size(), 2u);
  EXPECT_EQ(error.message(), "cannot rename temp file to out.csv");
}

TEST(ErrorTaxonomy, ParseRunOptionsValidates) {
  const char* good[] = {"bench", "--resume", "/tmp/run", "--hard-deadline", "60"};
  const RunOptions options = parse_run_options(5, good, "stage");
  EXPECT_TRUE(options.active());
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.run_dir, fs::path("/tmp/run"));
  EXPECT_EQ(options.stage.hard_deadline, std::chrono::seconds(60));
  EXPECT_EQ(options.stage.heartbeat, std::chrono::seconds(30));

  const char* unknown[] = {"bench", "--frobnicate"};
  try {
    parse_run_options(2, unknown, "stage");
    FAIL() << "unknown flag should have thrown";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUsage);
  }

  const char* clash[] = {"bench", "--run-dir", "a", "--resume", "b"};
  EXPECT_THROW(parse_run_options(5, clash, "stage"), Error);
}

TEST(ErrorTaxonomy, ParseRunOptionsCoversSupervisorFlags) {
  const char* good[] = {"bench",        "--run-dir",      "/tmp/run",
                        "--isolate",    "--workers",      "4",
                        "--cell-rlimit-mb", "512",        "--cell-deadline",
                        "2.5",          "--cell-retries", "5",
                        "--cell-backoff-ms", "250"};
  const RunOptions options = parse_run_options(14, good, "stage");
  EXPECT_TRUE(options.supervisor.isolate);
  EXPECT_EQ(options.supervisor.workers, 4u);
  EXPECT_EQ(options.supervisor.cell_rlimit_mb, 512u);
  EXPECT_EQ(options.supervisor.cell_deadline, std::chrono::milliseconds(2500));
  EXPECT_EQ(options.supervisor.max_attempts, 5);
  EXPECT_EQ(options.supervisor.backoff_base, std::chrono::milliseconds(250));
  EXPECT_EQ(options.mode_string(), "isolate-w4");
  EXPECT_EQ(RunOptions{}.mode_string(), "inproc-w1");

  const char* zero_workers[] = {"bench", "--workers", "0"};
  EXPECT_THROW(parse_run_options(3, zero_workers, "stage"), Error);
  const char* zero_retries[] = {"bench", "--cell-retries", "0"};
  EXPECT_THROW(parse_run_options(3, zero_retries, "stage"), Error);
  const char* negative_limit[] = {"bench", "--cell-rlimit-mb", "-1"};
  EXPECT_THROW(parse_run_options(3, negative_limit, "stage"), Error);
}

}  // namespace
}  // namespace locpriv::harness
