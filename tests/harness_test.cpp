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
#include "util/args.hpp"
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
    EXPECT_NE(ledger.quarantine_details("cell_bad"), nullptr);
    EXPECT_EQ(ledger.quarantine_details("cell_ok"), nullptr);
    EXPECT_EQ(ledger.quarantine_details("cell_never_seen"), nullptr);
    EXPECT_FALSE(ledger.completed("cell_bad"));
  }
  {
    // Quarantine records are journaled: they survive reopen with their
    // structured details intact.
    RunLedger ledger(dir, kInfo);
    ASSERT_NE(ledger.quarantine_details("cell_bad"), nullptr);
    EXPECT_EQ(*ledger.quarantine_details("cell_bad"), details);
    EXPECT_EQ(ledger.quarantine_details("cell_ok"), nullptr);
    // A resumed run that retries the cell and succeeds supersedes the
    // quarantine — latest state wins, exactly like a completed record.
    ledger.record("cell_bad", {"2"});
    EXPECT_EQ(ledger.quarantine_details("cell_bad"), nullptr);
  }
  RunLedger reopened(dir, kInfo);
  EXPECT_TRUE(reopened.completed("cell_bad"));
  EXPECT_EQ(reopened.quarantine_details("cell_bad"), nullptr);
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

// Parses a bench command line through the pair audit-all and
// bench_fault_degradation use: declare_run_flags, then run_options_from.
RunOptions parse_run_flags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  util::Args args;
  declare_run_flags(args);
  args.parse(static_cast<int>(argv.size()), argv.data(), 1);
  return run_options_from(args, "stage");
}

void expect_usage_error(std::vector<const char*> argv) {
  try {
    parse_run_flags(argv);
    ADD_FAILURE() << argv.front() << " " << argv.back() << " should have been refused";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUsage) << argv.front() << " " << argv.back();
  }
}

TEST(ErrorTaxonomy, ParseRunOptionsValidates) {
  const RunOptions options = parse_run_flags({"--resume", "/tmp/run", "--hard-deadline", "60"});
  EXPECT_TRUE(options.active());
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.run_dir, fs::path("/tmp/run"));
  EXPECT_EQ(options.stage.name, "stage");
  EXPECT_EQ(options.stage.hard_deadline, std::chrono::seconds(60));
  EXPECT_EQ(options.stage.heartbeat, std::chrono::seconds(30));

  expect_usage_error({"--frobnicate"});
  expect_usage_error({"--run-dir", "a", "--resume", "b"});
}

TEST(ErrorTaxonomy, ParseRunOptionsCoversSupervisorFlags) {
  const RunOptions options = parse_run_flags(
      {"--run-dir", "/tmp/run", "--isolate", "--workers", "4", "--cell-rlimit-mb", "512",
       "--cell-deadline", "2.5", "--cell-retries", "5", "--cell-backoff-ms", "250"});
  EXPECT_TRUE(options.supervisor.isolate);
  EXPECT_EQ(options.supervisor.workers, 4u);
  EXPECT_EQ(options.supervisor.cell_rlimit_mb, 512u);
  EXPECT_EQ(options.supervisor.cell_deadline, std::chrono::milliseconds(2500));
  EXPECT_EQ(options.supervisor.max_attempts, 5);
  EXPECT_EQ(options.supervisor.backoff_base, std::chrono::milliseconds(250));
  EXPECT_EQ(options.mode_string(), "isolate-w4");
  EXPECT_EQ(RunOptions{}.mode_string(), "inproc-w1");

  // 0 keeps meaning "off" for every limit and deadline.
  const RunOptions off = parse_run_flags(
      {"--heartbeat", "0", "--hard-deadline", "0", "--cell-deadline", "0", "--cell-grace",
       "0", "--cell-rlimit-mb", "0", "--cell-cpu-s", "0", "--cell-backoff-ms", "0"});
  EXPECT_EQ(off.supervisor.cell_deadline.count(), 0);
  EXPECT_EQ(off.stage.heartbeat.count(), 0);

  expect_usage_error({"--workers", "0"});
  expect_usage_error({"--cell-retries", "0"});
  expect_usage_error({"--cell-rlimit-mb", "-1"});
}

TEST(ErrorTaxonomy, RunOptionsRefuseNumbersTheHarnessCannotRepresent) {
  // Non-finite and huge seconds would be undefined behaviour in the
  // conversion to milliseconds.
  for (const char* flag : {"--cell-deadline", "--cell-grace"})
    for (const char* value : {"nan", "inf", "-inf", "1e300", "1000001"})
      expect_usage_error({flag, value});
  // A count above UINT_MAX would wrap in the cast to unsigned (4294967297
  // workers would be 1), and every worker is a process.
  expect_usage_error({"--workers", "4294967297"});
  expect_usage_error({"--workers", "1025"});
  expect_usage_error({"--cell-cpu-s", "4294967297"});
  // The backoff shift and the seconds-to-clock conversions overflow.
  expect_usage_error({"--cell-backoff-ms", "9223372036854775807"});
  for (const char* flag : {"--heartbeat", "--soft-deadline", "--hard-deadline"}) {
    expect_usage_error({flag, "9300000000000000"});
    expect_usage_error({flag, "-1"});
  }
  const RunOptions ceiling =
      parse_run_flags({"--hard-deadline", "1000000", "--cell-deadline", "1000000",
                       "--cell-backoff-ms", "1000000", "--workers", "1024"});
  EXPECT_EQ(ceiling.stage.hard_deadline, std::chrono::seconds(kMaxFlagSeconds));
  EXPECT_EQ(ceiling.supervisor.cell_deadline, std::chrono::seconds(kMaxFlagSeconds));
}

}  // namespace
}  // namespace locpriv::harness
