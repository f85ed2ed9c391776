// Run harness: atomic artifact writer (commit, abandon, racing publishers),
// run ledger (journal replay, torn tails, identity mismatch), the sweep
// runner (the same rows in every mode, quarantine without a run dir, the
// fresh-run-dir refusal, a single-threaded parent at every fork),
// kill-and-resume byte identity, and the error taxonomy's exit-code mapping
// and run-flag validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "core/harness/run_ledger.hpp"
#include "core/harness/sweep.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
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

// ---- the sweep runner --------------------------------------------------

/// A miniature deterministic sweep over 12 cells standing in for audit-all
/// and bench_fault_degradation.
const RunInfo kSweepInfo{"mini_sweep", 7, "12cells"};

std::vector<std::string> sweep_cells() {
  std::vector<std::string> cells;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 3; ++b)
      cells.push_back("a" + std::to_string(a) + "_b" + std::to_string(b));
  return cells;
}

std::vector<std::string> sweep_cell(std::size_t index, const std::string& key,
                                    int /*attempt*/) {
  return {key, std::to_string(index),
          util::format_fixed(static_cast<double>(index) / 3.0, 4)};
}

/// No real backoff waits.
RunOptions sweep_options(fs::path run_dir, unsigned workers = 1, bool isolate = false) {
  RunOptions options;
  options.run_dir = std::move(run_dir);
  options.supervisor.workers = workers;
  options.supervisor.isolate = isolate;
  options.supervisor.backoff_base = std::chrono::milliseconds(1);
  return options;
}

/// The rows every mode must return: each cell's fields, in cell order.
std::vector<std::vector<std::string>> reference_rows() {
  std::vector<std::vector<std::string>> rows;
  const std::vector<std::string> cells = sweep_cells();
  for (std::size_t i = 0; i < cells.size(); ++i) rows.push_back(sweep_cell(i, cells[i], 1));
  return rows;
}

/// The execution mode pinned in `run_dir`'s ledger header.
std::string ledger_mode(const fs::path& run_dir) {
  return replay_ledger(slurp(run_dir / "ledger.jsonl")).header.mode;
}

/// Runs the sweep into `run_dir` until the cell function ends it with a
/// harness Error after five cells, then appends a torn record, as a SIGKILL
/// mid-write(2) would leave it.
void crash_after_five_cells(const fs::path& run_dir) {
  std::size_t calls = 0;  // One worker: the cells run in order on this thread.
  const CellFn crashing = [&](std::size_t index, const std::string& key, int attempt) {
    if (calls++ == 5) throw Error(ErrorCode::kIo, "simulated crash");
    return sweep_cell(index, key, attempt);
  };
  EXPECT_THROW(run_sweep(sweep_options(run_dir), kSweepInfo, sweep_cells(), crashing), Error);
  // locpriv-lint: allow(raw-write) torn tail planted on purpose.
  std::ofstream out(run_dir / "ledger.jsonl", std::ios::binary | std::ios::app);
  out << "{\"cell\":\"a1_b2\",\"fie";
}

RunOptions resume_options(const fs::path& run_dir) {
  RunOptions options = sweep_options(run_dir);
  options.resume = true;
  return options;
}

TEST(RunSweep, SameRowsWithAndWithoutARunDir) {
  const SweepResult in_memory = run_sweep(sweep_options({}), kSweepInfo, sweep_cells(), sweep_cell);
  EXPECT_EQ(in_memory.rows, reference_rows());
  EXPECT_TRUE(in_memory.quarantined.empty());

  const fs::path dir = fresh_dir("sweep_fresh");
  EXPECT_EQ(run_sweep(sweep_options(dir), kSweepInfo, sweep_cells(), sweep_cell).rows,
            reference_rows());
  EXPECT_EQ(ledger_mode(dir), "inproc-w1");
}

TEST(RunSweep, ResumingATornLedgerGivesTheSameRows) {
  const fs::path dir = fresh_dir("sweep_torn");
  crash_after_five_cells(dir);
  std::size_t computed = 0;
  const SweepResult resumed =
      run_sweep(resume_options(dir), kSweepInfo, sweep_cells(),
                [&](std::size_t index, const std::string& key, int attempt) {
                  ++computed;
                  return sweep_cell(index, key, attempt);
                });
  EXPECT_EQ(resumed.rows, reference_rows());
  EXPECT_EQ(computed, 7u);  // The five journaled cells were replayed.
}

TEST(RunSweep, InProcessWorkersGiveTheSameRows) {
  EXPECT_EQ(run_sweep(sweep_options({}, 3), kSweepInfo, sweep_cells(), sweep_cell).rows,
            reference_rows());
  const fs::path dir = fresh_dir("sweep_inproc_w3");
  EXPECT_EQ(run_sweep(sweep_options(dir, 3), kSweepInfo, sweep_cells(), sweep_cell).rows,
            reference_rows());
  EXPECT_EQ(ledger_mode(dir), "inproc-w3");
}

TEST(RunSweep, IsolatedWorkersGiveTheSameRows) {
  const fs::path dir = fresh_dir("sweep_isolate_w2");
  EXPECT_EQ(run_sweep(sweep_options(dir, 2, true), kSweepInfo, sweep_cells(), sweep_cell).rows,
            reference_rows());
  EXPECT_EQ(ledger_mode(dir), "isolate-w2");
}

/// The "Threads:" line of /proc/<pid>/status, e.g. "1".
std::string thread_count(pid_t pid) {
  std::istringstream status(slurp("/proc/" + std::to_string(pid) + "/status"));
  for (std::string line; std::getline(status, line);)
    if (util::starts_with(line, "Threads:")) return std::string(util::trim(line.substr(8)));
  return "no Threads: line";
}

// Under the default options an isolated cell is forked by a parent running
// no thread of the harness's own, so a child never inherits a lock some
// other thread held at fork(2): the progress line is logged by the
// dispatching thread itself. The parent's count is the test process's
// before the sweep: 1, or 2 under ThreadSanitizer, whose runtime keeps a
// background thread.
TEST(RunSweep, IsolatedCellsForkFromASingleThreadedParent) {
  const std::string before = thread_count(::getpid());
  RunOptions options;
  options.supervisor.isolate = true;
  const SweepResult result =
      run_sweep(options, kSweepInfo, {"threads"}, [](std::size_t, const std::string&, int) {
        return std::vector<std::string>{thread_count(::getppid())};
      });
  EXPECT_EQ(result.rows, (std::vector<std::vector<std::string>>{{before}}));
  EXPECT_TRUE(result.quarantined.empty());
}

TEST(RunSweep, ThrowingCellIsQuarantinedWithoutARunDir) {
  const SweepResult result = run_sweep(
      sweep_options({}), kSweepInfo, sweep_cells(),
      [](std::size_t index, const std::string& key, int attempt) {
        if (key == "a1_b1") throw std::runtime_error("boom");
        return sweep_cell(index, key, attempt);
      });
  std::vector<std::vector<std::string>> expected = reference_rows();
  expected.erase(expected.begin() + 4);
  EXPECT_EQ(result.rows, expected);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, "a1_b1");
  EXPECT_EQ(result.quarantined[0].details,
            (std::vector<std::string>{"attempt 1: exception: boom",
                                      "attempt 2: exception: boom",
                                      "attempt 3: exception: boom"}));
}

TEST(RunSweep, FreshRunDirHoldingALedgerIsRefusedBeforeAnyCell) {
  const fs::path dir = fresh_dir("sweep_refuse");
  run_sweep(sweep_options(dir), kSweepInfo, sweep_cells(), sweep_cell);
  std::size_t calls = 0;
  const CellFn counting = [&](std::size_t index, const std::string& key, int attempt) {
    ++calls;
    return sweep_cell(index, key, attempt);
  };
  try {
    run_sweep(sweep_options(dir), kSweepInfo, sweep_cells(), counting);
    FAIL() << "a fresh run dir holding a ledger should have been refused";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
  EXPECT_EQ(calls, 0u);
  // --resume continues the same directory: every cell is already journaled.
  EXPECT_EQ(run_sweep(resume_options(dir), kSweepInfo, sweep_cells(), counting).rows,
            reference_rows());
  EXPECT_EQ(calls, 0u);
}

// The same refusal, when the command line is parsed: audit-all and serve
// exit 6 on a reused --run-dir before they read a corpus.
TEST(RunSweep, ReusedRunDirIsRefusedWhenTheFlagsAreParsed) {
  const fs::path dir = fresh_dir("sweep_refuse_at_parse");
  util::Args args;
  args.declare("--run-dir", "");
  args.declare("--resume", "");
  const std::string path = dir.string();
  const std::vector<const char*> fresh = {"cmd", "--run-dir", path.c_str()};
  args.parse(static_cast<int>(fresh.size()), fresh.data(), 1);
  EXPECT_EQ(run_dir_from(args), std::make_pair(dir, false));  // No ledger yet.

  run_sweep(sweep_options(dir), kSweepInfo, sweep_cells(), sweep_cell);
  try {
    run_dir_from(args);
    FAIL() << "a fresh --run-dir holding a ledger should have been refused";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
    EXPECT_NE(error.message().find("--resume"), std::string::npos) << error.message();
    EXPECT_NE(error.message().find("--run-dir"), std::string::npos) << error.message();
  }
  util::Args resumed;
  resumed.declare("--run-dir", "");
  resumed.declare("--resume", "");
  const std::vector<const char*> resume = {"cmd", "--resume", path.c_str()};
  resumed.parse(static_cast<int>(resume.size()), resume.data(), 1);
  EXPECT_EQ(run_dir_from(resumed), std::make_pair(dir, true));
}

// ---- kill-and-resume byte identity ------------------------------------

/// Publishes `rows` as `run_dir`/sweep.csv through the atomic writer and
/// returns the published bytes.
std::string publish_csv(const fs::path& run_dir, const SweepResult& sweep) {
  AtomicFileWriter writer(run_dir / "sweep.csv");
  util::CsvWriter csv(writer.stream());
  csv.write_row({"key", "index", "value"});
  for (const auto& row : sweep.rows) csv.write_row(row);
  writer.commit();
  return slurp(run_dir / "sweep.csv");
}

TEST(KillAndResume, FinalCsvIsByteIdenticalToUninterruptedRun) {
  const fs::path uninterrupted = fresh_dir("resume_reference");
  const std::string reference = publish_csv(
      uninterrupted,
      run_sweep(sweep_options(uninterrupted), kSweepInfo, sweep_cells(), sweep_cell));

  const fs::path crashed = fresh_dir("resume_crashed");
  // Abandon the run after 5 of 12 cells, with the last append torn.
  crash_after_five_cells(crashed);
  EXPECT_FALSE(fs::exists(crashed / "sweep.csv"));

  const std::string resumed = publish_csv(
      crashed, run_sweep(resume_options(crashed), kSweepInfo, sweep_cells(), sweep_cell));
  EXPECT_EQ(resumed, reference);
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
  return run_options_from(args);
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
  const RunOptions options = parse_run_flags({"--resume", "/tmp/run", "--cell-grace", "5"});
  EXPECT_TRUE(options.active());
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.run_dir, fs::path("/tmp/run"));
  EXPECT_EQ(options.supervisor.term_grace, std::chrono::seconds(5));

  expect_usage_error({"--frobnicate"});
  expect_usage_error({"--run-dir", "a", "--resume", "b"});
  // A sweep's only time bound is a signal, a cell's is --cell-deadline: the
  // stage deadline, its heartbeat and the CPU rlimit are unknown flags.
  for (const char* flag : {"--hard-deadline", "--heartbeat", "--cell-cpu-s"})
    expect_usage_error({flag, "5"});
}

TEST(ErrorTaxonomy, ParseRunOptionsCoversSupervisorFlags) {
  // A fresh --run-dir is checked for a ledger at parse time, so it names a
  // directory this test just emptied.
  const std::string run_dir = fresh_dir("parse_supervisor_flags").string();
  const RunOptions options = parse_run_flags(
      {"--run-dir", run_dir.c_str(), "--isolate", "--workers", "4", "--cell-rlimit-mb", "512",
       "--cell-deadline", "2.5", "--cell-retries", "5", "--cell-backoff-ms", "250"});
  EXPECT_TRUE(options.supervisor.isolate);
  EXPECT_EQ(options.supervisor.workers, 4u);
  EXPECT_EQ(options.supervisor.cell_rlimit_mb, 512u);
  EXPECT_EQ(options.supervisor.cell_deadline, std::chrono::milliseconds(2500));
  EXPECT_EQ(options.supervisor.max_attempts, 5);
  EXPECT_EQ(options.supervisor.backoff_base, std::chrono::milliseconds(250));

  // 0 keeps meaning "off" for every limit and deadline.
  const RunOptions off = parse_run_flags(
      {"--cell-deadline", "0", "--cell-grace", "0", "--cell-rlimit-mb", "0",
       "--cell-backoff-ms", "0"});
  EXPECT_EQ(off.supervisor.cell_deadline.count(), 0);
  EXPECT_EQ(off.supervisor.term_grace.count(), 0);
  EXPECT_EQ(off.supervisor.cell_rlimit_mb, 0u);

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
  expect_usage_error({"--cell-retries", "1001"});
  // The backoff shift and the MiB-to-bytes conversion overflow.
  expect_usage_error({"--cell-backoff-ms", "9223372036854775807"});
  expect_usage_error({"--cell-backoff-ms", "-1"});
  expect_usage_error({"--cell-rlimit-mb", "9300000000000000"});
  const RunOptions ceiling =
      parse_run_flags({"--cell-deadline", "1000000", "--cell-grace", "1000000",
                       "--cell-backoff-ms", "1000000", "--workers", "1024",
                       "--cell-retries", "1000"});
  EXPECT_EQ(ceiling.supervisor.cell_deadline, std::chrono::seconds(kMaxFlagSeconds));
  EXPECT_EQ(ceiling.supervisor.term_grace, std::chrono::seconds(kMaxFlagSeconds));
  EXPECT_EQ(ceiling.supervisor.max_attempts, 1000);
}

}  // namespace
}  // namespace locpriv::harness
