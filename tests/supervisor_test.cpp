// Supervisor tests: deterministic backoff, process fault plans, the dynamic
// work-stealing loop, and the in-process retry/quarantine/shutdown state
// machine (the shutdown tests deliver real signals inside an
// InterruptScope). The chaos half (suite names starting with
// SupervisorIsolate) forks real children and proves crashes, busy-hangs,
// and allocation bombs are contained per cell; those suites also run under
// the `chaos` ctest label with AddressSanitizer in CI.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/error.hpp"
#include "core/harness/interrupt.hpp"
#include "core/harness/run_ledger.hpp"
#include "core/harness/supervisor.hpp"
#include "mobility/synthesis.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "sim/faults/process_plan.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

// RLIMIT_AS assertions are meaningless under AddressSanitizer: its shadow
// memory mappings blow any address-space cap before the cell allocates a
// byte, so the alloc-bomb test skips itself there.
#if defined(__SANITIZE_ADDRESS__)
#define LOCPRIV_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOCPRIV_UNDER_ASAN 1
#endif
#endif
#ifndef LOCPRIV_UNDER_ASAN
#define LOCPRIV_UNDER_ASAN 0
#endif

namespace locpriv::harness {
namespace {

namespace fs = std::filesystem;
using sim::ProcessFaultKind;
using sim::ProcessFaultPlan;

fs::path fresh_dir(const std::string& name) {
  // Per-pid: the chaos_supervisor aggregate runs these tests in a second
  // process concurrently with the ctest-discovered ones under `ctest -j`.
  const fs::path dir =
      fs::temp_directory_path() /
      ("locpriv_supervisor_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> make_cells(std::size_t count) {
  std::vector<std::string> cells;
  for (std::size_t i = 0; i < count; ++i)
    cells.push_back("cell_" + std::to_string(i));
  return cells;
}

/// The cells whose latest ledger state is "quarantined", in sweep order.
std::vector<std::string> quarantined(const RunLedger& ledger,
                                     const std::vector<std::string>& cells) {
  std::vector<std::string> keys;
  for (const std::string& cell : cells)
    if (ledger.quarantine_details(cell) != nullptr) keys.push_back(cell);
  return keys;
}

/// The deterministic result every well-behaved test cell returns, so two
/// runs (isolated vs in-process, interrupted vs straight-through) can be
/// compared field for field.
std::vector<std::string> expected_fields(std::size_t index,
                                         const std::string& key) {
  return {key, std::to_string(index), std::to_string(index * 7)};
}

RunInfo test_info(const SupervisorOptions& options) {
  RunInfo info{"supervisor_test", 7, "unit"};
  info.mode = (options.isolate ? "isolate-w" : "inproc-w") +
              std::to_string(options.workers);
  return info;
}

/// Fast-failure knobs shared by most tests: no real backoff waits, no
/// stage-length grace periods.
SupervisorOptions quick_options(bool isolate, unsigned workers) {
  SupervisorOptions options;
  options.isolate = isolate;
  options.workers = workers;
  options.backoff_base = std::chrono::milliseconds(1);
  options.term_grace = std::chrono::milliseconds(100);
  return options;
}

// ---- deterministic backoff ---------------------------------------------

TEST(BackoffDelay, ExponentialWithDeterministicBoundedJitter) {
  const std::chrono::milliseconds base(100);
  const std::uint64_t seed = 42;

  // Attempt 1 is the first try, not a retry: no delay.
  EXPECT_EQ(backoff_delay(base, seed, "cell", 1).count(), 0);

  for (int attempt = 2; attempt <= 6; ++attempt) {
    const auto delay = backoff_delay(base, seed, "cell", attempt);
    const std::int64_t floor = 100LL << (attempt - 2);
    EXPECT_GE(delay.count(), floor) << "attempt " << attempt;
    EXPECT_LT(delay.count(), floor + 100) << "attempt " << attempt;
    // Pure arithmetic: the same inputs always schedule the same delay.
    EXPECT_EQ(delay, backoff_delay(base, seed, "cell", attempt));
  }

  // Jitter depends on the seed and the cell, so concurrent retries of
  // different cells (or reruns under a different seed) do not stampede.
  EXPECT_NE(backoff_delay(base, seed, "cell", 2),
            backoff_delay(base, seed + 1, "cell", 2));
  EXPECT_NE(backoff_delay(base, seed, "cell_a", 2),
            backoff_delay(base, seed, "cell_b", 2));

  // Disabling the base disables the wait entirely.
  EXPECT_EQ(
      backoff_delay(std::chrono::milliseconds(0), seed, "cell", 5).count(), 0);
}

// ---- process fault plans -----------------------------------------------

TEST(ProcessFaultPlanSpec, ParsesKindsAndAttemptWindows) {
  const ProcessFaultPlan plan =
      ProcessFaultPlan::parse("crash@a,hang:2@b,alloc@c");
  EXPECT_EQ(plan.faults().size(), 3u);

  ASSERT_NE(plan.fault_for("a", 1), nullptr);
  EXPECT_EQ(plan.fault_for("a", 1)->kind, ProcessFaultKind::kCrash);
  // No :attempts suffix means the fault is permanent.
  EXPECT_NE(plan.fault_for("a", 1000), nullptr);

  // hang:2 sabotages attempts 1 and 2, then the cell recovers.
  EXPECT_NE(plan.fault_for("b", 1), nullptr);
  EXPECT_NE(plan.fault_for("b", 2), nullptr);
  EXPECT_EQ(plan.fault_for("b", 3), nullptr);

  ASSERT_NE(plan.fault_for("c", 1), nullptr);
  EXPECT_EQ(plan.fault_for("c", 1)->kind, ProcessFaultKind::kAllocBomb);

  EXPECT_EQ(plan.fault_for("unlisted", 1), nullptr);
  EXPECT_TRUE(ProcessFaultPlan::parse("").empty());
  // trigger() on a clean (cell, attempt) is a no-op, not a fault.
  plan.trigger("b", 3);
  plan.trigger("unlisted", 1);
}

TEST(ProcessFaultPlanSpec, RejectsMalformedSpecs) {
  // A spec is command-line input: each refusal is a usage error (exit 2).
  for (const char* spec : {"crash", "crash@", "explode@cell", "hang:x@cell",
                           "hang:0@cell", "hang:2x@cell", "bogus", "crash:0@shard0"}) {
    try {
      ProcessFaultPlan::parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kUsage) << spec;
    }
  }
}

TEST(ProcessFaultPlanSpec, RequireTargetsRefusesACellTheRunDoesNotHave) {
  const ProcessFaultPlan plan = ProcessFaultPlan::parse("crash@shard0,hang@shard9");
  try {
    plan.require_targets({"shard0", "shard1"}, "--fault-shards");
    ADD_FAILURE() << "a plan naming shard9 was accepted for two shards";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUsage);
    EXPECT_NE(error.message().find("--fault-shards"), std::string::npos);
    EXPECT_NE(error.message().find("shard9"), std::string::npos);
  }
  plan.require_targets({"shard9", "shard0"}, "--fault-shards");
  ProcessFaultPlan().require_targets({}, "--fault-cells");
}

TEST(ProcessFaultPlanSpec, AllocBombCapRaisesBadAllocWithoutRlimit) {
  // The cap substitutes for RLIMIT_AS so the bomb is testable in-process:
  // it frees what it allocated and raises the same bad_alloc.
  ProcessFaultPlan plan;
  plan.add("bomb", {ProcessFaultKind::kAllocBomb, 1});
  EXPECT_THROW(plan.trigger("bomb", 1, std::size_t{32} << 20),
               std::bad_alloc);
}

// ---- in-process supervision --------------------------------------------

TEST(SupervisorInProcess, ComputesJournalsAndSkipsCompletedCells) {
  const SupervisorOptions options = quick_options(false, 3);
  const fs::path dir = fresh_dir("inproc_basic");
  const std::vector<std::string> cells = make_cells(12);
  RunLedger ledger(dir, test_info(options));
  // Two cells are already journaled, as after an interrupted earlier run.
  ledger.record("cell_3", expected_fields(3, "cell_3"));
  ledger.record("cell_8", expected_fields(8, "cell_8"));

  std::atomic<int> calls{0};
  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      cells,
      [&](std::size_t index, const std::string& key, int) {
        calls.fetch_add(1);
        return expected_fields(index, key);
      },
      ledger);

  EXPECT_EQ(computed, 10u);
  EXPECT_EQ(calls.load(), 10);  // Resumed cells are never recomputed.
  EXPECT_TRUE(quarantined(ledger, cells).empty());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(ledger.fields(cells[i]), nullptr) << cells[i];
    EXPECT_EQ(*ledger.fields(cells[i]), expected_fields(i, cells[i]));
  }
}

TEST(SupervisorInProcess, TransientFailureRetriesThenSucceeds) {
  const SupervisorOptions options = quick_options(false, 2);
  const fs::path dir = fresh_dir("inproc_retry");
  RunLedger ledger(dir, test_info(options));

  std::atomic<int> flaky_attempts{0};
  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      make_cells(4),
      [&](std::size_t index, const std::string& key, int attempt) {
        if (key == "cell_2") {
          flaky_attempts.fetch_add(1);
          if (attempt < 3) throw std::runtime_error("transient wobble");
        }
        return expected_fields(index, key);
      },
      ledger);

  EXPECT_EQ(computed, 4u);
  EXPECT_TRUE(quarantined(ledger, make_cells(4)).empty());
  EXPECT_EQ(flaky_attempts.load(), 3);
  EXPECT_TRUE(ledger.completed("cell_2"));
  EXPECT_EQ(ledger.quarantine_details("cell_2"), nullptr);
}

TEST(SupervisorInProcess, ExhaustedRetriesQuarantineWithPerAttemptDetails) {
  SupervisorOptions options = quick_options(false, 2);
  options.max_attempts = 3;
  const fs::path dir = fresh_dir("inproc_quarantine");
  RunLedger ledger(dir, test_info(options));

  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      make_cells(5),
      [&](std::size_t index, const std::string& key, int) {
        if (key == "cell_1") throw std::runtime_error("poisoned input row");
        return expected_fields(index, key);
      },
      ledger);

  EXPECT_EQ(computed, 4u);
  ASSERT_EQ(quarantined(ledger, make_cells(5)), std::vector<std::string>{"cell_1"});
  const std::vector<std::string>* details = ledger.quarantine_details("cell_1");
  ASSERT_NE(details, nullptr);
  ASSERT_EQ(details->size(), 3u);  // One structured line per attempt.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const std::string& line = (*details)[static_cast<std::size_t>(attempt - 1)];
    EXPECT_NE(line.find("attempt " + std::to_string(attempt)),
              std::string::npos);
    EXPECT_NE(line.find("poisoned input row"), std::string::npos);
  }
  // The healthy cells landed despite the quarantine.
  for (const char* key : {"cell_0", "cell_2", "cell_3", "cell_4"})
    EXPECT_TRUE(ledger.completed(key)) << key;
}

TEST(SupervisorInProcess, HarnessErrorsAbortTheRunWithoutRetry) {
  const SupervisorOptions options = quick_options(false, 1);
  const fs::path dir = fresh_dir("inproc_harness_error");
  RunLedger ledger(dir, test_info(options));

  std::atomic<int> calls{0};
  Supervisor supervisor(options);
  try {
    supervisor.run(
        make_cells(3),
        [&](std::size_t, const std::string&, int) -> std::vector<std::string> {
          calls.fetch_add(1);
          throw Error(ErrorCode::kIo, "artifact disk vanished");
        },
        ledger);
    FAIL() << "a harness-level Error must propagate";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIo);
  }
  // kIo is a run failure, not a cell failure: exactly one attempt, no
  // retries, nothing quarantined.
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(quarantined(ledger, make_cells(3)).empty());
}

TEST(SupervisorInProcess, ShutdownRequestLeavesAResumableLedger) {
  const SupervisorOptions options = quick_options(false, 2);
  const fs::path dir = fresh_dir("inproc_shutdown");
  const std::vector<std::string> cells = make_cells(10);
  const RunInfo info = test_info(options);

  std::size_t completed_at_interrupt = 0;
  {
    RunLedger ledger(dir, info);
    std::atomic<int> calls{0};
    Supervisor supervisor(options);
    const InterruptScope interrupts;
    try {
      supervisor.run(
          cells,
          [&](std::size_t index, const std::string& key, int) {
            // The fourth computed cell delivers the operator's ^C, a real
            // SIGINT on this worker thread; cells dispatched afterwards are
            // skipped, not aborted mid-write.
            if (calls.fetch_add(1) + 1 == 4) ::raise(SIGINT);
            return expected_fields(index, key);
          },
          ledger);
      FAIL() << "an interrupted run must throw";
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kInterrupted);
      EXPECT_EQ(exit_code(error.code()), 7);
    }
    completed_at_interrupt = ledger.completed_count();
    EXPECT_GE(completed_at_interrupt, 4u);
    EXPECT_LT(completed_at_interrupt, cells.size());
  }

  // A fresh run over the same directory finishes the job, and every cell —
  // whether journaled before or after the interrupt — carries the exact
  // fields an uninterrupted run would have produced.
  RunLedger resumed(dir, info);
  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      cells,
      [&](std::size_t index, const std::string& key, int) {
        return expected_fields(index, key);
      },
      resumed);
  EXPECT_EQ(computed, cells.size() - completed_at_interrupt);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(resumed.fields(cells[i]), nullptr) << cells[i];
    EXPECT_EQ(*resumed.fields(cells[i]), expected_fields(i, cells[i]));
  }
}

// ---- isolated (forked) supervision: the chaos suite --------------------

TEST(SupervisorIsolate, CrashingCellIsQuarantinedWhileOthersComplete) {
  SupervisorOptions options = quick_options(true, 2);
  options.max_attempts = 2;
  const fs::path dir = fresh_dir("iso_crash");
  const std::vector<std::string> cells = make_cells(6);
  RunLedger ledger(dir, test_info(options));

  // cell_1 segfaults on every attempt; cell_4 segfaults once and recovers —
  // the retry loop must distinguish permanent from transient crashes.
  ProcessFaultPlan plan;
  plan.add("cell_1", {ProcessFaultKind::kCrash, std::numeric_limits<int>::max()});
  plan.add("cell_4", {ProcessFaultKind::kCrash, 1});

  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      cells,
      [&](std::size_t index, const std::string& key, int attempt) {
        plan.trigger(key, attempt);
        return expected_fields(index, key);
      },
      ledger);

  EXPECT_EQ(quarantined(ledger, cells), std::vector<std::string>{"cell_1"});
  EXPECT_EQ(computed, 5u);
  const std::vector<std::string>* details = ledger.quarantine_details("cell_1");
  ASSERT_NE(details, nullptr);
  ASSERT_EQ(details->size(), 2u);
  for (const std::string& line : *details)
    EXPECT_NE(line.find("SIGSEGV"), std::string::npos) << line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 1) continue;
    ASSERT_NE(ledger.fields(cells[i]), nullptr) << cells[i];
    EXPECT_EQ(*ledger.fields(cells[i]), expected_fields(i, cells[i]));
  }
}

TEST(SupervisorIsolate, BusyHangIsKilledByDeadlineEscalation) {
  SupervisorOptions options = quick_options(true, 2);
  options.max_attempts = 1;
  options.cell_deadline = std::chrono::milliseconds(300);
  options.term_grace = std::chrono::milliseconds(100);
  const fs::path dir = fresh_dir("iso_hang");
  RunLedger ledger(dir, test_info(options));

  // The hang fault ignores SIGTERM and spins, so only the supervisor's
  // SIGKILL escalation can reclaim the worker slot.
  ProcessFaultPlan plan;
  plan.add("cell_0", {ProcessFaultKind::kHang, std::numeric_limits<int>::max()});

  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      make_cells(3),
      [&](std::size_t index, const std::string& key, int attempt) {
        plan.trigger(key, attempt);
        return expected_fields(index, key);
      },
      ledger);

  EXPECT_EQ(quarantined(ledger, make_cells(3)), std::vector<std::string>{"cell_0"});
  EXPECT_EQ(computed, 2u);
  const std::vector<std::string>* details = ledger.quarantine_details("cell_0");
  ASSERT_NE(details, nullptr);
  ASSERT_EQ(details->size(), 1u);
  EXPECT_NE((*details)[0].find("deadline 300ms exceeded"), std::string::npos);
  EXPECT_NE((*details)[0].find("escalated to SIGKILL"), std::string::npos);
}

TEST(SupervisorIsolate, AllocBombIsContainedByAddressSpaceRlimit) {
  if (LOCPRIV_UNDER_ASAN)
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
  SupervisorOptions options = quick_options(true, 2);
  options.max_attempts = 2;
  options.cell_rlimit_mb = 256;
  const fs::path dir = fresh_dir("iso_alloc");
  RunLedger ledger(dir, test_info(options));

  ProcessFaultPlan plan;
  plan.add("cell_2", {ProcessFaultKind::kAllocBomb, std::numeric_limits<int>::max()});

  Supervisor supervisor(options);
  const std::size_t computed = supervisor.run(
      make_cells(4),
      [&](std::size_t index, const std::string& key, int attempt) {
        plan.trigger(key, attempt);
        return expected_fields(index, key);
      },
      ledger);

  // The rlimit stops the bomb inside the child (bad_alloc -> exit 1) while
  // the siblings — and the parent — stay untouched.
  EXPECT_EQ(quarantined(ledger, make_cells(4)), std::vector<std::string>{"cell_2"});
  EXPECT_EQ(computed, 3u);
  const std::vector<std::string>* details = ledger.quarantine_details("cell_2");
  ASSERT_NE(details, nullptr);
  EXPECT_NE((*details)[0].find("bad_alloc"), std::string::npos)
      << (*details)[0];
}

TEST(SupervisorIsolate, StderrTailLandsInTheQuarantineRecord) {
  SupervisorOptions options = quick_options(true, 1);
  options.max_attempts = 1;
  const fs::path dir = fresh_dir("iso_stderr");
  RunLedger ledger(dir, test_info(options));

  Supervisor supervisor(options);
  supervisor.run(
      {"cell_0"},
      [&](std::size_t, const std::string&, int) -> std::vector<std::string> {
        throw std::runtime_error("wombat overflow in decoder");
      },
      ledger);

  ASSERT_EQ(quarantined(ledger, {"cell_0"}), std::vector<std::string>{"cell_0"});
  const std::vector<std::string>* details = ledger.quarantine_details("cell_0");
  ASSERT_NE(details, nullptr);
  // The child exits 1 (kInternal) and its what() text, captured from the
  // stderr pipe, is flattened into the structured record.
  EXPECT_NE((*details)[0].find("exit 1"), std::string::npos) << (*details)[0];
  EXPECT_NE((*details)[0].find("wombat overflow in decoder"),
            std::string::npos)
      << (*details)[0];
}

TEST(SupervisorIsolate, FieldsMatchAnInProcessRunDespiteATransientFault) {
  const std::vector<std::string> cells = make_cells(8);
  auto cell_fn = [](std::size_t index, const std::string& key, int attempt)
      -> std::vector<std::string> {
    // One transient failure under isolation only exercises the retry path;
    // the recorded fields must still be what a clean run produces.
    if (key == "cell_5" && attempt == 1)
      throw std::runtime_error("first-attempt wobble");
    return expected_fields(index, key);
  };

  const SupervisorOptions iso_options = quick_options(true, 3);
  const fs::path iso_dir = fresh_dir("iso_identity");
  RunLedger iso_ledger(iso_dir, test_info(iso_options));
  Supervisor(iso_options).run(cells, cell_fn, iso_ledger);

  const SupervisorOptions inproc_options = quick_options(false, 1);
  const fs::path inproc_dir = fresh_dir("inproc_identity");
  RunLedger inproc_ledger(inproc_dir, test_info(inproc_options));
  Supervisor(inproc_options).run(cells, cell_fn, inproc_ledger);

  for (const std::string& cell : cells) {
    ASSERT_NE(iso_ledger.fields(cell), nullptr) << cell;
    ASSERT_NE(inproc_ledger.fields(cell), nullptr) << cell;
    EXPECT_EQ(*iso_ledger.fields(cell), *inproc_ledger.fields(cell)) << cell;
  }
}

TEST(SupervisorIsolate, ShutdownRequestTerminatesChildrenAndStaysResumable) {
  const SupervisorOptions options = quick_options(true, 2);
  const fs::path dir = fresh_dir("iso_shutdown");
  const std::vector<std::string> cells = make_cells(8);
  const RunInfo info = test_info(options);

  auto slow_fn = [](std::size_t index, const std::string& key, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return expected_fields(index, key);
  };
  // cell_0 ignores SIGTERM and spins, and no per-cell deadline is set: the
  // signal alone must stop it, through the grace and SIGKILL.
  ProcessFaultPlan plan;
  plan.add("cell_0", {ProcessFaultKind::kHang, std::numeric_limits<int>::max()});
  auto hanging_fn = [&](std::size_t index, const std::string& key, int attempt) {
    plan.trigger(key, attempt);
    return slow_fn(index, key, attempt);
  };

  {
    RunLedger ledger(dir, info);
    Supervisor supervisor(options);
    // The dispatch loop polls the interrupt flag; a sibling thread sends
    // the process a real SIGTERM mid-run.
    const InterruptScope interrupts;
    std::thread interrupter([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      ::raise(SIGTERM);  // Handled on this thread; the flag is shared.
    });
    try {
      supervisor.run(cells, hanging_fn, ledger);
      interrupter.join();
      FAIL() << "an interrupted isolated run must throw";
    } catch (const Error& error) {
      interrupter.join();
      EXPECT_EQ(error.code(), ErrorCode::kInterrupted);
    }
    // In-flight children were terminated and reaped: some cells computed,
    // some not, none half-written.
    EXPECT_LT(ledger.completed_count(), cells.size());
    EXPECT_TRUE(quarantined(ledger, cells).empty());
    EXPECT_FALSE(ledger.completed("cell_0"));  // Resumable, not quarantined.
  }

  RunLedger resumed(dir, info);
  Supervisor(options).run(cells, slow_fn, resumed);
  EXPECT_TRUE(quarantined(resumed, cells).empty());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(resumed.fields(cells[i]), nullptr) << cells[i];
    EXPECT_EQ(*resumed.fields(cells[i]), expected_fields(i, cells[i]));
  }
}

// Fork-safety regression for the locprivd respawn path. Every shard spawn —
// including a *respawn* after a crash, which races against whatever the
// service process is logging at that moment — must hold the logging sink
// mutex across fork(2) (LogForkGuard): a child forked while another thread
// was mid-emission would inherit the mutex locked and deadlock. The test
// hammers the logger from a background thread while a crash-fault plan
// forces repeated respawns; if any fork ever caught the sink locked, the
// shard would hang instead of recovering and the run would blow its
// ctest-level timeout.
TEST(SupervisorIsolate, ShardRespawnUnderLoggingHammerDoesNotDeadlock) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 2;
  dataset.synthesis.days = 1;
  const core::PrivacyAnalyzer analyzer = core::PrivacyAnalyzer::from_synthetic(
      core::experiment_analyzer_config(), dataset);

  // Hammer the sink from another thread, but into /dev/null: the point is
  // mutex contention at fork time, not log spam in the test output.
  // locpriv-lint: allow(raw-write) /dev/null sink, not an artifact.
  std::FILE* devnull = std::fopen("/dev/null", "w");
  ASSERT_NE(devnull, nullptr);
  std::FILE* previous_sink = util::set_log_sink_for_testing(devnull);
  const util::LogLevel previous_level = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  std::atomic<bool> stop{false};
  std::thread hammer([&stop] {
    while (!stop.load(std::memory_order_relaxed))
      LOCPRIV_LOG(kInfo, "hammer") << "logging across the fork window";
  });

  {
    service::ServiceOptions options;
    options.shards = 2;
    options.interval_s = 60;
    options.seed = 11;
    options.scale = "2u_t60";
    options.heartbeat = std::chrono::milliseconds(50);
    options.snapshot_interval = std::chrono::milliseconds(100);
    options.backoff_base = std::chrono::milliseconds(5);
    // Three sabotaged incarnations of each shard: six respawn forks, all
    // taken while the hammer thread is pounding the sink mutex.
    options.max_respawns = 5;
    options.fault_plan = ProcessFaultPlan::parse("crash:3@shard0,crash:3@shard1");
    options.fault_after_batches = 2;

    service::LocprivService daemon(
        options, analyzer, fresh_dir("respawn_logging"), false);
    service::TrafficOptions traffic;
    traffic.batch_size = 16;
    traffic.pace = std::chrono::milliseconds(1);
    service::drive_traffic(daemon, analyzer, traffic);
    const auto rows = daemon.collect_reports();
    daemon.drain();

    EXPECT_GE(daemon.stats().respawns, 6);
    EXPECT_TRUE(daemon.quarantined_shards().empty());
    EXPECT_EQ(rows.size(), analyzer.user_count());
    EXPECT_TRUE(service::parity_mismatches(analyzer, options.interval_s,
                                           traffic, rows)
                    .empty());
  }

  stop.store(true, std::memory_order_relaxed);
  hammer.join();
  util::set_log_level(previous_level);
  util::set_log_sink_for_testing(previous_sink);
  std::fclose(devnull);
}

}  // namespace
}  // namespace locpriv::harness
