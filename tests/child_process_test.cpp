// ChildProcess tests: the fork engine under the supervisor's isolated cells
// and locprivd's shards. Each test forks real children; the suite also runs
// as the `chaos_child_process` ctest (chaos label, AddressSanitizer in CI).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/harness/child_process.hpp"
#include "core/harness/error.hpp"

namespace locpriv::harness {
namespace {

using std::chrono::milliseconds;

/// Pumps the child's pipes until it exits, escalating a pending terminate()
/// on the way, and returns its wait status. Fails the test rather than hang.
int wait_for_exit(ChildProcess& proc) {
  const auto give_up = ChildProcess::Clock::now() + std::chrono::seconds(30);
  for (;;) {
    ChildProcess::poll_all({&proc}, milliseconds(10));
    proc.escalate();
    if (const auto status = proc.try_reap()) return *status;
    if (ChildProcess::Clock::now() > give_up) {
      ADD_FAILURE() << "child " << proc.pid() << " did not exit";
      proc.kill();
      return proc.reap();
    }
  }
}

TEST(ChildProcess, ReturnValuesAndExceptionsBecomeExitCodes) {
  ChildProcess proc;
  proc.spawn([](int, int) { return 3; });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(proc)), "exit 3");

  ChildProcess io_failure;
  io_failure.spawn([](int, int) -> int {
    throw Error(ErrorCode::kIo, "disk on fire");
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(io_failure)), "exit 4");
  EXPECT_EQ(io_failure.stderr_tail().one_line(), "io_error: disk on fire");

  ChildProcess runtime_failure;
  runtime_failure.spawn([](int, int) -> int {
    throw std::runtime_error("wombat overflow");
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(runtime_failure)), "exit 1");
  EXPECT_EQ(runtime_failure.stderr_tail().one_line(), "wombat overflow");
}

TEST(ChildProcess, SegfaultIsDescribedBySignalName) {
  ChildProcess proc;
  proc.spawn([](int, int) {
    // The default disposition, so a sanitizer's SEGV handler cannot turn
    // the signal into an ordinary exit.
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    return 0;
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(proc)), "killed by SIGSEGV");
}

TEST(ChildProcess, SigtermIgnoringBodyIsReclaimedByEscalation) {
  ChildProcess proc;
  proc.spawn([](int, int out_fd) -> int {
    std::signal(SIGTERM, SIG_IGN);
    write_all(out_fd, encode_message({"ready"}));
    for (;;) ::pause();
  });
  // Terminate only once the child has ignored SIGTERM, or the default
  // disposition could still kill it before escalation is needed.
  std::vector<std::string> fields;
  while (!proc.output().next(fields))
    ChildProcess::poll_all({&proc}, milliseconds(10));

  const milliseconds grace(200);
  const auto start = ChildProcess::Clock::now();
  proc.terminate(grace);
  const int status = wait_for_exit(proc);
  const auto took = ChildProcess::Clock::now() - start;
  EXPECT_EQ(ChildProcess::describe(status), "killed by SIGKILL");
  EXPECT_GE(took, grace);
  EXPECT_LT(took, grace + milliseconds(2000));
}

TEST(ChildProcess, SigintIsLeftToTheParentAndSigtermStillTerminates) {
  // A terminal ^C reaches every process in the group; the child must leave
  // stopping the run to its parent's drain.
  ChildProcess interrupted;
  interrupted.spawn([](int, int) {
    std::raise(SIGINT);
    return 0;
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(interrupted)), "exit 0");

  // terminate() relies on SIGTERM's default disposition.
  ChildProcess terminated;
  terminated.spawn([](int, int) {
    std::raise(SIGTERM);
    return 0;
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(terminated)),
            "killed by SIGTERM");
}

/// True once `pid` has exited: it is gone or a zombie awaiting its reaper.
bool has_exited(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  const std::size_t paren = line.rfind(')');
  return paren != std::string::npos && line.size() > paren + 2 &&
         line[paren + 2] == 'Z';
}

TEST(ChildProcess, AChildDoesNotOutliveItsParent) {
  // The middle process spawns a grandchild that ignores SIGTERM (and, as
  // every child does, SIGINT), reports its pid and dies of SIGKILL, so no
  // destructor stops the grandchild: only the parent-death signal can. The
  // grandchild's sleep bounds what a failing run leaves behind.
  ChildProcess middle;
  middle.spawn([](int, int out_fd) {
    ChildProcess grandchild;
    grandchild.spawn([](int, int) {
      std::signal(SIGTERM, SIG_IGN);
      std::this_thread::sleep_for(std::chrono::seconds(60));
      return 0;
    });
    write_all(out_fd, encode_message({std::to_string(grandchild.pid())}));
    std::raise(SIGKILL);
    return 0;
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(middle)), "killed by SIGKILL");
  std::vector<std::string> fields;
  ASSERT_TRUE(middle.output().next(fields));
  const pid_t orphan = static_cast<pid_t>(std::stol(fields.at(0)));
  const auto give_up = ChildProcess::Clock::now() + std::chrono::seconds(10);
  while (!has_exited(orphan) && ChildProcess::Clock::now() < give_up)
    std::this_thread::sleep_for(milliseconds(10));
  EXPECT_TRUE(has_exited(orphan)) << "pid " << orphan << " outlived its parent";
}

TEST(ChildProcess, StderrTailKeepsExactlyTheCap) {
  const std::string burst(1 << 20, 'e');
  ChildProcess proc;
  proc.spawn([&](int, int) {
    return write_all(STDERR_FILENO, burst) ? 0 : 1;
  });
  EXPECT_EQ(ChildProcess::describe(wait_for_exit(proc)), "exit 0");
  EXPECT_EQ(proc.stderr_tail().retained(), ChildProcess::kStderrTailBytes);
}

TEST(ChildProcess, OutputWrittenJustBeforeACrashIsSalvagedOnReap) {
  ChildProcess proc;
  proc.spawn([](int, int out_fd) {
    write_all(out_fd, encode_message({"snapped", "7"}));
    write_all(STDERR_FILENO, "last words\n");
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    return 0;
  });
  // Reap without ever polling: the reap itself drains both pipes.
  int status = 0;
  for (;;) {
    if (const auto reaped = proc.try_reap()) {
      status = *reaped;
      break;
    }
    ::usleep(1000);
  }
  EXPECT_EQ(ChildProcess::describe(status), "killed by SIGSEGV");
  std::vector<std::string> fields;
  ASSERT_TRUE(proc.output().next(fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"snapped", "7"}));
  EXPECT_EQ(proc.stderr_tail().one_line(), "last words");
}

TEST(ChildProcess, RespawnKeepsTheStderrTail) {
  ChildProcess proc;
  proc.spawn([](int, int) {
    write_all(STDERR_FILENO, "first incarnation\n");
    return 1;
  });
  wait_for_exit(proc);
  proc.spawn([](int, int) {
    write_all(STDERR_FILENO, "second incarnation\n");
    return 1;
  });
  wait_for_exit(proc);
  EXPECT_EQ(proc.stderr_tail().one_line(),
            "first incarnation second incarnation");
}

}  // namespace
}  // namespace locpriv::harness
