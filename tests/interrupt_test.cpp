// InterruptScope, the one owner of SIGINT/SIGTERM. These tests deliver real
// signals: inside a scope a signal only sets the flag, and when the scope
// ends the flag is clear and the dispositions from before come back.
#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/harness/error.hpp"
#include "core/harness/interrupt.hpp"
#include "util/parallel.hpp"

namespace locpriv::harness {
namespace {

volatile sig_atomic_t g_previous_handler_calls = 0;

extern "C" void count_previous_handler(int /*signal*/) {
  g_previous_handler_calls = g_previous_handler_calls + 1;
}

using Handler = void (*)(int);

Handler installed(int signal) {
  struct sigaction current {};
  ::sigaction(signal, nullptr, &current);
  return current.sa_handler;
}

/// Installs `handler` for SIGINT and SIGTERM for the test's lifetime.
class PreviousHandlers {
 public:
  explicit PreviousHandlers(Handler handler) {
    struct sigaction action {};
    action.sa_handler = handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &saved_int_);
    ::sigaction(SIGTERM, &action, &saved_term_);
  }
  ~PreviousHandlers() {
    ::sigaction(SIGINT, &saved_int_, nullptr);
    ::sigaction(SIGTERM, &saved_term_, nullptr);
  }

 private:
  struct sigaction saved_int_ {};
  struct sigaction saved_term_ {};
};

TEST(InterruptScope, RaisedSigintSetsTheFlagAndThePreviousHandlerComesBack) {
  const PreviousHandlers previous(&count_previous_handler);
  g_previous_handler_calls = 0;
  {
    const InterruptScope interrupts;
    EXPECT_FALSE(interrupt_requested());
    EXPECT_NE(installed(SIGINT), &count_previous_handler);
    EXPECT_NE(installed(SIGTERM), &count_previous_handler);
    ASSERT_EQ(::raise(SIGINT), 0);
    EXPECT_TRUE(interrupt_requested());
    EXPECT_EQ(g_previous_handler_calls, 0);  // The scope's handler took it.
  }
  // The scope ended: a stale ^C cannot stop a later run, and the handlers
  // from before are back and take the next signal.
  EXPECT_FALSE(interrupt_requested());
  EXPECT_EQ(installed(SIGINT), &count_previous_handler);
  EXPECT_EQ(installed(SIGTERM), &count_previous_handler);
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_EQ(g_previous_handler_calls, 1);
  EXPECT_FALSE(interrupt_requested());
}

TEST(InterruptScope, SigtermOnOneWorkerReachesTheWorkersPollingTheFlag) {
  // The in-process sweep engine polls the flag from parallel_for workers,
  // while the handler runs on whichever thread took the signal.
  const InterruptScope interrupts;
  util::parallel_for(
      4,
      [](std::size_t i) {
        if (i == 0) ::raise(SIGTERM);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!interrupt_requested() && std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_TRUE(interrupt_requested());
      },
      4);
}

TEST(InterruptScope, ExitSevenNamesResumeOnlyWithARunDirectory) {
  const Error journaled = interrupted_error("3 cells", "/tmp/run");
  EXPECT_EQ(journaled.code(), ErrorCode::kInterrupted);
  EXPECT_EQ(journaled.exit_code(), 7);
  const std::string with_dir = journaled.what();
  EXPECT_NE(with_dir.find("after 3 cells"), std::string::npos) << with_dir;
  EXPECT_NE(with_dir.find("--resume /tmp/run"), std::string::npos) << with_dir;

  const std::string without_dir = interrupted_error("3 cells", "").what();
  EXPECT_EQ(without_dir.find("--resume"), std::string::npos) << without_dir;
  EXPECT_NE(without_dir.find("nothing was journaled"), std::string::npos)
      << without_dir;
}

}  // namespace
}  // namespace locpriv::harness
