#include "core/harness/interrupt.hpp"

#include <atomic>

namespace locpriv::harness {

namespace {

std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free);  // Set in a handler.

extern "C" void locpriv_on_interrupt(int /*signal*/) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

}  // namespace

InterruptScope::InterruptScope() {
  g_interrupted.store(false, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = &locpriv_on_interrupt;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, &old_int_);
  ::sigaction(SIGTERM, &action, &old_term_);
}

InterruptScope::~InterruptScope() {
  ::sigaction(SIGINT, &old_int_, nullptr);
  ::sigaction(SIGTERM, &old_term_, nullptr);
  g_interrupted.store(false, std::memory_order_relaxed);
}

bool interrupt_requested() {
  return g_interrupted.load(std::memory_order_relaxed);
}

Error interrupted_error(const std::string& progress,
                        const std::filesystem::path& run_dir) {
  return Error(ErrorCode::kInterrupted,
               "run interrupted by signal after " + progress + "; " +
                   (run_dir.empty() ? "no run directory was given, so nothing was journaled"
                                    : "ledger is durable, continue with --resume " +
                                          run_dir.string()));
}

}  // namespace locpriv::harness
