// How SIGINT/SIGTERM stop a run, in one place. An InterruptScope installs a
// handler for both that only sets a lock-free flag; the Supervisor's
// engines, locprivd's credit wait and the traffic driver poll
// interrupt_requested() and stop cleanly, and the command exits 7 with
// interrupted_error(). Ending the scope restores the previous dispositions
// and clears the flag. Scopes do not nest: run_sweep and `serve` open one.
#pragma once

#include <signal.h>

#include <filesystem>
#include <string>

#include "core/harness/error.hpp"

namespace locpriv::harness {

/// Holds the handler installed, and the flag live, for its lifetime.
class InterruptScope {
 public:
  InterruptScope();
  ~InterruptScope();
  InterruptScope(const InterruptScope&) = delete;
  InterruptScope& operator=(const InterruptScope&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// True once SIGINT or SIGTERM arrived inside the current scope; any thread
/// may poll it.
bool interrupt_requested();

/// The exit-7 error of a run stopped after `progress` (e.g. "12 cells"). It
/// names `--resume run_dir`, or says that nothing was journaled when
/// `run_dir` is empty.
Error interrupted_error(const std::string& progress,
                        const std::filesystem::path& run_dir);

}  // namespace locpriv::harness
