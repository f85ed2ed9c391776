// Structured error taxonomy for the run harness and the binaries built on
// it. Each failure class maps to a distinct process exit code so campaign
// scripts (and CI) can tell "disk full" from "deadline blown" from "resumed
// the wrong run" without parsing stderr. Context frames added while an
// Error propagates keep the original cause visible ("sweep cell i0.50_t60:
// cannot rename ...").
#pragma once

#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace locpriv {

/// Failure classes the binaries distinguish. Enumerator values ARE the
/// process exit codes (kQuarantined mirrors the pre-existing lenient-ingest
/// exit 3 so the taxonomy stays consistent with shipped behaviour).
enum class ErrorCode : int {
  kInternal = 1,     ///< Unexpected failure (catch-all for std::exception).
  kUsage = 2,        ///< Bad command line.
  kQuarantined = 3,  ///< Lenient ingest / sweep cells quarantined (results partial).
  kIo = 4,           ///< Artifact / ledger I/O failure (ENOSPC, EPERM, ...).
  /// A locprivd report or drain did not complete within its budget
  /// (op_timeout times the respawn allowance).
  kDeadline = 5,
  kResume = 6,       ///< Resume mismatch or unloadable run state.
  kInterrupted = 7,  ///< SIGINT/SIGTERM: run stopped cleanly, resumable.
  /// Mid-file ledger corruption (a CRC-failed or unparsable interior
  /// record): the journal's history cannot be trusted, as opposed to a torn
  /// tail (truncated silently) or a resume mismatch (kResume). Recoverable
  /// with `locpriv scrub --repair`.
  kLedgerCorrupt = 8,
};

/// Short stable tag for a code ("io_error", "deadline_exceeded", ...).
std::string_view error_code_name(ErrorCode code);

/// The process exit code for a failure class.
constexpr int exit_code(ErrorCode code) { return static_cast<int>(code); }

/// Exception carrying a failure class plus a chain of context frames.
/// what() renders as "<code-name>: <outer frame>: ...: <message>".
class Error : public std::exception {
 public:
  Error(ErrorCode code, std::string message);

  ErrorCode code() const noexcept { return code_; }
  int exit_code() const noexcept { return static_cast<int>(code_); }
  const std::string& message() const noexcept { return message_; }

  /// Context frames, innermost first (the order they were added while the
  /// error propagated outward).
  const std::vector<std::string>& context() const noexcept { return context_; }

  /// Adds an enclosing context frame; returns *this for rethrow chaining:
  ///   catch (Error& e) { throw e.add_context("while writing artifacts"); }
  Error& add_context(std::string frame);

  const char* what() const noexcept override { return what_.c_str(); }

 private:
  void rebuild_what();

  ErrorCode code_;
  std::string message_;
  std::vector<std::string> context_;
  std::string what_;
};

/// " (Text for the current errno)" suffix for I/O error messages, or an
/// empty string when errno is 0.
std::string errno_detail();

/// The body of a binary's main: checks LOCPRIV_STORAGE_FAULTS (through
/// harness::file_ops()), then returns body(), or, when an exception escapes
/// either, prints "error: <what>" to stderr and returns the exit code of its
/// failure class (kInternal for anything but an Error), so scripts can tell
/// a full disk from a bad user index.
int run_main(const std::function<int()>& body);

}  // namespace locpriv
