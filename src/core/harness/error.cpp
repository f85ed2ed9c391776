#include "core/harness/error.hpp"

#include <cerrno>
#include <cstring>
#include <iostream>

#include "core/harness/file_ops.hpp"

namespace locpriv {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal: return "internal_error";
    case ErrorCode::kUsage: return "usage_error";
    case ErrorCode::kQuarantined: return "quarantined";
    case ErrorCode::kIo: return "io_error";
    case ErrorCode::kDeadline: return "deadline_exceeded";
    case ErrorCode::kResume: return "resume_error";
    case ErrorCode::kInterrupted: return "interrupted";
    case ErrorCode::kLedgerCorrupt: return "ledger_corrupt";
  }
  return "unknown_error";
}

Error::Error(ErrorCode code, std::string message)
    : code_(code), message_(std::move(message)) {
  rebuild_what();
}

Error& Error::add_context(std::string frame) {
  // One frame per enclosing catch site — bounded by unwind depth.
  // locpriv-lint: allow(unbounded-growth)
  context_.push_back(std::move(frame));
  rebuild_what();
  return *this;
}

void Error::rebuild_what() {
  what_ = std::string(error_code_name(code_));
  what_ += ": ";
  // Outermost frame first: the last-added context encloses everything else.
  for (auto it = context_.rbegin(); it != context_.rend(); ++it) {
    what_ += *it;
    what_ += ": ";
  }
  what_ += message_;
}

std::string errno_detail() {
  if (errno == 0) return {};
  return std::string(" (") + std::strerror(errno) + ")";
}

int run_main(const std::function<int()>& body) {
  try {
    // A malformed LOCPRIV_STORAGE_FAULTS is refused before the body writes
    // anything (exit 2), not at its first durable write.
    harness::file_ops();
    return body();
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return error.exit_code();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return exit_code(ErrorCode::kInternal);
  }
}

}  // namespace locpriv
