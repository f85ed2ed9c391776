// One forked child process and its three pipes: the engine under both the
// supervisor's isolated cells and locprivd's shards.
//
// In the child, spawn() silences logging (the parent's sink mutex state was
// cloned by fork), has the child killed when its parent dies, routes stderr
// into a capture pipe, ignores SIGINT and restores SIGTERM's default,
// applies RLIMIT_AS, runs the body, and _exits with the body's return
// value. A child's time is bounded from the parent (a deadline, then
// terminate()), never by a CPU rlimit. An exception out of the body
// becomes the exit-code taxonomy: Error -> its code, anything else -> 1,
// with what() written to the captured stderr. The child never unwinds into
// the cloned parent stack.
//
// In the parent, the object queues non-blocking writes to the child's input,
// reads its output into a FrameDecoder and its stderr into a capped
// RollingTail (one poll() covers many children), terminates with SIGTERM ->
// grace -> SIGKILL, reaps without or with blocking (EINTR-safe), and
// describes how the child ended. A respawn reuses the object, so the stderr
// tail spans every incarnation.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/harness/fd_guard.hpp"
#include "core/harness/frame.hpp"

namespace locpriv::harness {

/// Bounded rolling capture of a child's stderr. A crash-looping child can
/// emit unbounded diagnostics across its respawns; only the last `cap`
/// bytes are kept, so captured stderr never grows past cap per child.
class RollingTail {
 public:
  explicit RollingTail(std::size_t cap) : cap_(cap) {}

  void append(const char* data, std::size_t size) {
    if (cap_ == 0) return;
    if (size >= cap_) {
      buffer_.assign(data + (size - cap_), cap_);
      return;
    }
    buffer_.append(data, size);
    if (buffer_.size() > cap_) buffer_.erase(0, buffer_.size() - cap_);
  }

  /// The retained tail, newlines flattened to spaces so it can live inside
  /// one-line ledger records.
  std::string one_line() const {
    std::string flat = buffer_;
    std::replace(flat.begin(), flat.end(), '\n', ' ');
    while (!flat.empty() && flat.back() == ' ') flat.pop_back();
    return flat;
  }

  const std::string& text() const { return buffer_; }
  std::size_t capacity() const { return cap_; }
  std::size_t retained() const { return buffer_.size(); }

 private:
  std::size_t cap_;
  std::string buffer_;
};

/// Writes every byte of `bytes` to `fd`, retrying EINTR and short writes.
/// False on any other error. Safe in a forked child (no stdio, no locks).
bool write_all(int fd, std::string_view bytes);

class ChildProcess {
 public:
  using Clock = std::chrono::steady_clock;

  /// Stderr bytes kept per ChildProcess, across all of its spawns.
  static constexpr std::size_t kStderrTailBytes = 4096;

  /// The child's work: reads the parent's writes from `in_fd`, writes
  /// frames for the parent to `out_fd`, returns the exit code.
  using Body = std::function<int(int in_fd, int out_fd)>;

  ChildProcess() = default;
  /// SIGKILLs and reaps a child that is still running.
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Forks a child running `body` under RLIMIT_AS = `rlimit_mb` MiB (0
  /// leaves the limit untouched). No child may be running. Resets the
  /// output decoder and the write queue; the stderr tail carries over. The
  /// logging sink is held across fork(2). Throws Error(kIo) when the pipes
  /// or the fork fail.
  void spawn(const Body& body, std::size_t rlimit_mb = 0);

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Queues bytes for the child's input; flush() writes what the pipe takes.
  void write(std::string_view bytes) { queue_.append(bytes); }
  /// Writes queued input without blocking. A full pipe or a dead child
  /// leaves the rest queued (the reaper deals with the death).
  void flush();
  std::size_t queued() const { return queue_.size() - queue_off_; }

  /// Waits up to `timeout` for output or stderr from any of `children`, then
  /// drains every ready pipe: output into each child's decoder, stderr into
  /// its tail. A pipe at EOF is closed. With no pipe open anywhere it just
  /// sleeps for `timeout`.
  static void poll_all(const std::vector<ChildProcess*>& children,
                       std::chrono::milliseconds timeout);

  /// Complete messages the child wrote, in order.
  FrameDecoder& output() { return decoder_; }
  const RollingTail& stderr_tail() const { return tail_; }

  /// Sends SIGTERM; escalate() sends SIGKILL once `grace` has passed.
  void terminate(std::chrono::milliseconds grace);
  /// Sends SIGKILL if a terminate() grace has run out; true when it did.
  bool escalate();
  /// When escalate() will fire; Clock::time_point::max() if not pending.
  Clock::time_point kill_at() const { return kill_at_; }
  /// Sends SIGKILL now.
  void kill();

  /// Non-blocking reap. Once the child has exited, drains what it wrote
  /// before dying into the decoder and the tail, closes its pipes, and
  /// returns the wait status.
  std::optional<int> try_reap();
  /// Blocking reap (EINTR-safe), with the same draining as try_reap(). A
  /// child must be running.
  int reap();

  /// "exit 3", "killed by SIGSEGV", ...: how a wait status ended the child.
  static std::string describe(int status);

 private:
  void drain(FdGuard& fd);
  void finish();

  pid_t pid_ = -1;
  FdGuard in_;   ///< Write end of the child's input (non-blocking).
  FdGuard out_;  ///< Read end of the child's output (non-blocking).
  FdGuard err_;  ///< Read end of the child's stderr (non-blocking).
  std::string queue_;
  std::size_t queue_off_ = 0;
  FrameDecoder decoder_;
  RollingTail tail_{kStderrTailBytes};
  Clock::time_point kill_at_ = Clock::time_point::max();
};

}  // namespace locpriv::harness
