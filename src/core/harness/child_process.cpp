#include "core/harness/child_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <utility>

#include "core/harness/error.hpp"
#include "util/logging.hpp"

namespace locpriv::harness {

namespace {

/// Input bytes already written are dropped from the queue once they pass
/// this size, so a long-lived child's queue does not grow without bound.
constexpr std::size_t kQueueCompactBytes = 1 << 20;

std::pair<FdGuard, FdGuard> make_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0)
    throw Error(ErrorCode::kIo, "cannot create child pipe" + errno_detail());
  return {FdGuard(fds[0]), FdGuard(fds[1])};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_rlimit(int resource, rlim_t value) {
  struct rlimit limit {};
  limit.rlim_cur = limit.rlim_max = value;
  ::setrlimit(resource, &limit);
}

void note(std::string_view text) {
  write_all(STDERR_FILENO, std::string(text) + "\n");
}

[[noreturn]] void run_child(const ChildProcess::Body& body, pid_t parent,
                            std::size_t rlimit_mb, int in_fd, int out_fd,
                            int err_fd) {
  // Order matters: silence the logger before anything can log (kOff
  // short-circuits log_line before it touches the cloned sink mutex), then
  // route stderr into the capture pipe, then set the signals, then cap the
  // process. A ^C reaches the whole process group and stopping the run is
  // the parent's job, so SIGINT is ignored; SIGTERM keeps its default for
  // terminate(). An orphan would run on unstopped and unreaped, so the child
  // dies with the thread that spawned it (every spawner is a dispatch or
  // event loop); the ppid check covers a parent that is already gone.
  util::set_log_level(util::LogLevel::kOff);
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(exit_code(ErrorCode::kInternal));
  ::dup2(err_fd, STDERR_FILENO);
  if (err_fd != STDERR_FILENO) ::close(err_fd);
  struct sigaction action {};
  ::sigemptyset(&action.sa_mask);
  action.sa_handler = SIG_IGN;
  ::sigaction(SIGINT, &action, nullptr);
  action.sa_handler = SIG_DFL;
  ::sigaction(SIGTERM, &action, nullptr);
  if (rlimit_mb > 0) set_rlimit(RLIMIT_AS, static_cast<rlim_t>(rlimit_mb) << 20);

  int code = exit_code(ErrorCode::kInternal);
  try {
    code = body(in_fd, out_fd);
  } catch (const Error& e) {
    note(e.what());
    code = e.exit_code();
  } catch (const std::exception& e) {
    note(e.what());
    // The non-zero _exit below IS the report: a child must never unwind
    // back into the cloned parent stack. locpriv-lint: allow(swallowed-catch)
  } catch (...) {
    note("non-std exception in child process");
  }
  ::_exit(code);
}

std::string signal_name(int signal) {
  switch (signal) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    default: return "signal " + std::to_string(signal);
  }
}

}  // namespace

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

ChildProcess::~ChildProcess() {
  if (!running()) return;
  kill();
  reap();
}

void ChildProcess::spawn(const Body& body, std::size_t rlimit_mb) {
  auto [in_read, in_write] = make_pipe();
  auto [out_read, out_write] = make_pipe();
  auto [err_read, err_write] = make_pipe();
  const pid_t parent = ::getpid();
  pid_t pid = -1;
  {
    // No other thread may be mid-log-emission at the instant of the fork,
    // or the child inherits the sink mutex locked.
    const util::LogForkGuard guard;
    pid = ::fork();
  }
  if (pid == 0) {
    // The child keeps only its own ends; holding the parent's write end of
    // its input would hide the parent's EOF from it.
    in_write.reset();
    out_read.reset();
    err_read.reset();
    run_child(body, parent, rlimit_mb, in_read.get(), out_write.get(),
              err_write.get());
  }
  if (pid < 0) throw Error(ErrorCode::kIo, "fork failed" + errno_detail());
  set_nonblocking(in_write.get());
  set_nonblocking(out_read.get());
  set_nonblocking(err_read.get());
  pid_ = pid;
  in_ = std::move(in_write);
  out_ = std::move(out_read);
  err_ = std::move(err_read);
  queue_.clear();
  queue_off_ = 0;
  decoder_ = FrameDecoder();
  kill_at_ = Clock::time_point::max();
}

void ChildProcess::flush() {
  while (in_.valid() && queue_off_ < queue_.size()) {
    const ssize_t n = ::write(in_.get(), queue_.data() + queue_off_,
                              queue_.size() - queue_off_);
    if (n > 0) {
      queue_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (pipe full) or EPIPE (child dead; the reaper acts).
  }
  if (queue_off_ == queue_.size()) {
    queue_.clear();
    queue_off_ = 0;
  } else if (queue_off_ > kQueueCompactBytes) {
    queue_.erase(0, queue_off_);
    queue_off_ = 0;
  }
}

void ChildProcess::poll_all(const std::vector<ChildProcess*>& children,
                            std::chrono::milliseconds timeout) {
  std::vector<pollfd> fds;
  std::vector<std::pair<ChildProcess*, FdGuard*>> owners;
  for (ChildProcess* child : children) {
    for (FdGuard* fd : {&child->out_, &child->err_}) {
      if (!fd->valid()) continue;
      fds.push_back({fd->get(), POLLIN, 0});
      owners.emplace_back(child, fd);
    }
  }
  // With nothing to watch this is a plain sleep, so callers' timers still
  // advance without spinning.
  int ready = 0;
  while ((ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         static_cast<int>(timeout.count()))) < 0 &&
         errno == EINTR) {}
  if (ready <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i)
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      owners[i].first->drain(*owners[i].second);
}

void ChildProcess::drain(FdGuard& fd) {
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::read(fd.get(), chunk, sizeof(chunk));
    if (got > 0) {
      if (&fd == &out_)
        decoder_.feed(chunk, static_cast<std::size_t>(got));
      else
        tail_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got == 0) fd.reset();  // EOF: the child closed it or exited.
    return;
  }
}

void ChildProcess::terminate(std::chrono::milliseconds grace) {
  if (!running()) return;
  ::kill(pid_, SIGTERM);
  kill_at_ = Clock::now() + grace;
}

bool ChildProcess::escalate() {
  if (!running() || Clock::now() < kill_at_) return false;
  kill();
  return true;
}

void ChildProcess::kill() {
  if (running()) ::kill(pid_, SIGKILL);
  kill_at_ = Clock::time_point::max();
}

std::optional<int> ChildProcess::try_reap() {
  if (!running()) return std::nullopt;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return std::nullopt;
  finish();
  return status;
}

int ChildProcess::reap() {
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
  finish();
  return status;
}

void ChildProcess::finish() {
  pid_ = -1;
  kill_at_ = Clock::time_point::max();
  if (out_.valid()) drain(out_);
  if (err_.valid()) drain(err_);
  in_.reset();
  out_.reset();
  err_.reset();
}

std::string ChildProcess::describe(int status) {
  if (WIFSIGNALED(status)) return "killed by " + signal_name(WTERMSIG(status));
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  return "wait status " + std::to_string(status);
}

}  // namespace locpriv::harness
