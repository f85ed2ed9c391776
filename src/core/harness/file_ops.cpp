#include "core/harness/file_ops.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/strings.hpp"

namespace locpriv::harness {

// ---------------------------------------------------------------------------
// RealFileOps: the passthrough every process starts with.
// ---------------------------------------------------------------------------

int RealFileOps::open(const char* path, int flags, ::mode_t mode) {
  return ::open(path, flags, mode);
}

::ssize_t RealFileOps::read(int fd, void* buf, std::size_t count) {
  // locpriv-lint: allow(eintr-retry) passthrough; callers own the retry loop
  return ::read(fd, buf, count);
}

::ssize_t RealFileOps::write(int fd, const void* buf, std::size_t count) {
  // locpriv-lint: allow(eintr-retry) passthrough; callers own the retry loop
  return ::write(fd, buf, count);
}

int RealFileOps::fsync(int fd) { return ::fsync(fd); }

int RealFileOps::fdatasync(int fd) { return ::fdatasync(fd); }

int RealFileOps::rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int RealFileOps::unlink(const char* path) { return ::unlink(path); }

int RealFileOps::ftruncate(int fd, ::off_t length) {
  return ::ftruncate(fd, length);
}

int RealFileOps::close(int fd) { return ::close(fd); }

// ---------------------------------------------------------------------------
// StorageFaultPlan: spec round-trip.
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_spec(const std::string& why) {
  throw Error(ErrorCode::kUsage, "bad storage fault spec: " + why);
}

std::uint64_t spec_u64(const std::string& key, const std::string& value) {
  long long parsed = 0;
  if (!util::parse_int64(value, parsed) || parsed < 0)
    bad_spec(key + " needs a non-negative integer, got '" + value + "'");
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

std::string StorageFaultPlan::spec() const {
  std::string out = "seed=" + std::to_string(seed);
  if (!path_filter.empty()) out += ",path=" + path_filter;
  if (eio_at_op != 0) out += ",eio=" + std::to_string(eio_at_op);
  if (enospc_at_op != 0) out += ",enospc=" + std::to_string(enospc_at_op);
  if (enospc_recover_after != 0)
    out += ",recover=" + std::to_string(enospc_recover_after);
  if (short_write_prob > 0.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", short_write_prob);
    out += ",short=" + std::string(buffer);
  }
  if (drop_tail_at_fsync != 0)
    out += ",dropsync=" + std::to_string(drop_tail_at_fsync);
  if (rename_fail_at != 0) out += ",rename=" + std::to_string(rename_fail_at);
  if (flip_read) out += ",flip=" + std::to_string(flip_offset);
  return out;
}

StorageFaultPlan StorageFaultPlan::parse(const std::string& spec) {
  StorageFaultPlan plan;
  for (const std::string_view field : util::split(spec, ',')) {
    if (field.empty()) continue;
    const std::string entry(field);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) bad_spec("entry '" + entry + "' has no '='");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      plan.seed = spec_u64(key, value);
    } else if (key == "path") {
      plan.path_filter = value;
    } else if (key == "eio") {
      plan.eio_at_op = spec_u64(key, value);
    } else if (key == "enospc") {
      plan.enospc_at_op = spec_u64(key, value);
    } else if (key == "recover") {
      plan.enospc_recover_after = spec_u64(key, value);
    } else if (key == "short") {
      // Written so NaN fails too: it compares false against both bounds.
      if (!util::parse_double(value, plan.short_write_prob) ||
          !(plan.short_write_prob >= 0.0 && plan.short_write_prob <= 1.0))
        bad_spec("short needs a probability in [0,1], got '" + value + "'");
    } else if (key == "dropsync") {
      plan.drop_tail_at_fsync = spec_u64(key, value);
    } else if (key == "rename") {
      plan.rename_fail_at = spec_u64(key, value);
    } else if (key == "flip") {
      plan.flip_read = true;
      plan.flip_offset = spec_u64(key, value);
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// FaultyFileOps.
// ---------------------------------------------------------------------------

FaultyFileOps::FaultyFileOps(StorageFaultPlan plan, FileOps* base)
    : plan_(std::move(plan)), base_(base) {
  static RealFileOps real;
  if (base_ == nullptr) base_ = &real;
  rng_state_ = plan_.seed == 0 ? 1 : plan_.seed;
}

bool FaultyFileOps::matches(const std::string& path) const {
  return plan_.path_filter.empty() ||
         path.find(plan_.path_filter) != std::string::npos;
}

std::uint64_t FaultyFileOps::next_random() {
  // xorshift64: tiny, seeded, and good enough to scatter short writes.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return rng_state_;
}

bool FaultyFileOps::inject_eio() {
  ++op_count_;
  if (plan_.eio_at_op != 0 && op_count_ == plan_.eio_at_op) {
    ++injected_.eio;
    errno = EIO;
    return true;
  }
  return false;
}

int FaultyFileOps::open(const char* path, int flags, ::mode_t mode) {
  const int fd = base_->open(path, flags, mode);
  if (fd < 0) return fd;
  std::lock_guard<std::mutex> lock(mutex_);
  if (matches(path)) {
    TrackedFd tracked;
    tracked.path = path;
    struct ::stat st {};
    if (::fstat(fd, &st) == 0) tracked.synced_size = st.st_size;
    if ((flags & O_TRUNC) != 0) tracked.synced_size = 0;
    fds_[fd] = std::move(tracked);
  }
  return fd;
}

::ssize_t FaultyFileOps::read(int fd, void* buf, std::size_t count) {
  bool tracked = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracked = fds_.count(fd) != 0;
  }
  if (!tracked || !plan_.flip_read) return base_->read(fd, buf, count);
  const ::off_t before = ::lseek(fd, 0, SEEK_CUR);
  const ::ssize_t n = base_->read(fd, buf, count);
  if (n > 0 && before >= 0) {
    const auto offset = static_cast<std::uint64_t>(before);
    if (plan_.flip_offset >= offset &&
        plan_.flip_offset < offset + static_cast<std::uint64_t>(n)) {
      // Persistent single-bit rot: every read of that offset sees the flip,
      // like a bad sector, so retries cannot paper over it.
      static_cast<unsigned char*>(buf)[plan_.flip_offset - offset] ^= 0x01u;
      std::lock_guard<std::mutex> lock(mutex_);
      ++injected_.bit_flips;
    }
  }
  return n;
}

::ssize_t FaultyFileOps::write(int fd, const void* buf, std::size_t count) {
  std::size_t effective = count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fds_.count(fd) != 0) {
      if (inject_eio()) return -1;
      ++write_count_;
      if (plan_.enospc_at_op != 0 && write_count_ >= plan_.enospc_at_op) {
        const bool sticky = plan_.enospc_recover_after == 0;
        if (sticky || enospc_failures_ < plan_.enospc_recover_after) {
          ++enospc_failures_;
          ++injected_.enospc;
          errno = ENOSPC;
          return -1;
        }
      }
      if (plan_.short_write_prob > 0.0 && count > 1) {
        const double roll =
            static_cast<double>(next_random() % 1000000) / 1000000.0;
        if (roll < plan_.short_write_prob) {
          effective = 1 + static_cast<std::size_t>(next_random() % (count - 1));
          ++injected_.short_writes;
        }
      }
    }
  }
  return base_->write(fd, buf, effective);
}

int FaultyFileOps::sync_common(int fd, bool data_only) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fds_.find(fd);
    if (it != fds_.end()) {
      if (inject_eio()) return -1;
      ++fsync_count_;
      if (plan_.drop_tail_at_fsync != 0 &&
          fsync_count_ == plan_.drop_tail_at_fsync) {
        // The lie: report success without syncing. The unsynced tail is
        // dropped when the descriptor closes — the moment the simulated
        // power loss becomes visible.
        it->second.lying = true;
        ++injected_.dropped_tails;
        return 0;
      }
    }
  }
  const int rc = data_only ? base_->fdatasync(fd) : base_->fsync(fd);
  if (rc == 0 && plan_.drop_tail_at_fsync != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fds_.find(fd);
    if (it != fds_.end() && !it->second.lying) {
      struct ::stat st {};
      if (::fstat(fd, &st) == 0) it->second.synced_size = st.st_size;
    }
  }
  return rc;
}

int FaultyFileOps::fsync(int fd) { return sync_common(fd, false); }

int FaultyFileOps::fdatasync(int fd) { return sync_common(fd, true); }

int FaultyFileOps::rename(const char* from, const char* to) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (matches(from) || matches(to)) {
      if (inject_eio()) return -1;
      ++rename_count_;
      if (plan_.rename_fail_at != 0 && rename_count_ == plan_.rename_fail_at) {
        ++injected_.rename_failures;
        errno = EIO;
        return -1;
      }
    }
  }
  return base_->rename(from, to);
}

int FaultyFileOps::unlink(const char* path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (matches(path) && inject_eio()) return -1;
  }
  return base_->unlink(path);
}

int FaultyFileOps::ftruncate(int fd, ::off_t length) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fds_.count(fd) != 0 && inject_eio()) return -1;
  }
  return base_->ftruncate(fd, length);
}

int FaultyFileOps::close(int fd) {
  ::off_t truncate_to = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fds_.find(fd);
    if (it != fds_.end()) {
      if (it->second.lying) truncate_to = it->second.synced_size;
      fds_.erase(it);
    }
  }
  if (truncate_to >= 0) base_->ftruncate(fd, truncate_to);
  return base_->close(fd);
}

InjectedFaults FaultyFileOps::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

// ---------------------------------------------------------------------------
// The process-global hook.
// ---------------------------------------------------------------------------

namespace {

std::atomic<FileOps*> g_file_ops{nullptr};

RealFileOps& real_file_ops() {
  static RealFileOps real;
  return real;
}

/// One-time env-var activation. Returns true (the value is unused; the
/// static init is the "once").
bool install_env_file_ops() {
  const char* spec = std::getenv("LOCPRIV_STORAGE_FAULTS");
  if (spec == nullptr || *spec == '\0') return true;
  try {
    // Leaked by design: the override must outlive every consumer,
    // including static destructors.
    auto* faulty = new FaultyFileOps(StorageFaultPlan::parse(spec));
    FileOps* expected = nullptr;
    g_file_ops.compare_exchange_strong(expected, faulty);
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "locpriv: ignoring LOCPRIV_STORAGE_FAULTS (%s)\n", e.what());
  }
  return true;
}

}  // namespace

FileOps& file_ops() {
  static const bool bootstrapped = install_env_file_ops();
  (void)bootstrapped;
  FileOps* ops = g_file_ops.load(std::memory_order_acquire);
  return ops != nullptr ? *ops : real_file_ops();
}

FileOps* set_file_ops(FileOps* ops) {
  return g_file_ops.exchange(ops, std::memory_order_acq_rel);
}

bool read_file_through_ops(const std::string& path, std::string& out) {
  FileOps& ops = file_ops();
  const int fd = ops.open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) return false;
  out.clear();
  char chunk[65536];
  for (;;) {
    const ::ssize_t n = ops.read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    const int saved = errno;
    ops.close(fd);
    errno = saved;
    return false;
  }
  ops.close(fd);
  return true;
}

}  // namespace locpriv::harness
