// Injectable syscall layer for every durable read/write in the repo. The
// harness consumers (AtomicFileWriter, RunLedger, the service snapshot
// codec, SeriesCsv/export_table) route open/read/write/fsync/rename/...
// through the process-global FileOps instead of calling the libc wrappers
// directly, so tests and the storage-torture bench can swap in a
// deterministic FaultyFileOps and prove each consumer survives EIO, ENOSPC,
// short writes, lying fsyncs, rename failures, and read-path bit-rot — the
// storage analogue of src/sim/faults' process-fault plans.
//
// The default is a zero-overhead passthrough (RealFileOps). The global is a
// single atomic pointer inherited across fork(2), so shard children forked
// by locprivd see the same fault plan as the parent. Setting the
// LOCPRIV_STORAGE_FAULTS environment variable to a StorageFaultPlan spec
// installs a FaultyFileOps lazily on first use, which is how CI injects
// faults into unmodified test binaries; a malformed spec is a usage error,
// never a fault-free run.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "core/harness/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace locpriv::harness {

/// Virtual dispatch over the POSIX file primitives the repo's durable paths
/// use. Every method has raw syscall semantics: -1 + errno on failure, no
/// EINTR retry (callers keep their own retry loops).
class FileOps {
 public:
  virtual ~FileOps() = default;
  virtual int open(const char* path, int flags, ::mode_t mode) = 0;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  virtual ::ssize_t read(int fd, void* buf, std::size_t count) = 0;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  virtual ::ssize_t write(int fd, const void* buf, std::size_t count) = 0;
  virtual int fsync(int fd) = 0;
  virtual int fdatasync(int fd) = 0;
  virtual int rename(const char* from, const char* to) = 0;
  virtual int unlink(const char* path) = 0;
  virtual int ftruncate(int fd, ::off_t length) = 0;
  virtual int close(int fd) = 0;
};

/// Straight passthrough to the libc wrappers.
class RealFileOps : public FileOps {
 public:
  int open(const char* path, int flags, ::mode_t mode) override;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  ::ssize_t read(int fd, void* buf, std::size_t count) override;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  ::ssize_t write(int fd, const void* buf, std::size_t count) override;
  int fsync(int fd) override;
  int fdatasync(int fd) override;
  int rename(const char* from, const char* to) override;
  int unlink(const char* path) override;
  int ftruncate(int fd, ::off_t length) override;
  int close(int fd) override;
};

/// Deterministic storage-fault menu. All counters are 1-based and count
/// only operations on paths matching `path_filter` (substring; empty
/// matches everything), so a plan can target e.g. only snapshot files
/// (`path=.snap.`) while the ledger stays healthy. The same (plan, call
/// sequence) always injects the same faults — seeded, like the
/// sim::FaultSchedule plans this is modeled on.
struct StorageFaultPlan {
  std::uint64_t seed = 1;      ///< Seeds the short-write byte counts.
  std::string path_filter;     ///< Substring of affected paths; empty = all.
  std::uint64_t eio_at_op = 0; ///< Nth mutating op fails EIO. 0 = off.
  /// From the Nth write onward, writes fail ENOSPC. 0 = off.
  std::uint64_t enospc_at_op = 0;
  /// With enospc_at_op: number of writes that fail before the "space was
  /// freed" recovery. 0 = sticky (the disk never recovers).
  std::uint64_t enospc_recover_after = 0;
  double short_write_prob = 0.0;  ///< Chance a write is cut short (0..1).
  /// The Nth fsync lies: reports success but the unsynced tail is dropped
  /// when the descriptor closes (power-loss simulation). 0 = off.
  std::uint64_t drop_tail_at_fsync = 0;
  std::uint64_t rename_fail_at = 0;  ///< Nth rename fails EIO. 0 = off.
  bool flip_read = false;        ///< Enable read-path bit-rot.
  std::uint64_t flip_offset = 0; ///< File offset whose reads are bit-flipped.

  /// Round-trippable spec string, e.g. "seed=7,path=.snap.,enospc=3,
  /// recover=2". parse(spec()).spec() == spec().
  std::string spec() const;

  /// Parses a spec produced by spec() (or written by hand / CI). Throws
  /// Error(kUsage) on an unknown key or malformed value.
  static StorageFaultPlan parse(const std::string& spec);
};

/// How often each fault class actually fired — the torture bench asserts
/// plans were exercised, not just configured.
struct InjectedFaults {
  std::uint64_t eio = 0;
  std::uint64_t enospc = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t dropped_tails = 0;
  std::uint64_t rename_failures = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t total() const {
    return eio + enospc + short_writes + dropped_tails + rename_failures +
           bit_flips;
  }
};

/// Wraps a base FileOps and injects the plan's faults deterministically.
/// Thread-safe: all mutable state is behind one annotated mutex (the
/// durable paths are not hot enough for contention to matter).
class FaultyFileOps : public FileOps {
 public:
  explicit FaultyFileOps(StorageFaultPlan plan, FileOps* base = nullptr);

  int open(const char* path, int flags, ::mode_t mode) override;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  ::ssize_t read(int fd, void* buf, std::size_t count) override;
  // locpriv-lint: allow(eintr-retry) raw syscall contract; callers own the retry loop
  ::ssize_t write(int fd, const void* buf, std::size_t count) override;
  int fsync(int fd) override;
  int fdatasync(int fd) override;
  int rename(const char* from, const char* to) override;
  int unlink(const char* path) override;
  int ftruncate(int fd, ::off_t length) override;
  int close(int fd) override;

  const StorageFaultPlan& plan() const { return plan_; }
  InjectedFaults injected() const;

 private:
  struct TrackedFd {
    std::string path;
    ::off_t synced_size = 0;  ///< File size covered by the last real fsync.
    bool lying = false;       ///< A lying fsync armed tail-drop at close.
  };

  bool matches(const std::string& path) const;
  int sync_common(int fd, bool data_only);
  /// Injects EIO if this (1-based) mutating op is the planned one.
  bool inject_eio() LOCPRIV_REQUIRES(mutex_);
  std::uint64_t next_random() LOCPRIV_REQUIRES(mutex_);

  // plan_ and base_ are set once in the constructor and read-only after.
  const StorageFaultPlan plan_;
  FileOps* base_;
  mutable util::Mutex mutex_;
  std::map<int, TrackedFd> fds_ LOCPRIV_GUARDED_BY(mutex_);
  std::uint64_t op_count_ LOCPRIV_GUARDED_BY(mutex_) = 0;
  std::uint64_t write_count_ LOCPRIV_GUARDED_BY(mutex_) = 0;
  std::uint64_t fsync_count_ LOCPRIV_GUARDED_BY(mutex_) = 0;
  std::uint64_t rename_count_ LOCPRIV_GUARDED_BY(mutex_) = 0;
  std::uint64_t enospc_failures_ LOCPRIV_GUARDED_BY(mutex_) = 0;
  std::uint64_t rng_state_ LOCPRIV_GUARDED_BY(mutex_);
  InjectedFaults injected_ LOCPRIV_GUARDED_BY(mutex_);
};

/// The process-global FileOps every durable path uses. Defaults to a
/// RealFileOps singleton; on the very first call, a set
/// LOCPRIV_STORAGE_FAULTS environment variable installs a FaultyFileOps
/// built from its spec. A malformed spec throws Error(kUsage) from that
/// call and from every later one, so no durable operation runs fault-free
/// under a mistyped plan, and no writer whose destructor calls file_ops()
/// is ever constructed; run_main() calls it before a binary's body, so the
/// binary exits 2 before it writes anything. The returned reference is
/// valid for the process lifetime.
FileOps& file_ops();

/// Replaces the global FileOps; returns the previous override (nullptr if
/// the default RealFileOps was active). Passing nullptr restores the
/// default. The caller keeps ownership of `ops` and must keep it alive
/// until restored.
FileOps* set_file_ops(FileOps* ops);

/// RAII override for tests and benches: installs `ops` on construction and
/// restores the previous global on destruction.
class ScopedFileOps {
 public:
  explicit ScopedFileOps(FileOps* ops) : previous_(set_file_ops(ops)) {}
  ~ScopedFileOps() { set_file_ops(previous_); }
  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  FileOps* previous_;
};

/// Reads the whole file through the global FileOps (so injected read faults
/// and bit-flips apply). Returns false with errno set when the file cannot
/// be opened or read.
bool read_file_through_ops(const std::string& path, std::string& out);

}  // namespace locpriv::harness
