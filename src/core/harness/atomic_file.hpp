// Atomic artifact writer. Content is streamed into a sibling temp file and
// published with flush -> fsync -> rename(2), so the destination path only
// ever holds (a) nothing, (b) the complete previous version, or (c) the
// complete new version — never a torn file that looks like data. Every
// stream operation is checked; failures raise Error(kIo) with the path and
// errno text, and leave the destination untouched.
//
// All I/O flows through the injectable harness::FileOps layer (file_ops.hpp),
// so a FaultyFileOps plan can hit every stage of the publish protocol —
// short writes, ENOSPC, lying fsyncs, failed renames — and the torn-write
// invariant is provable under the full storage-fault menu.
#pragma once

#include <filesystem>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <vector>

#include "core/harness/error.hpp"

namespace locpriv::harness {

class AtomicFileWriter {
 public:
  /// Opens `<path>.tmp.<pid>.<seq>` for writing. Throws Error(kIo) when the
  /// temp file cannot be created (unwritable or missing directory), so
  /// artifact problems surface before minutes of compute, not after.
  explicit AtomicFileWriter(std::filesystem::path path);

  /// Discards the temp file if commit() never ran (or failed): an abandoned
  /// writer leaves no debris and no partial destination.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The stream to write content through. Errors are latched by the stream
  /// and checked at commit().
  std::ostream& stream() { return out_; }

  const std::filesystem::path& path() const { return path_; }
  bool committed() const { return committed_; }

  /// Publishes the temp file at the destination: flush, check the stream,
  /// fsync the temp, rename over `path`, then fsync the directory (best
  /// effort) so the new name survives a crash. Throws Error(kIo) on any
  /// failure after removing the temp; the destination keeps its previous
  /// content. Precondition: not yet committed.
  void commit();

 private:
  /// std::streambuf over a FileOps descriptor: buffered writes with EINTR
  /// and short-write retry; the first hard error latches and poisons the
  /// ostream (badbit), checked at commit().
  class FdStreamBuf : public std::streambuf {
   public:
    FdStreamBuf();
    void attach(int fd);
    bool failed() const { return failed_; }
    int saved_errno() const { return errno_; }

   protected:
    int_type overflow(int_type c) override;
    std::streamsize xsputn(const char* data, std::streamsize count) override;
    int sync() override;

   private:
    bool flush_buffer();
    bool write_all(const char* data, std::size_t size);

    int fd_ = -1;
    std::vector<char> buffer_;
    bool failed_ = false;
    int errno_ = 0;
  };

  [[noreturn]] void fail(const std::string& action);
  void discard();

  std::filesystem::path path_;
  std::filesystem::path temp_path_;
  int fd_ = -1;
  FdStreamBuf buf_;
  std::ostream out_;
  bool committed_ = false;
};

/// One-shot convenience for whole-buffer artifacts: write + commit.
void write_file_atomic(const std::filesystem::path& path, std::string_view content);

}  // namespace locpriv::harness
