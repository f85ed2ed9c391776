#include "core/harness/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "core/harness/file_ops.hpp"
#include "util/expect.hpp"

namespace locpriv::harness {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// FdStreamBuf.
// ---------------------------------------------------------------------------

AtomicFileWriter::FdStreamBuf::FdStreamBuf() : buffer_(1 << 16) {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

void AtomicFileWriter::FdStreamBuf::attach(int fd) { fd_ = fd; }

bool AtomicFileWriter::FdStreamBuf::write_all(const char* data,
                                              std::size_t size) {
  if (failed_) return false;
  FileOps& ops = file_ops();
  while (size > 0) {
    errno = 0;
    const ::ssize_t n = ops.write(fd_, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      errno_ = errno;
      return false;
    }
    // A short write is not an error at this layer; keep pushing the rest.
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool AtomicFileWriter::FdStreamBuf::flush_buffer() {
  const std::size_t pending = static_cast<std::size_t>(pptr() - pbase());
  if (pending > 0 && !write_all(pbase(), pending)) return false;
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  return true;
}

AtomicFileWriter::FdStreamBuf::int_type AtomicFileWriter::FdStreamBuf::overflow(
    int_type c) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(c);
    pbump(1);
  }
  return traits_type::not_eof(c);
}

std::streamsize AtomicFileWriter::FdStreamBuf::xsputn(const char* data,
                                                      std::streamsize count) {
  const auto size = static_cast<std::size_t>(count);
  const auto room = static_cast<std::size_t>(epptr() - pptr());
  if (size <= room) {
    std::memcpy(pptr(), data, size);
    pbump(static_cast<int>(size));
    return count;
  }
  // Large chunk: drain the buffer, then bypass it entirely.
  if (!flush_buffer() || !write_all(data, size)) return 0;
  return count;
}

int AtomicFileWriter::FdStreamBuf::sync() { return flush_buffer() ? 0 : -1; }

// ---------------------------------------------------------------------------
// AtomicFileWriter.
// ---------------------------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(fs::path path)
    : path_(std::move(path)), out_(&buf_) {
  // pid + sequence keep concurrent writers (processes or threads) aimed at
  // the same destination from clobbering each other's temp file; the last
  // rename wins, which is the usual last-writer-wins file semantics.
  static std::atomic<unsigned> sequence{0};
  temp_path_ = path_;
  temp_path_ += ".tmp." + std::to_string(::getpid()) + "." +
                std::to_string(sequence.fetch_add(1));
  errno = 0;
  fd_ = file_ops().open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0)
    throw Error(ErrorCode::kIo,
                "cannot create " + temp_path_.string() + errno_detail());
  buf_.attach(fd_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  discard();
}

void AtomicFileWriter::discard() {
  FileOps& ops = file_ops();
  if (fd_ >= 0) {
    ops.close(fd_);
    fd_ = -1;
  }
  // Best effort; a failed unlink of a temp file is debris, not corruption.
  // locpriv-lint: allow(unchecked-io) cleanup on the failure path must not mask the original error
  ops.unlink(temp_path_.c_str());
}

void AtomicFileWriter::fail(const std::string& action) {
  const std::string detail = errno_detail();
  discard();
  throw Error(ErrorCode::kIo, action + " " + path_.string() + detail);
}

void AtomicFileWriter::commit() {
  LOCPRIV_EXPECT(!committed_);
  FileOps& ops = file_ops();
  errno = 0;
  out_.flush();
  if (!out_.good() || buf_.failed()) {
    if (buf_.saved_errno() != 0) errno = buf_.saved_errno();
    fail("cannot write");
  }
  // The bytes must be durable before the rename publishes the name: rename
  // is atomic in the namespace, but only fsync makes the content crash-safe.
  errno = 0;
  if (ops.fsync(fd_) != 0) fail("cannot fsync");
  errno = 0;
  const int close_rc = ops.close(fd_);
  fd_ = -1;
  if (close_rc != 0) fail("cannot write");
  errno = 0;
  if (ops.rename(temp_path_.c_str(), path_.c_str()) != 0)
    fail("cannot rename temp file to");
  committed_ = true;
  // Best effort: persist the directory entry so the new name survives a
  // crash. Failure here is not torn data — the rename already happened.
  const fs::path dir = path_.has_parent_path() ? path_.parent_path() : fs::path(".");
  const int dfd = ops.open(dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (dfd >= 0) {
    // locpriv-lint: allow(unchecked-io) directory fsync is advisory; the rename above already published
    ops.fsync(dfd);
    ops.close(dfd);
  }
}

void write_file_atomic(const fs::path& path, std::string_view content) {
  AtomicFileWriter writer(path);
  writer.stream().write(content.data(),
                        static_cast<std::streamsize>(content.size()));
  writer.commit();
}

}  // namespace locpriv::harness
