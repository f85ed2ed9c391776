// Length-prefixed field frames over a byte stream. A message is a u32
// payload length, then a payload of u32 field count followed by (u32 length,
// bytes) per field, lengths in host byte order. Pipes deliver partial reads,
// so the decoder reassembles messages incrementally; fields travel verbatim
// with no escaping. The supervisor's result frames and locprivd's shard wire
// (service/wire.hpp) both use this codec, and locprivd's snapshot bodies
// persist frames on disk, so service/wire.hpp asserts a little-endian host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace locpriv::harness {

// Stream sanity caps: a single message past 64 MiB or 1M fields is
// corruption, not data (a whole-dataset shard report stays far below both).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::uint32_t kMaxFieldCount = 1u << 20;

/// Serializes one message: outer u32 payload length, inner field frame.
std::string encode_message(const std::vector<std::string>& fields);

/// Incremental decoder over a pipe byte stream. Feed whatever arrived;
/// next() pops complete messages in order. A malformed length or field
/// structure latches corrupt() — the stream cannot be trusted past that.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete message into `fields`; false when the
  /// buffer holds no complete message (or the stream is corrupt).
  bool next(std::vector<std::string>& fields);

  bool corrupt() const { return corrupt_; }
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

}  // namespace locpriv::harness
