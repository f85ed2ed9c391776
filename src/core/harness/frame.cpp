#include "core/harness/frame.hpp"

#include <algorithm>
#include <cstring>

namespace locpriv::harness {

namespace {

void append_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(bytes));
}

std::uint32_t read_u32(const char* data) {
  std::uint32_t value = 0;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

}  // namespace

std::string encode_message(const std::vector<std::string>& fields) {
  std::string payload;
  append_u32(payload, static_cast<std::uint32_t>(fields.size()));
  for (const std::string& field : fields) {
    append_u32(payload, static_cast<std::uint32_t>(field.size()));
    payload += field;
  }
  std::string message;
  message.reserve(payload.size() + 4);
  append_u32(message, static_cast<std::uint32_t>(payload.size()));
  message += payload;
  return message;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool FrameDecoder::next(std::vector<std::string>& fields) {
  if (corrupt_) return false;
  // Compact lazily: drop consumed bytes once they dominate the buffer, so
  // a long-lived stream does not grow without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const std::uint32_t payload_size = read_u32(buffer_.data() + consumed_);
  if (payload_size > kMaxPayloadBytes || payload_size < 4) {
    corrupt_ = true;
    return false;
  }
  if (available < 4 + static_cast<std::size_t>(payload_size)) return false;

  const char* payload = buffer_.data() + consumed_ + 4;
  std::size_t offset = 0;
  const std::uint32_t count = read_u32(payload);
  offset += 4;
  if (count > kMaxFieldCount) {
    corrupt_ = true;
    return false;
  }
  fields.clear();
  // Bounded by the bytes present (4 per field), not by the claimed count.
  fields.reserve(std::min<std::size_t>(count, (payload_size - 4) / 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload_size - offset < 4) {
      corrupt_ = true;
      return false;
    }
    const std::uint32_t field_size = read_u32(payload + offset);
    offset += 4;
    if (payload_size - offset < field_size) {
      corrupt_ = true;
      return false;
    }
    fields.emplace_back(payload + offset, field_size);
    offset += field_size;
  }
  if (offset != payload_size) {
    corrupt_ = true;
    return false;
  }
  consumed_ += 4 + payload_size;
  return true;
}

}  // namespace locpriv::harness
