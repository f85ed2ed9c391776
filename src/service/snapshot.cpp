#include "service/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "service/wire.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

constexpr char kMagic[] = "locprivd-snapshot v2 checksum ";

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

[[noreturn]] void corrupt(const std::string& why) {
  throw Error(ErrorCode::kResume, "corrupt shard snapshot: " + why);
}

std::uint64_t header_u64(const std::string& field, const char* what) {
  const std::optional<std::uint64_t> value = wire::parse_u64(field);
  if (!value) corrupt(std::string("bad ") + what + " '" + field + "'");
  return *value;
}

/// The body after the header line; throws when there is no header line.
std::string_view body_of(const std::string& encoded) {
  const std::size_t eol = encoded.find('\n');
  if (eol == std::string::npos) corrupt("no header line");
  return std::string_view(encoded).substr(eol + 1);
}

}  // namespace

std::size_t ShardSnapshot::fix_count() const {
  std::size_t count = 0;
  for (const auto& [user, fixes] : users) count += fixes.size();
  return count;
}

std::string format_coord(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string encode_snapshot(const ShardSnapshot& snapshot) {
  std::string body = wire::encode_message(
      {std::to_string(snapshot.shard), std::to_string(snapshot.seq),
       std::to_string(snapshot.last_seq)});
  for (const auto& [user, fixes] : snapshot.users) {
    // An empty user still gets its frame; a large one spans several.
    std::size_t first = 0;
    do {
      const std::size_t count =
          std::min(fixes.size() - first, wire::kMaxFrameRecords);
      body += wire::encode_message(
          {user, wire::pack_fixes(std::span(fixes).subspan(first, count))});
      first += count;
    } while (first < fixes.size());
  }
  return kMagic + hex64(util::fnv1a(body)) + "\n" + body;
}

std::string snapshot_checksum(const std::string& encoded) {
  return hex64(util::fnv1a(body_of(encoded)));
}

ShardSnapshot parse_snapshot(const std::string& encoded) {
  const std::string_view body = body_of(encoded);
  const std::string_view header(encoded.data(),
                                encoded.size() - body.size() - 1);
  if (!util::starts_with(header, kMagic)) corrupt("bad magic");
  if (header.substr(sizeof(kMagic) - 1) != hex64(util::fnv1a(body)))
    corrupt("checksum mismatch");

  wire::FrameDecoder decoder;
  decoder.feed(body.data(), body.size());
  std::vector<std::string> fields;
  if (!decoder.next(fields) || fields.size() != 3)
    corrupt("no {shard, seq, last_seq} frame");
  ShardSnapshot snapshot;
  snapshot.shard = static_cast<unsigned>(header_u64(fields[0], "shard"));
  snapshot.seq = header_u64(fields[1], "seq");
  snapshot.last_seq = header_u64(fields[2], "last_seq");

  while (decoder.next(fields)) {
    if (fields.size() != 2) corrupt("user frame is not {user, records}");
    const std::string& user = fields[0];
    // Users come in order, so only consecutive frames continue one user.
    if (!snapshot.users.empty() && user < snapshot.users.rbegin()->first)
      corrupt("user '" + user + "' out of order or repeated");
    std::vector<trace::TracePoint>& fixes =
        snapshot.users.try_emplace(snapshot.users.end(), user)->second;
    if (!wire::unpack_fixes(fields[1], fixes))
      corrupt("partial fix record for user '" + user + "'");
  }
  if (decoder.corrupt() || decoder.buffered() != 0)
    corrupt("malformed or truncated frame");
  return snapshot;
}

ShardSnapshot load_snapshot(const std::string& path) {
  // Through the injectable FileOps layer, so a read-path fault plan
  // (bit-flips, EIO) exercises the checksum rejection below.
  std::string encoded;
  if (!harness::read_file_through_ops(path, encoded))
    throw Error(ErrorCode::kResume, "cannot open shard snapshot " + path);
  try {
    return parse_snapshot(encoded);
  } catch (Error& e) {
    throw e.add_context("loading " + path);
  }
}

std::string check_journaled_snapshot(const std::vector<std::string>& record,
                                     std::optional<unsigned> shard,
                                     std::uint64_t seq) {
  if (record.size() < 5) return "ledger record has too few fields";
  std::string encoded;
  if (!harness::read_file_through_ops(record[0], encoded))
    return "snapshot file missing or unreadable";
  try {
    if (snapshot_checksum(encoded) != record[4])
      return "content checksum does not match the journal";
    const ShardSnapshot snapshot = parse_snapshot(encoded);
    if (snapshot.seq != seq || (shard && snapshot.shard != *shard))
      return "snapshot identity does not match the journal key";
  } catch (const Error& e) {
    return e.message();
  }
  return "";
}

}  // namespace locpriv::service
