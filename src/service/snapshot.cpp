#include "service/snapshot.hpp"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "service/wire.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

constexpr char kMagic[] = "locprivd-snapshot v3 checksum ";

/// A user frame's open-stay record.
struct OpenRecord {
  std::uint64_t inside;
  std::int64_t enter_s;
  double lat_sum;
  double lon_sum;
  std::uint64_t count;
  std::int64_t last_s;
};

static_assert(std::is_trivially_copyable_v<poi::ExtractionParams> &&
                  sizeof(poi::ExtractionParams) == 24 &&
                  offsetof(poi::ExtractionParams, min_visit_s) == 8 &&
                  offsetof(poi::ExtractionParams, window_fixes) == 16 &&
                  sizeof(OpenRecord) == 48 &&
                  std::is_trivially_copyable_v<poi::StayPoint> &&
                  sizeof(poi::StayPoint) == 40 &&
                  offsetof(poi::StayPoint, enter_s) == 16 &&
                  offsetof(poi::StayPoint, exit_s) == 24 &&
                  offsetof(poi::StayPoint, fix_count) == 32,
              "snapshot records are the structs' bytes, little-endian");

template <typename Record>
std::string pack(const Record* records, std::size_t count) {
  return std::string(reinterpret_cast<const char*>(records), count * sizeof(Record));
}

/// Replaces `records` with the ones packed in `field`; false when the field
/// is not a whole number of records.
template <typename Record>
bool unpack(std::string_view field, std::vector<Record>& records) {
  if (field.size() % sizeof(Record) != 0) return false;
  records.resize(field.size() / sizeof(Record));
  if (!field.empty()) std::memcpy(records.data(), field.data(), field.size());
  return true;
}

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

poi::ExtractionParams parse_params(const std::string& field) {
  std::vector<poi::ExtractionParams> params;
  if (!unpack(field, params) || params.size() != 1)
    corrupt("no extraction parameter record");
  if (!params[0].valid()) corrupt("invalid extraction parameters");
  return params[0];
}

/// Decodes a {user, fixes, window, open, stays} frame into `users`.
void parse_user(const std::vector<std::string>& fields,
                const poi::ExtractionParams& params,
                std::map<std::string, UserStays>& users) {
  if (fields.size() != 5)
    corrupt("user frame is not {user, fixes, window, open, stays}");
  const std::string& user = fields[0];
  if (!users.empty() && user <= users.rbegin()->first)
    corrupt("user '" + user + "' out of order or repeated");
  const std::uint64_t fixes = header_u64(fields[1], "fix count");
  poi::StayPointStream::State state;
  std::vector<OpenRecord> open;
  if (!wire::unpack_fixes(fields[2], state.window) ||
      !unpack(fields[3], open) || open.size() != 1 || open[0].inside > 1 ||
      !unpack(fields[4], state.stays))
    corrupt("partial stream record for user '" + user + "'");
  state.inside = open[0].inside == 1;
  state.enter_s = open[0].enter_s;
  state.lat_sum = open[0].lat_sum;
  state.lon_sum = open[0].lon_sum;
  state.count = open[0].count;
  state.last_s = open[0].last_s;
  UserStays& held = users.try_emplace(users.end(), user, params)->second;
  held.fixes = fixes;
  try {
    held.stream = poi::StayPointStream(params, std::move(state));
  } catch (Error& e) {
    throw e.add_context("user '" + user + "'");
  }
}

}  // namespace

std::size_t ShardSnapshot::fix_count() const {
  std::size_t count = 0;
  for (const auto& [user, held] : users) count += held.fixes;
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
       std::to_string(snapshot.last_seq), pack(&snapshot.params, 1)});
  for (const auto& [user, held] : snapshot.users) {
    const poi::StayPointStream::State state = held.stream.state();
    const OpenRecord open{state.inside ? 1u : 0u, state.enter_s, state.lat_sum,
                          state.lon_sum, state.count, state.last_s};
    body += wire::encode_message(
        {user, std::to_string(held.fixes), wire::pack_fixes(state.window),
         pack(&open, 1), pack(state.stays.data(), state.stays.size())});
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
  if (!decoder.next(fields) || fields.size() != 4)
    corrupt("no {shard, seq, last_seq, params} frame");
  ShardSnapshot snapshot;
  snapshot.shard = static_cast<unsigned>(header_u64(fields[0], "shard"));
  snapshot.seq = header_u64(fields[1], "seq");
  snapshot.last_seq = header_u64(fields[2], "last_seq");
  snapshot.params = parse_params(fields[3]);
  while (decoder.next(fields)) parse_user(fields, snapshot.params, snapshot.users);
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
