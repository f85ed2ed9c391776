#include "service/snapshot.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

constexpr char kMagic[] = "locprivd-snapshot v1";

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

[[noreturn]] void corrupt(const std::string& why) {
  throw Error(ErrorCode::kResume, "corrupt shard snapshot: " + why);
}

/// Pops the next whitespace-delimited token; empty at end of input.
std::string next_token(std::istringstream& in) {
  std::string token;
  in >> token;
  return token;
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  if (token.empty()) corrupt(std::string("missing ") + what);
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0')
    corrupt(std::string("bad ") + what + " '" + token + "'");
  return value;
}

double parse_coord(const std::string& token) {
  if (token.empty()) corrupt("missing coordinate");
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0')
    corrupt("bad coordinate '" + token + "'");
  return value;
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
  std::string body;
  body += "shard " + std::to_string(snapshot.shard) + " seq " +
          std::to_string(snapshot.seq) + " last_seq " +
          std::to_string(snapshot.last_seq) + " users " +
          std::to_string(snapshot.users.size()) + " fixes " +
          std::to_string(snapshot.fix_count()) + "\n";
  for (const auto& [user, fixes] : snapshot.users) {
    body += "user " + user + " " + std::to_string(fixes.size()) + "\n";
    for (const trace::TracePoint& fix : fixes) {
      body += format_coord(fix.position.lat_deg) + " " +
              format_coord(fix.position.lon_deg) + " " +
              std::to_string(fix.timestamp_s) + "\n";
    }
  }
  return std::string(kMagic) + " checksum " + hex64(util::fnv1a(body)) + "\n" + body;
}

std::string snapshot_checksum(const std::string& encoded) {
  const std::size_t eol = encoded.find('\n');
  if (eol == std::string::npos) corrupt("no header line");
  return hex64(util::fnv1a(encoded.substr(eol + 1)));
}

ShardSnapshot parse_snapshot(const std::string& encoded) {
  const std::size_t eol = encoded.find('\n');
  if (eol == std::string::npos) corrupt("no header line");
  const std::string header = encoded.substr(0, eol);
  const std::string expected_prefix = std::string(kMagic) + " checksum ";
  if (header.rfind(expected_prefix, 0) != 0) corrupt("bad magic");
  const std::string recorded = header.substr(expected_prefix.size());
  const std::string body = encoded.substr(eol + 1);
  if (hex64(util::fnv1a(body)) != recorded) corrupt("checksum mismatch");

  std::istringstream in(body);
  ShardSnapshot snapshot;
  if (next_token(in) != "shard") corrupt("missing shard field");
  snapshot.shard = static_cast<unsigned>(parse_u64(next_token(in), "shard"));
  if (next_token(in) != "seq") corrupt("missing seq field");
  snapshot.seq = parse_u64(next_token(in), "seq");
  if (next_token(in) != "last_seq") corrupt("missing last_seq field");
  snapshot.last_seq = parse_u64(next_token(in), "last_seq");
  if (next_token(in) != "users") corrupt("missing users field");
  const std::uint64_t user_count = parse_u64(next_token(in), "users");
  if (next_token(in) != "fixes") corrupt("missing fixes field");
  const std::uint64_t fix_total = parse_u64(next_token(in), "fixes");

  for (std::uint64_t u = 0; u < user_count; ++u) {
    if (next_token(in) != "user") corrupt("missing user record");
    const std::string user_id = next_token(in);
    if (user_id.empty()) corrupt("missing user id");
    const std::uint64_t count = parse_u64(next_token(in), "user fix count");
    std::vector<trace::TracePoint> fixes;
    fixes.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      trace::TracePoint fix;
      fix.position.lat_deg = parse_coord(next_token(in));
      fix.position.lon_deg = parse_coord(next_token(in));
      fix.timestamp_s =
          static_cast<std::int64_t>(parse_u64(next_token(in), "timestamp"));
      fixes.push_back(fix);
    }
    snapshot.users.emplace(user_id, std::move(fixes));
  }
  if (snapshot.fix_count() != fix_total) corrupt("fix count mismatch");
  if (!next_token(in).empty()) corrupt("trailing data");
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

}  // namespace locpriv::service
