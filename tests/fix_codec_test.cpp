// The one encoding of a fix in locprivd: packed 24-byte records in submit
// frames and in snapshot frames. Bit-exact round trips over seeded random
// bit patterns and the special doubles, record counts taken from field
// sizes, hostile snapshot structure rejected as Error(kResume), and a guard
// that the checked-in fuzz seeds still speak the current format.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/harness/error.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"

namespace locpriv::service {
namespace {

namespace fs = std::filesystem;
using trace::TracePoint;

TracePoint bits_fix(std::uint64_t lat, std::uint64_t lon, std::int64_t ts) {
  TracePoint fix;
  fix.position.lat_deg = std::bit_cast<double>(lat);
  fix.position.lon_deg = std::bit_cast<double>(lon);
  fix.timestamp_s = ts;
  return fix;
}

/// Seeded random bit patterns (NaNs with random payloads included) after
/// the special values every codec must carry exactly.
std::vector<TracePoint> hostile_fixes(std::size_t random_count,
                                      std::uint64_t seed) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<TracePoint> fixes = {
      bits_fix(0x7ff8000000c0ffeeULL, 0x7ff4000000000001ULL, kMin),  // NaNs.
      bits_fix(0xfff8000000000000ULL, 0x7ff0000000000000ULL, kMax),  // -NaN, +inf.
      bits_fix(0xfff0000000000000ULL, 0x8000000000000000ULL, 0),     // -inf, -0.0.
      bits_fix(0x0000000000000001ULL, 0x800fffffffffffffULL, -1),    // Denormals.
  };
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < random_count; ++i)
    fixes.push_back(bits_fix(rng(), rng(), static_cast<std::int64_t>(rng())));
  return fixes;
}

bool bitwise_equal(const std::vector<TracePoint>& a,
                   const std::vector<TracePoint>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(TracePoint)) == 0);
}

/// A snapshot file around `body` with a correct checksum, so the parser's
/// structural checks are the ones that run.
std::string checksummed(const std::string& body) {
  return "locprivd-snapshot v2 checksum " + snapshot_checksum("\n" + body) +
         "\n" + body;
}

void expect_resume_error(const std::string& encoded, const std::string& why) {
  try {
    parse_snapshot(encoded);
    ADD_FAILURE() << "parsed: " << why;
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume) << why;
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

// --------------------------------------------------------- packed fixes ----

TEST(PackedFixes, SubmitFrameRoundTripsBitExact) {
  const std::vector<TracePoint> fixes = hostile_fixes(500, 11);
  const std::string frame = wire::encode_message(
      {wire::kCmdSubmit, "42", "user_07", wire::pack_fixes(fixes)});
  wire::FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  std::vector<std::string> fields;
  ASSERT_TRUE(decoder.next(fields));
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], wire::kCmdSubmit);
  EXPECT_EQ(fields[1], "42");
  EXPECT_EQ(fields[2], "user_07");
  EXPECT_EQ(fields[3].size(), fixes.size() * wire::kFixRecordBytes);
  std::vector<TracePoint> decoded;
  ASSERT_TRUE(wire::unpack_fixes(fields[3], decoded));
  EXPECT_TRUE(bitwise_equal(decoded, fixes));
}

TEST(PackedFixes, PartialFieldIsRejectedAndAppendsNothing) {
  const std::vector<TracePoint> before = hostile_fixes(3, 5);
  std::vector<TracePoint> fixes = before;
  const std::string record = wire::pack_fixes(std::span(before).first(1));
  EXPECT_FALSE(wire::unpack_fixes(record.substr(0, 23), fixes));
  EXPECT_FALSE(wire::unpack_fixes(record + record.substr(0, 1), fixes));
  EXPECT_TRUE(bitwise_equal(fixes, before));
  EXPECT_TRUE(wire::unpack_fixes("", fixes));
  EXPECT_TRUE(bitwise_equal(fixes, before));
}

TEST(PackedFixes, BatchedAppendsReallocateGeometrically) {
  // A 38 080-fix user fed in 64-fix batches, as a shard sees it: growth must
  // stay amortised, not one reallocation (and whole-vector copy) per batch.
  const std::vector<TracePoint> batch = hostile_fixes(60, 3);
  const std::string field = wire::pack_fixes(batch);
  std::vector<TracePoint> fixes;
  int reallocations = 0;
  for (int i = 0; i < 595; ++i) {
    const TracePoint* data = fixes.data();
    ASSERT_TRUE(wire::unpack_fixes(field, fixes));
    if (fixes.data() != data) ++reallocations;
  }
  EXPECT_EQ(fixes.size(), 595u * 64u);
  EXPECT_LE(reallocations, 20);
}

// -------------------------------------------------------- snapshot codec ----

TEST(SnapshotCodec, RoundTripsBitExactIncludingSplitUsers) {
  ShardSnapshot original;
  original.shard = 3;
  original.seq = 9;
  original.last_seq = std::numeric_limits<std::int64_t>::max();
  original.users["a_random"] = hostile_fixes(2000, 17);
  original.users["b_empty"] = {};
  original.users["c_exact"] = hostile_fixes(wire::kMaxFrameRecords - 4, 19);
  original.users["d_over"] = hostile_fixes(wire::kMaxFrameRecords - 3, 23);
  ASSERT_EQ(original.users["c_exact"].size(), wire::kMaxFrameRecords);
  ASSERT_EQ(original.users["d_over"].size(), wire::kMaxFrameRecords + 1);

  const std::string encoded = encode_snapshot(original);
  const ShardSnapshot restored = parse_snapshot(encoded);
  EXPECT_EQ(restored.shard, original.shard);
  EXPECT_EQ(restored.seq, original.seq);
  EXPECT_EQ(restored.last_seq, original.last_seq);
  ASSERT_EQ(restored.users.size(), original.users.size());
  for (const auto& [user, fixes] : original.users) {
    ASSERT_EQ(restored.users.count(user), 1u) << user;
    EXPECT_TRUE(bitwise_equal(restored.users.at(user), fixes)) << user;
  }
  EXPECT_EQ(encode_snapshot(restored), encoded);

  // Frame layout: the header, then one frame per user except d_over, which
  // spans a full frame and a one-record frame.
  wire::FrameDecoder decoder;
  const std::string body = encoded.substr(encoded.find('\n') + 1);
  decoder.feed(body.data(), body.size());
  std::vector<std::string> fields;
  std::vector<std::pair<std::string, std::size_t>> frames;
  while (decoder.next(fields))
    frames.emplace_back(fields[0], fields.size() == 2
                                       ? fields[1].size() / wire::kFixRecordBytes
                                       : 0);
  EXPECT_EQ(decoder.buffered(), 0u);
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"3", 0},
      {"a_random", 2004},
      {"b_empty", 0},
      {"c_exact", wire::kMaxFrameRecords},
      {"d_over", wire::kMaxFrameRecords},
      {"d_over", 1}};
  EXPECT_EQ(frames, expected);
}

TEST(SnapshotCodec, HostileStructureIsAResumeError) {
  const std::string header = wire::encode_message({"1", "2", "3"});
  const std::vector<TracePoint> fixes = hostile_fixes(2, 29);
  const std::string records = wire::pack_fixes(fixes);
  const std::string user = wire::encode_message({"u", records});

  // The well-formed control parses, so each case below fails on its defect.
  EXPECT_EQ(parse_snapshot(checksummed(header + user)).fix_count(),
            fixes.size());

  expect_resume_error(
      checksummed(header + wire::encode_message({"u", records.substr(1)})),
      "partial record");
  expect_resume_error(checksummed(wire::encode_message({"1", "2"}) + user),
                      "2-field header frame");
  expect_resume_error(
      checksummed(header + user + user.substr(0, user.size() - 5)),
      "trailing partial frame");
  expect_resume_error(checksummed(header + wire::encode_message({"u"})),
                      "1-field user frame");
  expect_resume_error(
      checksummed(header + user + wire::encode_message({"v", records}) + user),
      "user in two non-consecutive frames");
  expect_resume_error(checksummed(""), "no header frame");
  expect_resume_error(checksummed(wire::encode_message({"1", "-2", "3"})),
                      "negative seq");
  expect_resume_error(
      "locprivd-snapshot v1 checksum 73921ec01214ffb0\n"
      "shard 0 seq 1 last_seq 0 users 0 fixes 0\n",
      "v1 text snapshot");
}

// ------------------------------------------------------------ fuzz seeds ----

TEST(FuzzCorpus, SnapshotSeedsSpeakTheCurrentFormat) {
  // libFuzzer only replays these in the clang fuzz job, so a format change
  // that left them stale would go unnoticed without this guard. Loadable
  // seeds must re-encode byte for byte; each rejected one must fail on its
  // own defect, not on a stale header.
  const std::map<std::string, std::string> rejected = {
      {"bad_checksum", "checksum mismatch"},
      {"hostile_dup_user", "out of order or repeated"},
      {"hostile_max_seq", "bad seq"},
      {"hostile_user_count", "partial fix record"},
      {"no_header", "no header line"},
  };
  std::size_t seeds = 0;
  for (const auto& entry : fs::directory_iterator(
           fs::path(LOCPRIV_SOURCE_DIR) / "tools/fuzz/corpus/snapshot")) {
    const std::string name = entry.path().stem().string();
    const std::string bytes = slurp(entry.path());
    ++seeds;
    const auto reason = rejected.find(name);
    if (reason == rejected.end()) {
      // valid, empty_users, and hostile_nan_coord, whose NaN payloads,
      // infinities and -0.0 are data the codec must carry bit for bit.
      EXPECT_EQ(encode_snapshot(parse_snapshot(bytes)), bytes) << name;
      continue;
    }
    try {
      parse_snapshot(bytes);
      ADD_FAILURE() << name << " parsed";
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kResume) << name;
      EXPECT_NE(error.message().find(reason->second), std::string::npos)
          << name << ": " << error.message();
    }
  }
  EXPECT_EQ(seeds, 8u);
}

TEST(FuzzCorpus, SubmitSeedIsAPackedSubmitFrame) {
  const std::string bytes = slurp(fs::path(LOCPRIV_SOURCE_DIR) /
                                  "tools/fuzz/corpus/frame_decoder/submit.bin");
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::string> fields;
  ASSERT_TRUE(decoder.next(fields));
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], wire::kCmdSubmit);
  std::vector<TracePoint> fixes;
  EXPECT_TRUE(wire::unpack_fixes(fields[3], fixes));
  EXPECT_EQ(fixes.size(), 2u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

}  // namespace
}  // namespace locpriv::service
