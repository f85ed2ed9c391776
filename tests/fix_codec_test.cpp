// The one encoding of a fix in locprivd, packed 24-byte records in submit
// frames and in snapshot windows, and the v3 snapshot codec around it.
// Bit-exact round trips over seeded random bit patterns and the special
// doubles, record counts taken from field sizes, hostile snapshot structure
// and unreachable stream states rejected as Error(kResume), and a guard that
// the checked-in fuzz seeds still speak the current format.
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
#include "poi/staypoint.hpp"
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

/// Seeded stays of random bits.
std::vector<poi::StayPoint> hostile_stays(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<poi::StayPoint> stays(count);
  for (poi::StayPoint& stay : stays) {
    stay.centroid.lat_deg = std::bit_cast<double>(rng());
    stay.centroid.lon_deg = std::bit_cast<double>(rng());
    stay.enter_s = static_cast<std::int64_t>(rng());
    stay.exit_s = static_cast<std::int64_t>(rng());
    stay.fix_count = rng();
  }
  return stays;
}

/// The values' bytes back to back: how the snapshot packs its parameter
/// and open-stay records.
template <typename... Values>
std::string packed(Values... values) {
  std::string bytes;
  (bytes.append(reinterpret_cast<const char*>(&values), sizeof(values)), ...);
  return bytes;
}

/// A snapshot file around `body` with a correct checksum, so the parser's
/// structural checks are the ones that run.
std::string checksummed(const std::string& body,
                        const std::string& magic = "locprivd-snapshot v3") {
  return magic + " checksum " + snapshot_checksum("\n" + body) + "\n" + body;
}

/// Expects parse_snapshot to refuse `encoded` with Error(kResume) whose
/// message names `reason`.
void expect_resume_error(const std::string& encoded, const std::string& why,
                         const std::string& reason) {
  try {
    parse_snapshot(encoded);
    ADD_FAILURE() << "parsed: " << why;
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume) << why;
    EXPECT_NE(error.message().find(reason), std::string::npos)
        << why << ": " << error.message();
  }
}

::testing::AssertionResult same_user(const UserStays& got, const UserStays& want) {
  const poi::StayPointStream::State a = got.stream.state();
  const poi::StayPointStream::State b = want.stream.state();
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  if (got.fixes != want.fixes) return ::testing::AssertionFailure() << "fix count";
  if (!bitwise_equal(a.window, b.window)) return ::testing::AssertionFailure() << "window";
  if (a.inside != b.inside || a.enter_s != b.enter_s || bits(a.lat_sum) != bits(b.lat_sum) ||
      bits(a.lon_sum) != bits(b.lon_sum) || a.count != b.count || a.last_s != b.last_s)
    return ::testing::AssertionFailure() << "open stay";
  if (a.stays.size() != b.stays.size() ||
      (!a.stays.empty() &&
       std::memcmp(a.stays.data(), b.stays.data(),
                   a.stays.size() * sizeof(poi::StayPoint)) != 0))
    return ::testing::AssertionFailure() << "closed stays";
  return ::testing::AssertionSuccess();
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
  // 38 080 fixes appended in 64-fix batches: growth must stay amortised, not
  // one reallocation (and whole-vector copy) per batch.
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

TEST(SnapshotCodec, RoundTripsBitExact) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  ShardSnapshot original;
  original.shard = 3;
  original.seq = 9;
  original.last_seq = kMax;
  original.params = {100.0, 1200, 8};

  // Inside a stay: a full window of hostile fixes, NaN-payload and -0.0
  // sums, extreme times, and 500 stays of random bits.
  poi::StayPointStream::State inside;
  inside.window = hostile_fixes(4, 17);
  inside.inside = true;
  inside.enter_s = kMin;
  inside.lat_sum = std::bit_cast<double>(0x7ff80000deadbeefULL);
  inside.lon_sum = -0.0;
  inside.count = 9;
  inside.last_s = kMax;
  inside.stays = hostile_stays(500, 19);
  UserStays& a = original.users.try_emplace("a_inside", original.params).first->second;
  a.fixes = 123456789;
  a.stream = poi::StayPointStream(original.params, inside);

  original.users.try_emplace("b_empty", original.params);

  // Outside a stay: a partial window, a stale entry time, two stays.
  poi::StayPointStream::State outside;
  outside.window = hostile_fixes(0, 23);
  outside.window.pop_back();
  outside.enter_s = -5;
  outside.stays = hostile_stays(2, 29);
  UserStays& c = original.users.try_emplace("c_outside", original.params).first->second;
  c.fixes = 42;
  c.stream = poi::StayPointStream(original.params, outside);

  const std::string encoded = encode_snapshot(original);
  const ShardSnapshot restored = parse_snapshot(encoded);
  EXPECT_EQ(restored.shard, original.shard);
  EXPECT_EQ(restored.seq, original.seq);
  EXPECT_EQ(restored.last_seq, original.last_seq);
  EXPECT_EQ(restored.params, original.params);
  EXPECT_EQ(restored.fix_count(), 123456789u + 42u);
  ASSERT_EQ(restored.users.size(), original.users.size());
  for (const auto& [user, held] : original.users) {
    ASSERT_EQ(restored.users.count(user), 1u) << user;
    EXPECT_TRUE(same_user(restored.users.at(user), held)) << user;
  }
  EXPECT_EQ(encode_snapshot(restored), encoded);

  // Frame layout: the header with its 24-byte parameter record, then one
  // frame per user: fix count, window records, the 48-byte open-stay
  // record, 40-byte stay records.
  wire::FrameDecoder decoder;
  const std::string body = encoded.substr(encoded.find('\n') + 1);
  decoder.feed(body.data(), body.size());
  std::vector<std::string> fields;
  std::vector<std::vector<std::string>> frames;
  while (decoder.next(fields)) {
    std::vector<std::string> shape = {fields[0]};
    for (std::size_t i = 1; i < fields.size(); ++i)
      shape.push_back(i == 1 && fields.size() == 5 ? fields[1]
                                                   : std::to_string(fields[i].size()));
    frames.push_back(shape);
  }
  EXPECT_EQ(decoder.buffered(), 0u);
  const std::vector<std::vector<std::string>> expected = {
      {"3", "1", "19", "24"},
      {"a_inside", "123456789", "192", "48", "20000"},
      {"b_empty", "0", "0", "48", "0"},
      {"c_outside", "42", "72", "48", "80"}};
  EXPECT_EQ(frames, expected);
}

TEST(SnapshotCodec, HostileStructureIsAResumeError) {
  const std::string params = packed(50.0, std::int64_t{600}, std::uint64_t{4});
  const std::string header = wire::encode_message({"1", "2", "3", params});
  const std::string window = wire::pack_fixes(hostile_fixes(0, 29));
  const std::string open = packed(std::uint64_t{0}, std::int64_t{0}, 0.0, 0.0,
                                  std::uint64_t{0}, std::int64_t{0});
  const std::vector<poi::StayPoint> stays = hostile_stays(2, 31);
  const std::string stay_records(reinterpret_cast<const char*>(stays.data()),
                                 stays.size() * sizeof(poi::StayPoint));
  const auto user_frame = [&](const std::string& name) {
    return wire::encode_message({name, "9", window, open, stay_records});
  };
  const std::string user = user_frame("u");

  // The well-formed control parses, so each case below fails on its defect.
  EXPECT_EQ(parse_snapshot(checksummed(header + user)).fix_count(), 9u);

  const auto with_field = [&](std::size_t index, const std::string& value) {
    std::vector<std::string> fields = {"u", "9", window, open, stay_records};
    fields[index] = value;
    return checksummed(header + wire::encode_message(fields));
  };
  expect_resume_error(with_field(2, window.substr(1)), "partial window record",
                      "partial stream record");
  expect_resume_error(with_field(3, open + open), "two open-stay records",
                      "partial stream record");
  expect_resume_error(
      with_field(3, packed(std::uint64_t{2}, std::int64_t{0}, 0.0, 0.0,
                           std::uint64_t{0}, std::int64_t{0})),
      "inside flag 2", "partial stream record");
  expect_resume_error(with_field(4, stay_records + "x"), "partial stay record",
                      "partial stream record");
  expect_resume_error(with_field(1, "-9"), "negative fix count", "bad fix count");
  expect_resume_error(checksummed(wire::encode_message({"1", "2", "3"}) + user),
                      "3-field header frame", "no {shard, seq, last_seq, params}");
  expect_resume_error(
      checksummed(wire::encode_message({"1", "2", "3", params.substr(1)}) + user),
      "partial parameter record", "no extraction parameter record");
  expect_resume_error(
      checksummed(wire::encode_message(
                      {"1", "2", "3", packed(50.0, std::int64_t{600}, std::uint64_t{5})}) +
                  user),
      "odd window", "invalid extraction parameters");
  expect_resume_error(
      checksummed(header + user + user.substr(0, user.size() - 5)),
      "trailing partial frame", "malformed or truncated frame");
  expect_resume_error(checksummed(header + wire::encode_message({"u", "9", window, open})),
                      "4-field user frame", "user frame is not");
  expect_resume_error(checksummed(header + user_frame("v") + user), "users out of order",
                      "out of order or repeated");
  expect_resume_error(checksummed(header + user + user), "user in two frames",
                      "out of order or repeated");
  expect_resume_error(checksummed(""), "no header frame", "no {shard, seq");
  expect_resume_error(checksummed(wire::encode_message({"1", "-2", "3", params})),
                      "negative seq", "bad seq");
  // The two previous formats: v1 text, and a well-formed v2 file (a
  // {shard, seq, last_seq} frame, then {user, fix records}).
  expect_resume_error(
      "locprivd-snapshot v1 checksum 73921ec01214ffb0\n"
      "shard 0 seq 1 last_seq 0 users 0 fixes 0\n",
      "v1 text snapshot", "bad magic");
  expect_resume_error(checksummed(wire::encode_message({"1", "2", "3"}) +
                                      wire::encode_message({"u", window}),
                                  "locprivd-snapshot v2"),
                      "v2 snapshot", "bad magic");
}

TEST(SnapshotCodec, UnreachableStreamStateIsAResumeError) {
  const poi::ExtractionParams params{50.0, 600, 4};
  const std::string header =
      wire::encode_message({"1", "2", "3", packed(50.0, std::int64_t{600}, std::uint64_t{4})});
  const auto snapshot = [&](std::size_t window_fixes, const std::string& open) {
    return checksummed(header + wire::encode_message(
                                    {"u", "9", wire::pack_fixes(hostile_fixes(window_fixes - 4, 37)),
                                     open, ""}));
  };
  const auto open = [](std::uint64_t inside, double lat_sum, std::uint64_t count) {
    return packed(inside, std::int64_t{0}, lat_sum, 0.0, count, std::int64_t{0});
  };
  // Controls: a full window outside a stay, and a just-entered stay.
  EXPECT_EQ(parse_snapshot(snapshot(4, open(0, 0.0, 0))).fix_count(), 9u);
  EXPECT_EQ(parse_snapshot(snapshot(4, open(1, 80.0, 2))).fix_count(), 9u);

  expect_resume_error(snapshot(5, open(0, 0.0, 0)), "window past window_fixes",
                      "a window of 5 fixes, longer than 4");
  expect_resume_error(snapshot(4, open(0, 0.0, 3)), "open-stay count outside a stay",
                      "an open stay's sums outside a stay");
  expect_resume_error(snapshot(4, open(0, -0.0, 0)), "open-stay sum outside a stay",
                      "an open stay's sums outside a stay");
  expect_resume_error(snapshot(4, open(1, 80.0, 1)), "open stay under the entry half",
                      "fewer than the entry half");

  // The stream's restoring constructor is where the check lives.
  poi::StayPointStream::State state;
  state.window = hostile_fixes(1, 41);
  try {
    poi::StayPointStream stream(params, state);
    ADD_FAILURE() << "restored a window of 5 fixes under window_fixes 4";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
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
      {"hostile_user_count", "partial stream record"},
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
