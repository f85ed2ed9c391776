// Resilient Geolife ingestion: quarantining lenient mode, strict-mode
// errors with file context, and line-ending tolerance in parse_plt.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/geolife.hpp"

namespace locpriv::trace {
namespace {

namespace fs = std::filesystem;

/// A three-user dataset on disk; returns its root. The caller owns cleanup.
/// The directory is keyed by the running test's name: ctest -j runs each
/// TEST as its own process, and a shared path would let concurrent Ingest
/// tests remove_all each other's fixtures mid-read.
fs::path write_fixture_dataset() {
  const fs::path root =
      fs::temp_directory_path() /
      (std::string("locpriv_ingest_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(root);

  const auto add_session = [](UserTrace& user, std::initializer_list<TracePoint> fixes) {
    user.begin_session();
    for (const auto& fix : fixes) user.append(fix);
  };
  std::vector<UserTrace> users(3);
  users[0].user_id = "000";
  add_session(users[0], {{{39.90, 116.40}, 1224814000}, {{39.91, 116.41}, 1224814060}});
  add_session(users[0], {{{39.92, 116.42}, 1224900000}, {{39.93, 116.43}, 1224900060}});
  users[1].user_id = "001";
  add_session(users[1], {{{40.00, 116.30}, 1224814000}});
  users[2].user_id = "002";
  add_session(users[2], {{{40.10, 116.20}, 1224814000}, {{40.11, 116.21}, 1224814030}});
  write_geolife_dataset(root, users);
  return root;
}

void overwrite(const fs::path& path, const std::string& content) {
  // Fixture corruption on purpose: this test plants exactly the torn and
  // corrupt files the atomic writer prevents. locpriv-lint: allow(raw-write)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

const std::string kPltHeader = "h1\nh2\nh3\nh4\nh5\nh6\n";

TEST(Ingest, LenientQuarantinesCorruptFileAndLoadsTheRest) {
  const fs::path root = write_fixture_dataset();
  const fs::path corrupt = root / "001" / "Trajectory" / "000000.plt";
  overwrite(corrupt, kPltHeader + "garbage,record\n");
  // An empty file is not an error: it parses to zero records.
  overwrite(root / "002" / "Trajectory" / "000001.plt", "");

  IngestReport report;
  const auto users =
      read_geolife_dataset(root, ReadOptions{.lenient = true}, &report);

  // Users 000 and 002 load in full; 001's only file was quarantined.
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0].user_id, "000");
  EXPECT_EQ(users[0].points().size(), 4u);
  EXPECT_EQ(users[1].user_id, "002");
  EXPECT_EQ(users[1].points().size(), 2u);

  EXPECT_EQ(report.files_scanned, 5u);
  EXPECT_EQ(report.files_loaded, 3u);
  EXPECT_EQ(report.empty_files, 1u);
  EXPECT_EQ(report.points_loaded, 6u);
  EXPECT_EQ(report.users_loaded, 2u);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.quarantined.size(), 1u);  // Exactly the corrupt file.
  EXPECT_EQ(report.quarantined[0].path, corrupt);
  EXPECT_NE(report.quarantined[0].error.find("line 7"), std::string::npos)
      << report.quarantined[0].error;

  fs::remove_all(root);
}

TEST(Ingest, StrictModeThrowsWithFileAndLineContext) {
  const fs::path root = write_fixture_dataset();
  const fs::path corrupt = root / "001" / "Trajectory" / "000000.plt";
  overwrite(corrupt, kPltHeader + "39.9,116.4,0,0,39745.0\nabc,1,2,3,4\n");

  try {
    read_geolife_dataset(root);
    FAIL() << "expected strict mode to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(corrupt.string()), std::string::npos) << what;
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;
  }
  fs::remove_all(root);
}

TEST(Ingest, StrictModeStillFillsTheReportWhenClean) {
  const fs::path root = write_fixture_dataset();
  IngestReport report;
  const auto users = read_geolife_dataset(root, ReadOptions{}, &report);
  ASSERT_EQ(users.size(), 3u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_scanned, 4u);
  EXPECT_EQ(report.files_loaded, 4u);
  EXPECT_EQ(report.points_loaded, 7u);
  EXPECT_EQ(report.users_loaded, 3u);
  fs::remove_all(root);
}

TEST(Ingest, LenientAndStrictAgreeOnCleanData) {
  const fs::path root = write_fixture_dataset();
  const auto strict = read_geolife_dataset(root);
  const auto lenient = read_geolife_dataset(root, ReadOptions{.lenient = true});
  ASSERT_EQ(strict.size(), lenient.size());
  for (std::size_t u = 0; u < strict.size(); ++u) {
    EXPECT_EQ(strict[u].user_id, lenient[u].user_id);
    EXPECT_EQ(strict[u].points(), lenient[u].points());
  }
  fs::remove_all(root);
}

// A file whose fixes fall inside user 000's first session (1224814000 to
// 1224814060); its path sorts after both of that user's files.
fs::path plant_overlapping_session(const fs::path& root) {
  const fs::path path = root / "000" / "Trajectory" / "000002.plt";
  const std::vector<TracePoint> fixes{{{39.95, 116.45}, 1224814020},
                                      {{39.95, 116.45}, 1224814021},
                                      {{39.95, 116.45}, 1224814022}};
  overwrite(path, write_plt(fixes));
  return path;
}

TEST(Ingest, StrictModeRejectsAnOverlappingSession) {
  const fs::path root = write_fixture_dataset();
  const fs::path overlapping = plant_overlapping_session(root);
  try {
    read_geolife_dataset(root);
    FAIL() << "expected strict mode to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(overlapping.string()), std::string::npos) << what;
    EXPECT_NE(what.find("overlaps the previous session"), std::string::npos) << what;
  }
  fs::remove_all(root);
}

TEST(Ingest, LenientQuarantinesAnOverlappingSession) {
  const fs::path root = write_fixture_dataset();
  const auto clean = read_geolife_dataset(root);
  const fs::path overlapping = plant_overlapping_session(root);

  IngestReport report;
  const auto users = read_geolife_dataset(root, ReadOptions{.lenient = true}, &report);
  EXPECT_EQ(report.files_scanned, 5u);
  EXPECT_EQ(report.files_loaded, 4u);
  EXPECT_EQ(report.points_loaded, 7u);
  EXPECT_EQ(report.users_loaded, 3u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].path, overlapping);

  // The corpus loads as if the file were not there.
  ASSERT_EQ(users.size(), clean.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    EXPECT_EQ(users[u].user_id, clean[u].user_id);
    EXPECT_EQ(users[u].points(), clean[u].points());
    EXPECT_EQ(users[u].session_count(), clean[u].session_count());
  }
  fs::remove_all(root);
}

TEST(Ingest, SessionsSharingAFirstFixLoadInTheirOnlyValidOrder) {
  // 000000.plt runs from t to t + 60 and 000001.plt holds one fix at t.
  // Path order (or a sort on the first fix alone) could put the long file
  // first, and then the single fix would start before it ends. Sorting on
  // the last fix next puts the single fix first, which is valid.
  const fs::path root =
      fs::temp_directory_path() / "locpriv_ingest_test_SharedFirstFix";
  fs::remove_all(root);
  const fs::path dir = root / "000" / "Trajectory";
  fs::create_directories(dir);
  const std::vector<TracePoint> long_session{{{39.90, 116.40}, 1224814000},
                                             {{39.91, 116.41}, 1224814060}};
  const std::vector<TracePoint> single_fix{{{39.92, 116.42}, 1224814000}};
  overwrite(dir / "000000.plt", write_plt(long_session));
  overwrite(dir / "000001.plt", write_plt(single_fix));

  const auto users = read_geolife_dataset(root);
  ASSERT_EQ(users.size(), 1u);
  ASSERT_EQ(users[0].session_count(), 2u);
  ASSERT_EQ(users[0].session(0).size(), 1u);
  EXPECT_NEAR(users[0].session(0)[0].position.lat_deg, 39.92, 1e-6);
  ASSERT_EQ(users[0].session(1).size(), 2u);
  EXPECT_NEAR(users[0].session(1)[0].position.lat_deg, 39.90, 1e-6);
  fs::remove_all(root);
}

TEST(ParsePlt, ToleratesCrlfLoneCrAndTrailingBlankLines) {
  const std::string record1 = "39.906631,116.385564,0,492,39745.0902662037";
  const std::string record2 = "39.906554,116.385625,0,492,39745.0903240741";
  const std::string lf =
      "h1\nh2\nh3\nh4\nh5\nh6\n" + record1 + "\n" + record2 + "\n";
  const std::string crlf = "h1\r\nh2\r\nh3\r\nh4\r\nh5\r\nh6\r\n" + record1 +
                           "\r\n" + record2 + "\r\n\r\n\r\n";
  const std::string lone_cr =
      "h1\rh2\rh3\rh4\rh5\rh6\r" + record1 + "\r" + record2 + "\r\r";

  const auto baseline = parse_plt(lf);
  ASSERT_EQ(baseline.size(), 2u);
  for (const std::string& variant : {crlf, lone_cr}) {
    const auto parsed = parse_plt(variant);
    ASSERT_EQ(parsed.size(), baseline.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i].position, baseline[i].position);
      EXPECT_EQ(parsed[i].timestamp_s, baseline[i].timestamp_s);
    }
  }
}

TEST(ParsePlt, MalformedRecordStillThrowsWithLineNumber) {
  const std::string text =
      "h1\r\nh2\r\nh3\r\nh4\r\nh5\r\nh6\r\n"
      "39.9,116.4,0,0,39745.0\r\n"
      "39.9,not-a-longitude,0,0,39745.0\r\n";
  try {
    parse_plt(text);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 8"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace locpriv::trace
