#include <gtest/gtest.h>

#include <sstream>

#include "core/harness/error.hpp"
#include "market/catalog.hpp"
#include "market/report_io.hpp"
#include "market/study.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"

namespace locpriv {
namespace {

util::Args standard_args() {
  util::Args args;
  args.declare("--users", "12");
  args.declare("--out", "");
  args.declare_bool("--verbose");
  return args;
}

TEST(Args, DefaultsApplyWhenNotSupplied) {
  util::Args args = standard_args();
  const char* argv[] = {"prog"};
  args.parse(1, argv);
  EXPECT_EQ(args.get("--users"), "12");
  EXPECT_EQ(args.get_int("--users"), 12);
  EXPECT_FALSE(args.supplied("--users"));
  EXPECT_FALSE(args.get_bool("--verbose"));
}

TEST(Args, SpaceAndEqualsSyntax) {
  util::Args args = standard_args();
  const char* argv[] = {"prog", "--users", "30", "--out=/tmp/x", "--verbose"};
  args.parse(5, argv);
  EXPECT_EQ(args.get_int("--users"), 30);
  EXPECT_EQ(args.get("--out"), "/tmp/x");
  EXPECT_TRUE(args.get_bool("--verbose"));
  EXPECT_TRUE(args.supplied("--users"));
}

TEST(Args, PositionalCollected) {
  util::Args args = standard_args();
  const char* argv[] = {"prog", "alpha", "--users", "5", "beta"};
  args.parse(5, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

// Misuse of the command line is a usage error (exit 2); asking for a flag
// the program never declared is a bug in the program.
TEST(Args, ErrorsOnMisuse) {
  const auto usage_error = [](const auto& call) {
    try {
      call();
    } catch (const Error& error) {
      return error.code() == ErrorCode::kUsage;
    }
    return false;
  };
  util::Args args = standard_args();
  const char* unknown[] = {"prog", "--bogus", "1"};
  EXPECT_TRUE(usage_error([&] { args.parse(3, unknown); }));

  util::Args args2 = standard_args();
  const char* missing[] = {"prog", "--users"};
  EXPECT_TRUE(usage_error([&] { args2.parse(2, missing); }));

  util::Args args3 = standard_args();
  const char* bool_value[] = {"prog", "--verbose=1"};
  EXPECT_TRUE(usage_error([&] { args3.parse(2, bool_value); }));

  util::Args args4 = standard_args();
  const char* argv[] = {"prog", "--users", "abc"};
  args4.parse(3, argv);
  EXPECT_TRUE(usage_error([&] { args4.get_int("--users"); }));
  EXPECT_TRUE(usage_error([&] { args4.get_double("--users"); }));
  EXPECT_THROW(args4.get("--undeclared"), std::runtime_error);
}

TEST(Args, ParseFromOffsetSkipsSubcommand) {
  util::Args args = standard_args();
  const char* argv[] = {"prog", "subcommand", "--users", "7"};
  args.parse(4, argv, 2);
  EXPECT_EQ(args.get_int("--users"), 7);
  EXPECT_TRUE(args.positional().empty());
}

TEST(ReportIo, SummaryCsvMatchesReport) {
  const auto catalog = market::generate_catalog(market::CatalogConfig{});
  const auto report = market::run_market_study(catalog, 7);
  std::ostringstream out;
  market::write_summary_csv(out, report);
  const auto doc = util::parse_csv(out.str(), /*has_header=*/true);
  ASSERT_EQ(doc.header.size(), 3u);
  ASSERT_GE(doc.rows.size(), 10u);
  // Every measured value equals its paper value for the calibrated corpus.
  for (const auto& row : doc.rows) EXPECT_EQ(row[1], row[2]) << row[0];
}

TEST(ReportIo, ObservationsCsvHasOneRowPerDeclaringApp) {
  const auto catalog = market::generate_catalog(market::CatalogConfig{});
  const auto report = market::run_market_study(catalog, 7);
  std::ostringstream out;
  market::write_observations_csv(out, report);
  const auto doc = util::parse_csv(out.str(), /*has_header=*/true);
  EXPECT_EQ(doc.rows.size(), static_cast<std::size_t>(report.declaring));
  // Background rows carry a provider combo and a positive interval.
  std::size_t background_rows = 0;
  for (const auto& row : doc.rows) {
    ASSERT_EQ(row.size(), doc.header.size());
    if (row[4] == "1") {
      ++background_rows;
      EXPECT_FALSE(row[5].empty());
      EXPECT_NE(row[6], "0");
    }
  }
  EXPECT_EQ(background_rows, 102u);
}

}  // namespace
}  // namespace locpriv
