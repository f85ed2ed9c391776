#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace locpriv::util {
namespace {

TEST(Expect, ThrowsContractViolationWithContext) {
  try {
    LOCPRIV_EXPECT(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Expect, PassesOnTrueCondition) {
  EXPECT_NO_THROW(LOCPRIV_EXPECT(2 + 2 == 4));
  EXPECT_NO_THROW(LOCPRIV_ENSURE(true));
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto fields = split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\n y z \n"), "y z");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("android.permission.X", "android."));
  EXPECT_FALSE(starts_with("an", "android."));
  EXPECT_TRUE(ends_with("file.plt", ".plt"));
  EXPECT_FALSE(ends_with("plt", ".plt"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseDoubleStrict) {
  double v = -1;
  EXPECT_TRUE(parse_double("39.906631", v));
  EXPECT_DOUBLE_EQ(v, 39.906631);
  EXPECT_TRUE(parse_double("  -5.5 ", v));
  EXPECT_DOUBLE_EQ(v, -5.5);
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("12abc", v));
  EXPECT_FALSE(parse_double("abc", v));
}

TEST(Strings, ParseInt64Strict) {
  long long v = -1;
  EXPECT_TRUE(parse_int64("7200", v));
  EXPECT_EQ(v, 7200);
  EXPECT_TRUE(parse_int64("-3", v));
  EXPECT_EQ(v, -3);
  EXPECT_FALSE(parse_int64("3.5", v));
  EXPECT_FALSE(parse_int64("", v));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.578, 1), "57.8%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Strings, Fnv1aKnownAnswers) {
  // The published FNV-1a 64 vectors. Shard routing and journaled snapshot
  // checksums are these exact values.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Csv, ParseSimpleWithHeader) {
  const auto doc = parse_csv("a,b\n1,2\n3,4\n", /*has_header=*/true);
  ASSERT_EQ(doc.header.size(), 2u);
  EXPECT_EQ(doc.header[0], "a");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][1], "4");
}

TEST(Csv, ParseQuotedFields) {
  const auto doc = parse_csv("\"x,y\",\"he said \"\"hi\"\"\"\nplain,2\n", false);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "x,y");
  EXPECT_EQ(doc.rows[0][1], "he said \"hi\"");
}

TEST(Csv, QuotedFieldsContainingNewlines) {
  // A quoted field may span lines (both LF and CRLF); the record does not
  // end until the closing quote's terminator.
  const auto doc =
      parse_csv("\"line1\nline2\",after\r\n\"crlf\r\ninside\",2\nplain,3\n",
                /*has_header=*/false);
  ASSERT_EQ(doc.rows.size(), 3u);
  ASSERT_EQ(doc.rows[0].size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "line1\nline2");
  EXPECT_EQ(doc.rows[0][1], "after");
  EXPECT_EQ(doc.rows[1][0], "crlf\r\ninside");
  EXPECT_EQ(doc.rows[1][1], "2");
  EXPECT_EQ(doc.rows[2][0], "plain");
}

TEST(Csv, HandlesCrlfAndTrailingNewlines) {
  const auto doc = parse_csv("1,2\r\n3,4\r\n\r\n", false);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "1");
  EXPECT_EQ(doc.rows[1][1], "4");
}

TEST(Csv, EscapeRoundTrip) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
  // Escaped output parses back to the original.
  const std::string field = "tricky,\"field\"\nline2";
  const auto doc = parse_csv(csv_escape(field) + "\n", false);
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], field);
}

TEST(Csv, WriterEscapes) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row({"a", "b,c"});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n");
}

TEST(ConsoleTable, AlignsColumns) {
  ConsoleTable table({"name", "n"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name  | n     |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 12345 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(ConsoleTable, RejectsMismatchedRow) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(Logging, ThresholdFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // These must not crash and must be cheap no-ops below the threshold.
  LOCPRIV_LOG(kDebug, "test") << "suppressed " << 42;
  LOCPRIV_LOG(kInfo, "test") << "suppressed";
  set_log_level(before);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace locpriv::util
