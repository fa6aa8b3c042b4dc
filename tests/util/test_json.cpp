// JSON parser unit tests, including the line:column diagnostics contract
// that `mph_proto conform` / `mph_inspect trace` error messages rely on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/util/json.hpp"

namespace u = mph::util;

namespace {

/// Parse and return the failure message (the input must be malformed).
std::string parse_error(std::string_view text) {
  try {
    (void)u::JsonValue::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "input parsed successfully: " << text;
  return {};
}

}  // namespace

TEST(Json, ParsesScalarsAndContainers) {
  const u::JsonValue doc = u::JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})");
  EXPECT_DOUBLE_EQ(doc.at("a").as_number(), 1.5);
  EXPECT_TRUE(doc.at("b").at(0).as_bool());
  EXPECT_TRUE(doc.at("b").at(1).is_null());
  EXPECT_EQ(doc.at("b").at(2).as_string(), "x\n");
  EXPECT_EQ(doc.at("c").at("d").as_int(), -3);
}

TEST(Json, ErrorsReportLineAndColumnNotByteOffset) {
  // Regression for the multiline case: the bad token sits on line 4, and
  // the report must say so instead of printing a byte offset nobody can
  // map back to a position in an editor.
  const std::string text =
      "{\n"
      "  \"events\": [\n"
      "    {\"name\": \"send\"},\n"
      "    {\"name\": oops}\n"
      "  ]\n"
      "}\n";
  const std::string what = parse_error(text);
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  EXPECT_NE(what.find("column 14"), std::string::npos) << what;
  EXPECT_EQ(what.find("byte"), std::string::npos) << what;
}

TEST(Json, ErrorOnFirstLineIsColumnAccurate) {
  const std::string what = parse_error("[1, 2, }");
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("column 8"), std::string::npos) << what;
}

TEST(Json, TrailingGarbageNamesItsPosition) {
  const std::string what = parse_error("{}\n{}");
  EXPECT_NE(what.find("trailing characters"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
}

TEST(Json, UnterminatedStringPointsPastTheOpeningQuote) {
  const std::string what = parse_error("{\"key\": \"value");
  EXPECT_NE(what.find("unterminated string"), std::string::npos) << what;
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
}

TEST(Json, EscaperEmitsTheWritersBytesAndParsesBack) {
  const std::string raw = std::string("q\"b\\n\nr\rt\t") + '\x01' + "z";
  std::string body;
  u::append_json_escaped(body, raw);
  EXPECT_EQ(body, "q\\\"b\\\\n\\nr\\rt\\t\\u0001z");
  EXPECT_EQ(u::JsonValue::parse("\"" + body + "\"").as_string(), raw);
}

TEST(Json, ParseErrorCarriesTheByteOffset) {
  try {
    (void)u::JsonValue::parse("{\n  \"a\": oops}");
    FAIL() << "expected a parse error";
  } catch (const u::JsonError& e) {
    EXPECT_EQ(e.offset(), 9u);
    EXPECT_NE(std::string(e.what()).find("line 2, column 8"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, Uint64ReadsTheNumbersOwnTextExactly) {
  const u::JsonValue doc = u::JsonValue::parse(
      "[18446744073709551615, 9223372036854775809, 0, -1, 1.5, 1e3, "
      "18446744073709551616]");
  EXPECT_EQ(doc.at(0).as_uint64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at(1).as_uint64(), 9223372036854775809ull);
  EXPECT_EQ(doc.at(2).as_uint64(), 0u);
  for (std::size_t i = 3; i < 7; ++i) {
    EXPECT_THROW((void)doc.at(i).as_uint64(), std::runtime_error) << i;
  }
  EXPECT_THROW((void)u::JsonValue::parse("\"7\"").as_uint64(),
               std::runtime_error);
}
