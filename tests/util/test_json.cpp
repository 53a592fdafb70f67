#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace gaia::util {
namespace {

TEST(Json, ParsesScalarsAndStructure) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": "text", "c": [true, false, null], "d": {"e": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  EXPECT_EQ(v.find("b")->string, "text");
  const JsonValue* c = v.find("c");
  ASSERT_TRUE(c != nullptr && c->is_array());
  ASSERT_EQ(c->array.size(), 3u);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_FALSE(c->array[1].boolean);
  EXPECT_TRUE(c->array[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("d")->number_or("e", 0), -2000.0);
}

TEST(Json, MemberOrderIsPreserved) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(Json, StringEscapesRoundTrip) {
  const JsonValue v =
      parse_json(R"({"s": "line\nbreak\ttab \"q\" back\\slash é"})");
  EXPECT_EQ(v.find("s")->string, "line\nbreak\ttab \"q\" back\\slash \xc3\xa9");
  // dump() re-escapes; re-parsing yields the same string.
  const JsonValue again = parse_json(v.dump());
  EXPECT_EQ(again.find("s")->string, v.find("s")->string);
}

TEST(Json, DumpRoundTripsNestedDocuments) {
  const std::string src =
      R"({"ev":[{"name":"k","ts":1.25,"args":{"n":3,"ok":true}},{"name":"m"}]})";
  const JsonValue v = parse_json(src);
  const JsonValue rt = parse_json(v.dump());
  ASSERT_TRUE(rt.is_object());
  const JsonValue* ev = rt.find("ev");
  ASSERT_TRUE(ev != nullptr && ev->is_array());
  ASSERT_EQ(ev->array.size(), 2u);
  EXPECT_EQ(ev->array[0].find("name")->string, "k");
  EXPECT_DOUBLE_EQ(ev->array[0].find("ts")->number, 1.25);
  EXPECT_DOUBLE_EQ(ev->array[0].find("args")->number_or("n", 0), 3.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);                 // truncated
  EXPECT_THROW(parse_json(R"({"a": })"), Error);        // missing value
  EXPECT_THROW(parse_json(R"({"a": 1,})"), Error);      // trailing comma
  EXPECT_THROW(parse_json(R"({"a": 1} extra)"), Error); // trailing garbage
  EXPECT_THROW(parse_json(R"({'a': 1})"), Error);       // single quotes
  EXPECT_THROW(parse_json(R"({"a": 01})"), Error);      // leading zero
  EXPECT_THROW(parse_json(R"({"a": +1})"), Error);      // leading plus
  EXPECT_THROW(parse_json(R"({"a": nul})"), Error);     // bad literal
  EXPECT_THROW(parse_json("{\"a\": \"\x01\"}"), Error); // bare control char
  EXPECT_THROW(parse_json(R"({"a": "\q"})"), Error);    // bad escape
  EXPECT_THROW(parse_json(R"({"a" 1})"), Error);        // missing colon
}

TEST(Json, ErrorsCarryByteOffsets) {
  try {
    (void)parse_json(R"({"ok": 1, "bad": )");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, NumberGrammarIsStrict) {
  EXPECT_DOUBLE_EQ(parse_json("0.5").number, 0.5);
  EXPECT_DOUBLE_EQ(parse_json("-0").number, 0.0);
  EXPECT_DOUBLE_EQ(parse_json("12e-2").number, 0.12);
  EXPECT_THROW(parse_json("."), Error);
  EXPECT_THROW(parse_json("1."), Error);
  EXPECT_THROW(parse_json(".5"), Error);
  EXPECT_THROW(parse_json("1e"), Error);
}

TEST(Json, NestingPastTheBoundIsRejected) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kJsonMaxDepth)));
  EXPECT_THROW((void)parse_json(nested(kJsonMaxDepth + 1)), Error);
  std::string objects = "1";
  for (int i = 0; i <= kJsonMaxDepth; ++i)
    objects = "{\"a\":" + objects + "}";
  EXPECT_THROW((void)parse_json(objects), Error);
  // A hostile input fails with a positioned error instead of recursing
  // the parser off its stack.
  try {
    (void)parse_json(std::string(200000, '['));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
}

TEST(Json, QuoteEscapesEachByteClassOneWay) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("q\"b\\"), R"("q\"b\\")");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), R"("\b\f\n\r\t")");
  EXPECT_EQ(json_quote(std::string("\x01\x1f\0", 3)),
            R"("\u0001\u001f\u0000")");
  // UTF-8, '/' and DEL pass through unchanged.
  EXPECT_EQ(json_quote("\xc3\xa9/\x7f"), "\"\xc3\xa9/\x7f\"");
  const std::string all_low = [] {
    std::string s;
    for (int c = 0; c < 0x80; ++c) s.push_back(static_cast<char>(c));
    return s;
  }();
  EXPECT_EQ(parse_json(json_quote(all_low)).string, all_low);
}

TEST(Json, NumbersAreShortestRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(1e6), "1000000");
  EXPECT_EQ(json_number(-42), "-42");
  EXPECT_EQ(json_number(1.25e-3), "0.00125");
  EXPECT_EQ(json_number(1e300), "1e+300");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  for (const double v : {1.0 / 3.0, 2.0 / 3.0, 5e-324, 1.7976931348623157e308,
                         123456.78901234567, -9.87654321e-12}) {
    const std::string text = json_number(v);
    EXPECT_EQ(parse_json(text).number, v) << text;
  }
  JsonValue nan;
  nan.kind = JsonValue::Kind::kNumber;
  nan.number = std::nan("");
  EXPECT_EQ(nan.dump(), "null");
}

TEST(Json, NullReadsBackAsNan) {
  const JsonValue v = parse_json(R"({"x": 2.5, "gone": null, "s": "1"})");
  EXPECT_EQ(v.find("x")->number_or_nan("x"), 2.5);
  EXPECT_TRUE(std::isnan(v.find("gone")->number_or_nan("gone")));
  EXPECT_THROW((void)v.find("s")->number_or_nan("s"), Error);
}

}  // namespace
}  // namespace gaia::util
