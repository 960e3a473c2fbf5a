#include <gtest/gtest.h>

#include <cstdint>

#include "mel/obs/json.hpp"

namespace mel::obs {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").boolean);
  EXPECT_FALSE(json::parse("false").boolean);
  const auto n = json::parse("-42");
  ASSERT_TRUE(n.is_number());
  EXPECT_TRUE(n.is_integer);
  EXPECT_EQ(n.as_int(), -42);
  const auto d = json::parse("2.5e3");
  ASSERT_TRUE(d.is_number());
  EXPECT_FALSE(d.is_integer);
  EXPECT_DOUBLE_EQ(d.number, 2500.0);
}

TEST(JsonParse, LargeIntegersStayExact) {
  // Beyond the 2^53 double mantissa: exactness must survive.
  const auto v = json::parse("9007199254740995");
  ASSERT_TRUE(v.is_integer);
  EXPECT_EQ(v.integer, 9007199254740995LL);
}

TEST(JsonParse, Uint64sAboveInt64StayExact) {
  std::uint64_t u = 0;
  EXPECT_TRUE(json::parse("18446744073709551615").to_uint64(u));
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_TRUE(json::parse("9223372036854775808").to_uint64(u));
  EXPECT_EQ(u, 9223372036854775808ull);
  EXPECT_TRUE(json::parse("42").to_uint64(u));
  EXPECT_EQ(u, 42u);
  EXPECT_TRUE(json::parse("2.5").to_uint64(u));
  EXPECT_EQ(u, 2u);
  std::int64_t i = 0;
  EXPECT_FALSE(json::parse("9223372036854775808").to_int64(i));
  // No uint64 holds these, and `out` is left alone.
  u = 7;
  for (const char* text :
       {"-1", "18446744073709551616", "1e20", "1e400", "-1e400"}) {
    EXPECT_FALSE(json::parse(text).to_uint64(u)) << text;
    EXPECT_EQ(u, 7u) << text;
  }
}

TEST(JsonParse, NestedStructure) {
  const auto v = json::parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": -1.5})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].as_int(), 2);
  EXPECT_EQ(a->array[2].find("b")->string, "x");
  EXPECT_TRUE(v.find("c")->find("d")->is_null());
  EXPECT_DOUBLE_EQ(v.find("e")->number, -1.5);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(json::parse(""), json::ParseError);
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("[1,]2"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("tru"), json::ParseError);
  EXPECT_THROW(json::parse(std::string("\"a\x01b\"", 5)), json::ParseError);
}

TEST(JsonParse, DecodesEscapes) {
  const auto v = json::parse(R"("a\"b\\c\ndAeé")");
  EXPECT_EQ(v.string, "a\"b\\c\ndAe\xc3\xa9");
}

// The golden round trip: every hostile string the writers might emit goes
// escape -> embed -> parse and must come back byte-identical.
TEST(JsonEscape, GoldenRoundTripThroughParser) {
  const std::string nasty[] = {
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n tab\t cr\r",
      std::string("nul\x00mid", 7),
      std::string("\x01\x02\x1f", 3),
      "utf8 \xc3\xa9\xe2\x82\xac intact",
      "{\"fake\":\"json\"}",
      "trailing backslash\\",
  };
  for (const auto& s : nasty) {
    const std::string doc = "{\"k\":\"" + json_escape(s) + "\"}";
    const auto v = json::parse(doc);
    ASSERT_NE(v.find("k"), nullptr) << doc;
    EXPECT_EQ(v.find("k")->string, s) << doc;
  }
}

}  // namespace
}  // namespace mel::obs
