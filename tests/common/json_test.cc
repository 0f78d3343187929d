// The shared JSON module: the strict reader's grammar, its nesting bound,
// the duplicate-key rule, and JsonQuote/ParseJson round trips.
#include "common/json.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dmac {
namespace {

std::string Nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonTest, ParsesEveryValueType) {
  auto v = ParseJson(
      " {\"a\": [0, -2.5e3, 1E+2, true, false, null, \"s\\/\"],\n"
      "  \"b\": {}}\t");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_EQ(v->type, JsonValue::Type::kObject);
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 7u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -2500.0);
  EXPECT_DOUBLE_EQ(a->array[2].number, 100.0);
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].type, JsonValue::Type::kBool);
  EXPECT_FALSE(a->array[4].boolean);
  EXPECT_EQ(a->array[5].type, JsonValue::Type::kNull);
  EXPECT_EQ(a->array[6].string, "s/");
  EXPECT_EQ(v->Find("b")->type, JsonValue::Type::kObject);
  EXPECT_EQ(v->Find("c"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",         "  ",        "1-2",       "+1",          ".5",
      "1.2.3",    "01",        "1.",        "-",           "1e",
      "1e999",    "[1,]",      "[1 2]",     "{\"a\" 1}",   "{1: 2}",
      "{\"a\":}", "tru",       "nul",       "[1] x",       "\v1",
      "\"abc",    "\"\\x\"",   "\"\\uZZZZ\"", "\"\\u12\"", "\"\\ud800\"",
      "\"\\udc00\"", "\"\\ud800\\u0041\"",
  };
  for (const char* text : bad) {
    auto v = ParseJson(text);
    ASSERT_FALSE(v.ok()) << "accepted: " << text;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // Raw control characters are never valid inside a string.
  for (int c = 0x01; c < 0x20; ++c) {
    const std::string text = std::string("\"a") + static_cast<char>(c) + "\"";
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted control byte " << c;
  }
}

TEST(JsonTest, NestingUpToTheLimitParses) {
  EXPECT_TRUE(ParseJson(Nested(kJsonMaxDepth)).ok());
}

TEST(JsonTest, NestingPastTheLimitIsInvalidArgument) {
  auto arrays = ParseJson(Nested(kJsonMaxDepth + 1));
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().code(), StatusCode::kInvalidArgument);

  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "0" + std::string(static_cast<size_t>(kJsonMaxDepth) + 1, '}');
  auto nested = ParseJson(objects);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, MillionOpenBracketsIsAnErrorNotACrash) {
  auto v = ParseJson(std::string(1000000, '['));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, DuplicateKeysLastWins) {
  auto v = ParseJson("{\"a\": 1, \"b\": 2, \"a\": 3}");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->object.size(), 3u);
  EXPECT_DOUBLE_EQ(v->Find("a")->number, 3.0);
  EXPECT_DOUBLE_EQ(v->Find("b")->number, 2.0);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto v = ParseJson("\"\\u0041\\u00e9\\u20AC\\ud83d\\ude00\\u0000\"");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->string, std::string("A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80") +
                           std::string(1, '\0'));
}

TEST(JsonTest, QuoteEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("a\"b\\c/\xC3\xA9"), "\"a\\\"b\\\\c/\xC3\xA9\"");
  EXPECT_EQ(JsonQuote("\n\t\r\b\f"), "\"\\n\\t\\r\\u0008\\u000c\"");
  EXPECT_EQ(JsonQuote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(JsonTest, QuoteRoundTripsGeneratedByteStrings) {
  // Every byte value once, then random strings biased toward the bytes
  // the quoter escapes (control bytes, '"' and '\\').
  std::string every;
  for (int c = 0; c < 256; ++c) every.push_back(static_cast<char>(c));
  std::vector<std::string> inputs = {every};
  Rng rng(20);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng.NextBounded(48), '\0');
    for (char& c : s) {
      switch (rng.NextBounded(4)) {
        case 0:
          c = static_cast<char>(1 + rng.NextBounded(0x1f));
          break;
        case 1:
          c = rng.NextBounded(2) == 0 ? '"' : '\\';
          break;
        default:
          c = static_cast<char>(rng.NextBounded(256));
      }
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    auto v = ParseJson(JsonQuote(s));
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_EQ(v->type, JsonValue::Type::kString);
    ASSERT_EQ(v->string, s);
  }
}

}  // namespace
}  // namespace dmac
