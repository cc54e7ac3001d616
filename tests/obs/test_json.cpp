/// \file test_json.cpp
/// \brief The shared JSON reader's bounds: the depth constant, the
/// closed error codes with their offsets, escape decoding, UTF-8 and
/// number checks, and skip_value's raw spans.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace {

using namespace mcps::obs;

json::Errc error_code_of(const std::string& text) {
    try {
        (void)json::parse(text);
    } catch (const json::Error& e) {
        return e.code;
    }
    ADD_FAILURE() << "parsed: " << text;
    return json::Errc::kTrailing;
}

std::string nested(int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, DepthBoundIsOneConstant) {
    EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
    EXPECT_EQ(error_code_of(nested(json::kMaxDepth + 1)), json::Errc::kDepth);
    // The cursor's skip_value counts from the document root too.
    const std::string doc = "{\"a\":" + nested(json::kMaxDepth) + "}";
    json::Cursor c{doc};
    c.expect('{');
    EXPECT_EQ(c.string(), "a");
    c.expect(':');
    try {
        (void)c.skip_value();
        FAIL() << "expected a depth error";
    } catch (const json::Error& e) {
        EXPECT_EQ(e.code, json::Errc::kDepth);
        EXPECT_EQ(e.offset, 5u + json::kMaxDepth - 1);
    }
}

TEST(Json, ErrorCodesAreClosedAndCarryAnOffset) {
    EXPECT_EQ(error_code_of(""), json::Errc::kEnd);
    EXPECT_EQ(error_code_of("[1,"), json::Errc::kEnd);
    EXPECT_EQ(error_code_of("\"abc"), json::Errc::kEnd);
    EXPECT_EQ(error_code_of("[1,]"), json::Errc::kSyntax);
    EXPECT_EQ(error_code_of("{'a':1}"), json::Errc::kSyntax);
    EXPECT_EQ(error_code_of("tru"), json::Errc::kSyntax);
    EXPECT_EQ(error_code_of("\v1"), json::Errc::kSyntax);  // not RFC space
    EXPECT_EQ(error_code_of("\"a\tb\""), json::Errc::kString);
    EXPECT_EQ(error_code_of(R"("\x")"), json::Errc::kString);
    EXPECT_EQ(error_code_of(R"("\ud800")"), json::Errc::kString);
    EXPECT_EQ(error_code_of(R"("\udc00\ud800")"), json::Errc::kString);
    EXPECT_EQ(error_code_of("\"\xC0\xAF\""), json::Errc::kUtf8);
    EXPECT_EQ(error_code_of("\"\xED\xA0\x80\""), json::Errc::kUtf8);
    EXPECT_EQ(error_code_of("-"), json::Errc::kNumber);
    EXPECT_EQ(error_code_of("1."), json::Errc::kNumber);
    EXPECT_EQ(error_code_of("1e999"), json::Errc::kNumber);
    EXPECT_EQ(error_code_of("01"), json::Errc::kTrailing);
    EXPECT_EQ(error_code_of("{} x"), json::Errc::kTrailing);
    try {
        (void)json::parse("[1, 2, x]");
        FAIL();
    } catch (const json::Error& e) {
        EXPECT_EQ(e.offset, 7u);
        EXPECT_STREQ(e.what(), "expected a value, got 'x' at offset 7");
    }
}

TEST(Json, EscapesDecodeToUtf8) {
    const json::Value v = json::parse(
        R"(["\"\\\/\b\f\n\r\t", "\u0041\u00e9\u20AC", "\ud83d\udc89"])");
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_EQ(v.array[0].string, "\"\\/\b\f\n\r\t");
    EXPECT_EQ(v.array[1].string, "A\xC3\xA9\xE2\x82\xAC");
    EXPECT_EQ(v.array[2].string, "\xF0\x9F\x92\x89");
    // Raw UTF-8 passes through unchanged.
    EXPECT_EQ(json::parse("\"caf\xC3\xA9\"").string, "caf\xC3\xA9");
}

TEST(Json, NumbersAndIntegers) {
    const json::Value v = json::parse("[-0.5e2, 4.9406564584124654e-324, 0]");
    EXPECT_EQ(v.array[0].number, -50.0);
    EXPECT_GT(v.array[1].number, 0.0);

    json::Cursor c{"[9223372036854775807, 18446744073709551615, 1.0, -1]"};
    c.expect('[');
    EXPECT_EQ(c.number<std::int64_t>(), INT64_MAX);
    c.expect(',');
    EXPECT_EQ(c.number<std::uint64_t>(), UINT64_MAX);
    c.expect(',');
    EXPECT_THROW((void)c.number<std::int64_t>(), json::Error);  // 1.0
    json::Cursor neg{"-1"};
    EXPECT_THROW((void)neg.number<std::uint64_t>(), json::Error);
    json::Cursor big{"9223372036854775808"};
    EXPECT_THROW((void)big.number<std::int64_t>(), json::Error);
}

TEST(Json, SkipValueReturnsTheRawSpan) {
    json::Cursor c{R"( {"a": [1, {"b": "x\"y"}], "c": null} , 7)"};
    EXPECT_EQ(c.skip_value(), R"({"a": [1, {"b": "x\"y"}], "c": null})");
    c.expect(',');
    EXPECT_EQ(c.skip_value(), "7");
    EXPECT_TRUE(c.at_end());
}

TEST(Json, ObjectsKeepOrderAndFirstMemberWins) {
    const json::Value v = json::parse(R"({"k": 1, "j": true, "k": 2})");
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[1].first, "j");
    EXPECT_EQ(v.get("k")->number, 1.0);
    EXPECT_TRUE(v.get("j")->boolean);
    EXPECT_EQ(v.get("missing"), nullptr);
    EXPECT_EQ(v.get("k")->get("k"), nullptr);  // not an object
}

}  // namespace
