/**
 * @file
 * Tests of the minimal JSON tree (common/json.hh): parsing, exact
 * 64-bit integer round-trips, ordered dumping, and error reporting.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"

namespace
{

using sim::json::Error;
using sim::json::parse;
using sim::json::Value;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_EQ(parse("42").asU64(), 42u);
    EXPECT_EQ(parse("-17").asI64(), -17);
    EXPECT_DOUBLE_EQ(parse("2.5").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(parse("1e3").asDouble(), 1000.0);
    EXPECT_EQ(parse("\"hi\"").asStr(), "hi");
}

TEST(Json, U64RoundTripsExactly)
{
    // 2^64 - 1 is not representable as a double; the parser must keep
    // integer tokens exact.
    const auto v = parse("18446744073709551615");
    EXPECT_EQ(v.asU64(), 18446744073709551615ULL);
    EXPECT_EQ(v.dump(), "18446744073709551615");
    EXPECT_EQ(parse("-9223372036854775808").asI64(),
              std::int64_t{-9223372036854775807LL - 1});
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    const auto v = parse(R"({"z":1,"a":2,"m":{"x":[1,2,3]}})");
    EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":{"x":[1,2,3]}})");
    EXPECT_EQ(v.get("a").asU64(), 2u);
    EXPECT_EQ(v.get("m").get("x").at(1).asU64(), 2u);
    EXPECT_TRUE(v.opt("missing").isNull());
    EXPECT_FALSE(v.has("missing"));
    EXPECT_THROW(v.get("missing"), Error);
}

TEST(Json, StringEscapes)
{
    const auto v = parse(R"("a\"b\\c\n\t\u0041\u00e9")");
    EXPECT_EQ(v.asStr(), "a\"b\\c\n\tA\xc3\xa9");
    EXPECT_EQ(Value::str("x\ny\"").dump(), R"("x\ny\"")");
    // Control characters dump as \u escapes and re-parse.
    const std::string s = Value::str(std::string("\x01", 1)).dump();
    EXPECT_EQ(s, R"("\u0001")");
    EXPECT_EQ(parse(s).asStr(), std::string("\x01", 1));
}

TEST(Json, SurrogatePairs)
{
    EXPECT_EQ(parse(R"("\ud83d\ude00")").asStr(),
              "\xf0\x9f\x98\x80"); // U+1F600
    EXPECT_THROW(parse(R"("\ud83d")"), Error);
    EXPECT_THROW(parse(R"("\udc00")"), Error);
}

TEST(Json, BuilderDumps)
{
    Value root = Value::obj();
    root.set("ok", Value::boolean(true));
    root.set("n", Value::intNum(5));
    Value jobs = Value::arr();
    jobs.push(Value::str("a"));
    jobs.push(Value::num(0.5));
    root.set("jobs", std::move(jobs));
    EXPECT_EQ(root.dump(), R"({"ok":true,"n":5,"jobs":["a",0.5]})");
    // set() on an existing key replaces in place, keeping order.
    root.set("n", Value::intNum(6));
    EXPECT_EQ(root.dump(), R"({"ok":true,"n":6,"jobs":["a",0.5]})");
}

TEST(Json, MalformedDocumentsRejected)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01x",
          "\"unterminated", "{\"a\":1}trailing", "[1 2]", "nul",
          "\"\\q\"", "1.e5", "- 1", "{1:2}", "01", "-01", "[0,01]"})
        EXPECT_THROW(parse(bad), Error) << bad;
}

TEST(Json, NumbersBeyondU64FallBackToDouble)
{
    const auto v = parse("184467440737095516160"); // 10 * 2^64
    EXPECT_TRUE(v.isNumber());
    EXPECT_GT(v.asDouble(), 1.8e20);
}

} // namespace
