/// Tests for the strict minimal JSON layer (src/common/json.*): parsing,
/// strictness diagnostics, exact number round-trip, and the canonical form
/// the scenario hasher consumes.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace json = adc::common::json;
using adc::common::ConfigError;
using json::JsonValue;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_EQ(json::parse("42").as_int64(), 42);
  EXPECT_EQ(json::parse("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegerStorageIsPreserved) {
  EXPECT_EQ(json::parse("0").type(), JsonValue::Type::kInt);
  EXPECT_EQ(json::parse("1.0").type(), JsonValue::Type::kDouble);
  // INT64_MAX + 1 still fits unsigned storage; larger falls back to double.
  EXPECT_EQ(json::parse("9223372036854775808").as_uint64(), 9223372036854775808ull);
  EXPECT_EQ(json::parse("99999999999999999999999").type(), JsonValue::Type::kDouble);
}

TEST(JsonParse, NestedDocument) {
  const auto doc = json::parse(R"({"a": [1, 2.5, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(doc.is_object());
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_int64(), 1);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_TRUE(doc.find("c")->find("d")->as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");         // é
  EXPECT_EQ(json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // emoji
}

TEST(JsonParse, StrictnessRejections) {
  EXPECT_THROW((void)json::parse(""), ConfigError);
  EXPECT_THROW((void)json::parse("{,}"), ConfigError);
  EXPECT_THROW((void)json::parse("[1, 2,]"), ConfigError);           // trailing comma
  EXPECT_THROW((void)json::parse(R"({"a": 1,})"), ConfigError);      // trailing comma
  EXPECT_THROW((void)json::parse(R"({"a": 1} )" "x"), ConfigError);  // trailing garbage
  EXPECT_THROW((void)json::parse(R"({"a": 1, "a": 2})"), ConfigError);  // duplicate key
  EXPECT_THROW((void)json::parse("01"), ConfigError);                // leading zero
  EXPECT_THROW((void)json::parse("1."), ConfigError);
  EXPECT_THROW((void)json::parse("+1"), ConfigError);
  EXPECT_THROW((void)json::parse("'single'"), ConfigError);
  EXPECT_THROW((void)json::parse("{\"a\": 1 // comment\n}"), ConfigError);
  EXPECT_THROW((void)json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW((void)json::parse("\"bad \\x escape\""), ConfigError);
  EXPECT_THROW((void)json::parse("1e999"), ConfigError);             // out of double range
  EXPECT_THROW((void)json::parse(std::string(300, '[')), ConfigError);  // nesting bomb
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate object key \"a\""), std::string::npos) << what;
  }
}

TEST(JsonValueApi, TypeMismatchThrows) {
  const auto v = json::parse("[1]");
  EXPECT_THROW((void)v.as_string(), ConfigError);
  EXPECT_THROW((void)v.members(), ConfigError);
  EXPECT_THROW((void)json::parse("1.5").as_int64(), ConfigError);
  EXPECT_THROW((void)json::parse("-1").as_uint64(), ConfigError);
}

TEST(JsonValueApi, ObjectSetPreservesInsertionOrder) {
  auto obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("zeta", 3);  // replace in place, not re-append
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].key, "zeta");
  EXPECT_EQ(obj.members()[0].value.as_int64(), 3);
  EXPECT_TRUE(obj.erase("zeta"));
  EXPECT_FALSE(obj.erase("zeta"));
  ASSERT_EQ(obj.members().size(), 1u);
}

TEST(JsonDump, CompactAndPretty) {
  const auto doc = json::parse(R"({"b": [1, 2], "a": {"x": true}, "e": [], "o": {}})");
  EXPECT_EQ(json::dump_compact(doc), R"({"b":[1,2],"a":{"x":true},"e":[],"o":{}})");
  EXPECT_EQ(json::dump(doc),
            "{\n"
            "  \"b\": [\n    1,\n    2\n  ],\n"
            "  \"a\": {\n    \"x\": true\n  },\n"
            "  \"e\": [],\n"
            "  \"o\": {}\n"
            "}\n");
}

TEST(JsonDump, RoundTripReproducesDocumentExactly) {
  const char* text =
      R"({"name": "x", "v": [0.1, -0.0, 1e-300, 12345678901234567890, -42, 0.69999999999999996],)"
      R"( "s": "é\n", "n": null})";
  const auto doc = json::parse(text);
  const auto reparsed = json::parse(json::dump(doc));
  EXPECT_TRUE(doc == reparsed);
  // And the dump of the reparse is byte-identical (stable fixpoint).
  EXPECT_EQ(json::dump(doc), json::dump(reparsed));
}

TEST(JsonDump, DoubleFormattingRoundTripsBitExactly) {
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          6.02214076e23,
                          -1.6e-19,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          -0.0,
                          110e6,
                          0.69999999999999996};
  for (const double v : cases) {
    const auto text = json::format_double(v);
    const double back = json::parse(text).as_double();
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &v, sizeof a);
    std::memcpy(&b, &back, sizeof b);
    EXPECT_EQ(a, b) << v << " -> " << text;
  }
  EXPECT_EQ(json::format_double(2.5), "2.5");
  EXPECT_EQ(json::format_double(4.0), "4.0");  // stays a double token
  EXPECT_THROW((void)json::format_double(std::nan("")), ConfigError);
  EXPECT_THROW((void)json::format_double(INFINITY), ConfigError);
}

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// The writer's spelling rule stated with the C library: the first of
/// %.15g, %.16g, %.17g that strtod reads back bit-identically, with ".0"
/// appended when the spelling has neither a point nor an exponent.
std::string printf_oracle(double value) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (bits_of(std::strtod(buf, nullptr)) == bits_of(value)) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

}  // namespace

TEST(JsonDump, FormatDoubleMatchesPrintfOracle) {
  std::vector<double> cases = {0.0,
                               -0.0,
                               4.9e-324,
                               -4.9e-324,
                               DBL_MIN,
                               -DBL_MIN,
                               DBL_MAX,
                               -DBL_MAX,
                               9007199254740991.0,  // 2^53 - 1
                               9007199254740992.0,  // 2^53
                               9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
                               1e15,
                               1e16,
                               1e17,
                               999999999999999.9,
                               1e-5,  // %g switches to exponent style below 1e-4
                               1e-4,
                               9.9999999999999991e-5,
                               0.1,
                               1.0 / 3.0,
                               2.0 / 3.0,
                               0.69999999999999996,  // needs 17 digits
                               5e-324 * 3,
                               1.2345678901234567,  // needs 17 digits
                               1.1,                 // 15 digits suffice
                               110e6,
                               64.69819882269162};
  for (int k = 1; k <= 17; ++k) cases.push_back(std::nextafter(std::pow(10.0, k), 0.0));
  for (const double v : cases) {
    EXPECT_EQ(json::format_double(v), printf_oracle(v)) << "bits " << bits_of(v);
  }

  // Random finite bit patterns from a fixed splitmix64 stream.
  std::uint64_t state = 0x5eed5eed5eed5eedull;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  while (checked < 1000000) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double v = from_bits(z);
    if (!std::isfinite(v)) continue;
    ++checked;
    const std::string got = json::format_double(v);
    const std::string want = printf_oracle(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << z << ": " << got << " vs oracle " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonParse, NumberParseEdgeCasesUnchanged) {
  // Underflow reads as zero, as strtod reads it, keeping the sign.
  const auto tiny = json::parse("1e-400");
  EXPECT_EQ(tiny.type(), JsonValue::Type::kDouble);
  EXPECT_EQ(bits_of(tiny.as_double()), bits_of(0.0));
  EXPECT_EQ(bits_of(json::parse("-1e-400").as_double()), bits_of(-0.0));
  // Overflow is an error.
  try {
    (void)json::parse("1e400");
    ADD_FAILURE() << "1e400 parsed";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of double range"), std::string::npos) << e.what();
  }
  EXPECT_EQ(bits_of(json::parse("-0.0").as_double()), bits_of(-0.0));
  EXPECT_TRUE(std::signbit(json::parse("-0.0").as_double()));
  EXPECT_EQ(bits_of(json::parse("4.9e-324").as_double()), 1u);
  EXPECT_EQ(bits_of(json::parse("2.2250738585072014e-308").as_double()), bits_of(DBL_MIN));
  const auto big = json::parse("123456789012345678901234567890");
  EXPECT_EQ(big.type(), JsonValue::Type::kDouble);
  EXPECT_EQ(bits_of(big.as_double()), bits_of(std::strtod("123456789012345678901234567890", nullptr)));
  EXPECT_EQ(bits_of(json::parse("-123456789012345678901234567890").as_double()),
            bits_of(-1.2345678901234568e29));
}

TEST(JsonCanonical, SortsKeysAtEveryLevel) {
  const auto a = json::parse(R"({"b": {"z": 1, "a": 2}, "a": [{"q": 1, "p": 2}]})");
  const auto b = json::parse(R"({"a": [{"p": 2, "q": 1}], "b": {"a": 2, "z": 1}})");
  EXPECT_EQ(json::canonical(a), json::canonical(b));
  EXPECT_EQ(json::canonical(a), R"({"a":[{"p":2,"q":1}],"b":{"a":2,"z":1}})");
  // Array order is data, not presentation: reordering arrays changes the form.
  const auto c = json::parse(R"({"a": [{"p": 2, "q": 1}], "b": {"a": 2, "z": 2}})");
  EXPECT_NE(json::canonical(a), json::canonical(c));
}
