#include "util/json.h"

#include <gtest/gtest.h>

#include <string>

namespace ostro::util {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-42").as_number(), -42.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, NestedStructure) {
  const Json doc = Json::parse(R"({
    "name": "stack",
    "count": 3,
    "resources": [{"id": 1}, {"id": 2}],
    "nested": {"deep": {"value": true}}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "stack");
  EXPECT_EQ(doc.at("count").as_int(), 3);
  EXPECT_EQ(doc.at("resources").size(), 2u);
  EXPECT_EQ(doc.at("resources").at(1).at("id").as_int(), 2);
  EXPECT_TRUE(doc.at("nested").at("deep").at("value").as_bool());
}

TEST(JsonParseTest, StringEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParseTest, UnicodeEscapeUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParseTest, WhitespaceTolerant) {
  const Json doc = Json::parse("  {\n\t\"a\" : [ 1 , 2 ] }\r\n");
  EXPECT_EQ(doc.at("a").size(), 2u);
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").size(), 0u);
  EXPECT_EQ(Json::parse("{}").size(), 0u);
}

TEST(JsonParseTest, MalformedDocumentsThrow) {
  const char* bad[] = {
      "",          "{",        "[1,",     "tru",      "\"unterminated",
      "{\"a\":}",  "[1 2]",    "{1: 2}",  "1 2",      "nul",
      "\"\\q\"",   "{\"a\" 1}", "[,]",    "--3",      "\"\\u12\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << text;
  }
}

TEST(JsonParseTest, DeeplyNestedArraysThrowInsteadOfOverflowing) {
  const std::string text =
      std::string(100000, '[') + std::string(100000, ']');
  EXPECT_THROW((void)Json::parse(text), JsonError);
}

TEST(JsonParseTest, DeeplyNestedObjectsThrowInsteadOfOverflowing) {
  std::string text;
  for (int i = 0; i < 100000; ++i) text += "{\"a\":";
  text += "1" + std::string(100000, '}');
  EXPECT_THROW((void)Json::parse(text), JsonError);
}

TEST(JsonParseTest, NestingLimitIsExact) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(Json::parse(nested(256)).size(), 1u);
  try {
    (void)Json::parse(nested(257));
    FAIL() << "257 levels parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 256"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParseTest, ControlCharacterInStringThrows) {
  EXPECT_THROW((void)Json::parse("\"a\nb\""), JsonError);
}

TEST(JsonParseTest, SurrogateEscapeRejected) {
  EXPECT_THROW((void)Json::parse(R"("\ud834")"), JsonError);
}

TEST(JsonAccessTest, TypeMismatchThrows) {
  const Json doc = Json::parse(R"({"a": 1})");
  EXPECT_THROW((void)doc.as_array(), JsonError);
  EXPECT_THROW((void)doc.at("a").as_string(), JsonError);
  EXPECT_THROW((void)doc.at("missing"), JsonError);
  EXPECT_THROW((void)doc.at(std::size_t{0}), JsonError);
  EXPECT_THROW((void)Json(1.5).as_int(), JsonError);
}

TEST(JsonAccessTest, GetOrAndDefaults) {
  const Json doc = Json::parse(R"({"a": 1, "s": "x"})");
  EXPECT_DOUBLE_EQ(doc.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(doc.number_or("b", 9.0), 9.0);
  EXPECT_EQ(doc.string_or("s", "d"), "x");
  EXPECT_EQ(doc.string_or("t", "d"), "d");
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("zz"));
}

TEST(JsonDumpTest, RoundTripEquality) {
  const char* documents[] = {
      R"({"b":[1,2,{"c":null}],"a":true})",
      R"([1.5,"x",false,{}])",
      R"("plain")",
      R"({"nested":{"deep":[[],[1]]}})",
  };
  for (const char* text : documents) {
    const Json parsed = Json::parse(text);
    const Json reparsed = Json::parse(parsed.dump());
    EXPECT_EQ(parsed, reparsed) << text;
    const Json repretty = Json::parse(parsed.pretty());
    EXPECT_EQ(parsed, repretty) << text;
  }
}

TEST(JsonDumpTest, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  const Json doc(std::string("a\"b\\c\nd"));
  EXPECT_EQ(doc.dump(), R"("a\"b\\c\nd")");
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

TEST(JsonDumpTest, ObjectKeysSorted) {
  const Json doc = Json::parse(R"({"z":1,"a":2})");
  EXPECT_EQ(doc.dump(), R"({"a":2,"z":1})");
}

TEST(JsonEqualityTest, DeepEquality) {
  EXPECT_EQ(Json::parse("[1,[2,3]]"), Json::parse("[1,[2,3]]"));
  EXPECT_FALSE(Json::parse("[1]") == Json::parse("[2]"));
  EXPECT_FALSE(Json(1) == Json("1"));
}

TEST(JsonBuildTest, ProgrammaticConstruction) {
  JsonObject object;
  object["list"] = Json(JsonArray{Json(1), Json("two"), Json(nullptr)});
  object["flag"] = Json(true);
  const Json doc{std::move(object)};
  EXPECT_EQ(doc.at("list").at(1).as_string(), "two");
  EXPECT_TRUE(doc.at("list").at(2).is_null());
  EXPECT_TRUE(doc.at("flag").as_bool());
}

}  // namespace
}  // namespace ostro::util
